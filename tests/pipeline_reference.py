"""
The Fox Jacobian's row loop and the two eliminations of
ribboncheck.alexander as they were before every update went through
laurent.mul_add, kept unchanged as the reference the fused code is
tested against: _fox_row built all n cells of a row through the
checked constructor, and _eliminate and _reduced_blocks made each
update from separate products, negations and sums.  jacobian is the
package's assembly around this _fox_row.
"""

from ribboncheck.foxcalc import AlexanderPresentation
from ribboncheck.laurent import ComputationError, LaurentPoly, exact_divide


def _fox_row(word, num_generators, phi):
    """phi-image of all Fox derivatives of one word, in a single pass."""
    m = phi.num_components
    cells = [dict() for _ in range(num_generators)]

    def bump(g, exps, delta):
        s = cells[g].get(exps, 0) + delta
        if s:
            cells[g][exps] = s
        else:
            del cells[g][exps]

    prefix = [0] * m
    for g, e in word:
        comp = phi.component_of[g]
        if e == 1:
            bump(g, tuple(prefix), 1)
            prefix[comp] += 1
        else:
            prefix[comp] -= 1
            bump(g, tuple(prefix), -1)
    return tuple(LaurentPoly(m, c) for c in cells)



def jacobian(pres, phi):
    """The Jacobian with this module's _fox_row, one row per relator."""
    rows = tuple(_fox_row(r, pres.num_generators, phi) for r in pres.relators)
    return AlexanderPresentation(rows, phi.num_components, phi.component_of)


def _eliminate(rows, nvars):
    """
    Fraction-free (Bareiss) row echelon form of a matrix of LaurentPolys,
    the one elimination routine of this module.  Pivots on rows, column
    by column; a column with no nonzero entry left is skipped.

    Returns (rank, pivot rows, pivot columns, last pivot, sign).  The
    pivot rows are in the order the swaps left them; the last pivot is
    the determinant of the pivot rows x pivot columns submatrix in that
    row order, so of a square matrix of full rank it is the determinant
    times sign, the parity of the row swaps.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    order = list(range(nrows))
    pivot_cols = []
    prev = LaurentPoly.one(nvars)
    sign = 1
    k = 0
    for c in range(ncols):
        if k == nrows:
            break
        piv = next((i for i in range(k, nrows) if not m[i][c].is_zero()), None)
        if piv is None:
            continue
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            order[k], order[piv] = order[piv], order[k]
            sign = -sign
        for i in range(k + 1, nrows):
            for j in range(c + 1, ncols):
                num = m[k][c] * m[i][j] - m[i][c] * m[k][j]
                q = exact_divide(num, prev)
                if q is None:
                    raise ComputationError("Bareiss division failed")
                m[i][j] = q
            m[i][c] = LaurentPoly.zero(nvars)
        prev = m[k][c]
        pivot_cols.append(c)
        k += 1
    return k, order[:k], pivot_cols, prev, sign



def _reduced_blocks(pres):
    """
    Eliminate generator/relator pairs at unit pivots, drop zero rows and
    split what is left into the connected blocks of its nonzero pattern,
    each returned as an AlexanderPresentation on its own columns.

    Each step pivots on the unit whose row and column have the fewest
    other nonzeros, the least (row nonzeros - 1) * (column nonzeros - 1)
    bound on fill-in, and clears the rest of its column with row
    operations.  Row operations and deleting the cleared column keep the
    Fox row relation sum_j a_ij (t_comp(j) - 1) = 0, so the blocks admit
    the same shortcut as the full matrix.  The nonzero counts and the
    set of unit entries are kept up to date as entries change.
    """
    zero = LaurentPoly.zero(pres.nvars)
    rows = {}
    cols = {j: set() for j in range(pres.num_generators)}
    units = set()
    for i, row in enumerate(pres.matrix):
        entries = {j: e for j, e in enumerate(row) if not e.is_zero()}
        if entries:
            rows[i] = entries
        for j, e in entries.items():
            cols[j].add(i)
            if e.is_unit():
                units.add((i, j))

    def fill(ij):
        return (len(rows[ij[0]]) - 1) * (len(cols[ij[1]]) - 1), ij

    while units:
        p, c = min(units, key=fill)
        pivot_row = rows.pop(p)
        (exps, coeff), = pivot_row.pop(c).terms.items()
        inverse = LaurentPoly.monomial(coeff, tuple(-e for e in exps))
        for j in pivot_row:
            cols[j].discard(p)
            units.discard((p, j))
        units.discard((p, c))
        for i in sorted(cols.pop(c) - {p}):
            row = rows[i]
            units.discard((i, c))
            factor = row.pop(c) * inverse
            for j, e in pivot_row.items():
                v = row.get(j, zero) - factor * e
                if v.is_zero():
                    del row[j]
                    cols[j].discard(i)
                    units.discard((i, j))
                    continue
                row[j] = v
                cols[j].add(i)
                if v.is_unit():
                    units.add((i, j))
                else:
                    units.discard((i, j))
            if not row:
                del rows[i]

    seen = set()
    blocks = []
    for start in sorted(cols):
        if start in seen:
            continue
        seen.add(start)
        block_rows, block_cols, stack = set(), [start], [start]
        while stack:
            for i in cols[stack.pop()] - block_rows:
                block_rows.add(i)
                for j in rows[i]:
                    if j not in seen:
                        seen.add(j)
                        block_cols.append(j)
                        stack.append(j)
        block_cols.sort()
        matrix = tuple(tuple(rows[i].get(j, zero) for j in block_cols)
                       for i in sorted(block_rows))
        blocks.append(AlexanderPresentation(
            matrix, pres.nvars,
            tuple(pres.generator_component[j] for j in block_cols)))
    return blocks


"""
Replaced code of ribboncheck.alexander, ribboncheck.obstruct,
ribboncheck.cli, ribboncheck.oracles and ribboncheck.linkcodec, kept
unchanged as the reference the current code is tested against.

Each of them that made its products with laurent.mul_add, which laurent
no longer has, calls the copy kept in laurent_reference.

- The Fox Jacobian's row loop and the two eliminations as they were
  before every update went through mul_add: _fox_row built all
  n cells of a row through the checked constructor, and _eliminate and
  _reduced_blocks made each update from separate products, negations
  and sums.  jacobian is the package's assembly around this _fox_row.
- _block_order as it was before the rank-one table of minors: the
  single-minor shortcut behind _rows_agree's row check, and otherwise
  _full_minor_gcd's loop over all C(R,r) * C(G,r) minors.
- minor_table_block_order, _block_order as it was before the left kernel
  certificate: module_rank on every block, then the row side of the
  rank-one table of minors, then _closed_form (which it calls as this
  module's copy) or the column side.
- guarded_block_order, _block_order as it was before the column side of
  a diagram-shaped block came from Cramer's rule alone: the kernel
  certificate's minor divided by _closed_form's k, which evaluates one
  guard minor, and every other block, or one whose guard disagrees,
  by minor_table_block_order.
- column_weights, _column_weights as it was before it built each
  component's t_c - 1 once: monomial(...) - one for every column.
- laurent_fox_row, laurent_jacobian, laurent_reduced_blocks,
  laurent_kernel_certificate and _row_relation_holds, the Fox Jacobian,
  the unit-pivot reduction and the kernel certificate's checks as they
  were before they ran on packed exponent keys: the Jacobian's cells
  and every update were LaurentPolys keyed by exponent tuples, each
  update one mul_add call, and both checks sums of mul_add
  products.  laurent_jacobian's doctest is left out.
- obstruction_from_polynomials and cmd_batch as they were before batch
  --pairs shared its work by polynomial value: a memo for each unordered
  pair of distinct rows, none on the diagonal, and each line a
  json.dumps of its record, a report's being json.dumps(to_dict()).
- memo_obstruction_from_polynomials and memo_pair_lines,
  obstruction_from_polynomials and cli._pair_lines as they were before
  the integer screen: a division for every ordered pair of distinct
  polynomial values and laurent.gcd wherever neither divides the other,
  each shared through one memo per unordered pair of values, and a line
  format of its own for a report, a mismatch and an error.
- json_text and witness_json, AlexanderPolynomial.json_text and
  ObstructionReport.witness_json as they were before cli became the one
  module that encodes JSON: a polynomial's text and a report's quotient
  and gcd as JSON texts, which memo_pair_lines fills its lines from.
  Each takes the object as its argument, and json_text is no longer
  cached.
- two_phase_smith_normal_form, the cover oracle's Smith form as it was
  before one sparse loop did all of it: elimination at +-1 pivots on
  sparse rows, then _dense_diagonal on a dense copy of the core left,
  pivoting on the first least entry in row-major order.
- label_successor_pd_diagram, pd_diagram as it was when its stalled
  propagation always took the over edges b, d as b -> d if d = b + 1
  and max -> min otherwise, which rejects valid codes where b = d + 1
  on a component of three or more edges.
- propagation_pd_diagram, pd_diagram as it was before it read each
  direction from the labelling convention in one pass: head/tail
  propagation over the crossings until it stalls, a tie-break for the
  stalled over strands (d -> b where b = d + 1, except where the same
  over pair occurs at two crossings), then the check that every strand
  steps x -> x + 1 along its component.
- decoded_eliminate, decoded_determinant, decoded_module_rank,
  decoded_minor, decoded_packed, decoded_kernel_certificate and
  decoded_block_order, the block stage as it was before its minors ran
  on packed exponent keys: every block was decoded to LaurentPolys, to
  measure its exponents (decoded_packed, which packed it anew when the
  reduction's radius was too narrow for the kernel certificate's
  checks) and for each minor, and the one Bareiss routine made each
  update one mul_add call and each division one
  laurent.exact_divide call.  They call one another, not the package's
  block stage, and run the package's _row_relation_holds as
  packed_row_relation_holds.  decoded_module_rank's doctest is left
  out.
- _packed and _minor, alexander's reading of a presentation as it was
  while AlexanderPresentation.matrix could also be rows of LaurentPolys:
  _packed returned a PackedMatrix as it was and packed LaurentPoly rows
  at radius 2h, and _minor took a minor of either form through it.  The
  replaced routes above call this module's _minor.
- _column_weights, alexander's weights as they were before _block_order
  built the one it divides by: a LaurentPoly t_comp(j) - 1 for every
  column of every block, one per component shared among its columns.
  The references above that read the weights call it.
- monomial_kernel_certificate and monomial_block_order,
  _kernel_certificate and _block_order as they were while a
  presentation's kernel was a tuple of LaurentPoly monomials: the
  certificate checked that each was a unit of the block's variable
  count, bounded them by _max_exponent and unpacked each back into its
  exponents and sign, and the block order read k = w_q from
  _column_weights.  monomial_block_order calls
  monomial_kernel_certificate, and both run the package's
  _row_relation_holds as packed_row_relation_holds.  They, like
  laurent_kernel_certificate, laurent_reduced_blocks' blocks and
  decoded_kernel_certificate, read a kernel of monomials, which the
  tests build from a presentation's exponent vectors.
- SCREEN_POINTS, point_values and screened, obstruct's integer screen as
  it was before each polynomial carried one cached value: six small
  points, the k-th giving t_i the value SCREEN_POINTS[(k + i) % 6]
  (alexander.AlexanderPolynomial.point_values' body, a function here),
  and obstruct._screened's loop over them.
"""

import json
import sys
from itertools import combinations
from math import comb, gcd

from ribboncheck import cli, laurent, tables
from ribboncheck.alexander import (FALLBACK_MINOR_BUDGET, RankCertificate,
                                   _det, _kernel_certificate, _minor_gcd,
                                   module_rank)
from ribboncheck.alexander import \
    _row_relation_holds as packed_row_relation_holds
from ribboncheck.foxcalc import (AlexanderPresentation, PackedMatrix,
                                 _max_exponent)
from ribboncheck.laurent import (ComputationError, LaurentPoly, canonical,
                                 exact_divide)
from ribboncheck.linkcodec import (Crossing, DiagramError, LinkDiagram,
                                   ParseError, _classes)
from ribboncheck.obstruct import (NOT_OBSTRUCTED, OBSTRUCTED,
                                  ComponentMismatch, ObstructionReport,
                                  component_mismatch)

from helpers import is_unit
from laurent_reference import mul_add


def _packed(pres):
    """
    The presentation's PackedMatrix: its own, or its LaurentPoly rows
    packed at radius 2h, h = max(1, 2 * the sum over rows of each row's
    largest |exponent|, the kernel's largest |exponent|).  A minor of the
    matrix, or of a block that the unit-pivot reduction leaves of it,
    then lies within h (_reduced_blocks), and so does the kernel.
    """
    matrix = pres.matrix
    if isinstance(matrix, PackedMatrix):
        return matrix
    h = max(1, 2 * sum(map(_max_exponent, matrix)),
            _max_exponent(pres.kernel or ()))
    return PackedMatrix.pack(matrix, pres.num_generators, pres.nvars, 2 * h)


def _minor(pres, rows, cols):
    return _det(_packed(pres), rows, cols)


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
            if is_unit(e):
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
                if is_unit(v):
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


def _block_order(block):
    """
    Torsion order of one reduced block and the path that gave it:
    "rank0" (no torsion), "shortcut" or "fallback".

    Diagram-shaped blocks (rank = generators - 1, Fox row relation
    holding row-wise) admit the classical shortcut: on an independent
    row set the signed column-deleted minors span the kernel of the
    matrix, which contains the weight vector (t_{comp(j)} - 1)_j, so
    M_j = ±lambda * (t_{comp(j)} - 1).  When all columns belong to one
    component all weights agree and the order is a single minor;
    otherwise it is a single minor divided by its weight.  The minor is
    the gcd over all row sets only if they all give it up to a unit,
    which _rows_agree checks; a second column is always evaluated as a
    consistency guard.  Full minor enumeration is the fallback.
    """
    cert = module_rank(block)
    r = cert.rank
    if r == 0:
        return LaurentPoly.one(block.nvars), "rank0"
    value, path = None, "shortcut"
    if r == block.num_generators - 1:
        weights = _column_weights(block)
        if _row_relation_holds(block, weights):
            value = _classical_delta(block, cert, weights)
    if value is None:
        value, path = _full_minor_gcd(block, r), "fallback"
    if value.is_zero():
        raise ComputationError(
            "all %dx%d minors vanish although rank is %d" % (r, r, r))
    return value, path


def _column_deleted_minor(pres, rows, skip_col):
    cols = [j for j in range(pres.num_generators) if j != skip_col]
    return _minor(pres, rows, cols)


def _rows_agree(pres, cert, missing):
    """
    Whether every r-row set gives the pivot rows' minor up to a unit.
    The shortcut reads one row set, while the order is the gcd over all
    of them; they agree when the left kernel's entries are units, as for
    a diagram's Jacobian, whose relators each follow from the others.
    More than r + 1 rows are left to the fallback.
    """
    spare = pres.num_relators - cert.rank
    if spare != 1:
        return spare == 0
    first = canonical(cert.minor)
    all_rows = range(pres.num_relators)
    return all(canonical(_column_deleted_minor(
        pres, [k for k in all_rows if k != i], missing)) == first
        for i in cert.pivot_rows)


def _classical_delta(pres, cert, weights):
    """Single-minor evaluation with guards; None if the shape lies."""
    g = pres.num_generators
    missing = next(j for j in range(g) if j not in cert.pivot_columns)
    if not _rows_agree(pres, cert, missing):
        return None
    first = cert.minor  # determinant of pivot rows x pivot columns, up to sign
    comp_missing = pres.generator_component[missing]
    if len(set(pres.generator_component)) == 1:
        candidate = first
        guard_col = next(j for j in range(g) if j != missing)
        guard = _column_deleted_minor(pres, cert.pivot_rows, guard_col)
        if canonical(guard) != canonical(candidate):
            return None
        return candidate
    guard_col = next(j for j in range(g)
                     if pres.generator_component[j] != comp_missing)
    candidate = exact_divide(first, weights[missing])
    guard_minor = _column_deleted_minor(pres, cert.pivot_rows, guard_col)
    guard = exact_divide(guard_minor, weights[guard_col])
    if candidate is None or guard is None:
        return None
    if canonical(guard) != canonical(candidate):
        return None
    return candidate


def _full_minor_gcd(pres, r):
    """gcd of all r x r minors, at most FALLBACK_MINOR_BUDGET of them."""
    needed = comb(pres.num_relators, r) * comb(pres.num_generators, r)
    if needed > FALLBACK_MINOR_BUDGET:
        raise ComputationError(
            "the full-minor fallback needs %d minors of rank %d on a %dx%d "
            "reduced block, past its budget of %d "
            "(alexander.FALLBACK_MINOR_BUDGET)"
            % (needed, r, pres.num_relators, pres.num_generators,
               FALLBACK_MINOR_BUDGET))
    running = LaurentPoly.zero(pres.nvars)
    one = LaurentPoly.one(pres.nvars)
    for rows in combinations(range(pres.num_relators), r):
        for cols in combinations(range(pres.num_generators), r):
            d = _minor(pres, rows, cols)
            if d.is_zero():
                continue
            running = laurent.gcd(running, d)
            if running == one:
                return running
    return running


def minor_table_block_order(block):
    """
    Torsion order of one reduced block and the path that gave it:
    "rank0" (no torsion), "shortcut" or "fallback".

    By the rank-one table of minors (module docstring) the order is
    gcd_S det M[S,Q] / k with k = c / gcd_T det M[P,T].  The row side is
    always the gcd over the C(R,r) row sets.  On a diagram-shaped block
    (rank = generators - 1, Fox row relation holding row-wise) k has a
    closed form, checked by one guard minor ("shortcut"); every other
    block, and one whose guard disagrees, takes the gcd over the C(G,r)
    column sets ("fallback").
    """
    cert = module_rank(block)
    r = cert.rank
    if r == 0:
        return LaurentPoly.one(block.nvars), "rank0"
    nrows, ncols = block.num_relators, block.num_generators
    rows, cols, c = cert.pivot_rows, cert.pivot_columns, cert.minor
    weights = _column_weights(block) if r == ncols - 1 else None
    shaped = weights is not None and _row_relation_holds(block, weights)
    k = _closed_form(block, cert, weights) if shaped else None
    # besides the certificate's: the row side, the guard, the column side
    needed = (comb(nrows, r) - 1 + (1 if shaped else 0)
              + (comb(ncols, r) - 1 if k is None else 0))
    if needed > FALLBACK_MINOR_BUDGET:
        raise ComputationError(
            "the torsion order needs %d minors of rank %d on a %dx%d "
            "reduced block, past its budget of %d "
            "(alexander.FALLBACK_MINOR_BUDGET)"
            % (needed, r, nrows, ncols, FALLBACK_MINOR_BUDGET))
    value = _minor_gcd(c, (_minor(block, s, cols)
                           for s in combinations(range(nrows), r)
                           if s != rows))
    path = "shortcut"
    if k is None:
        k = exact_divide(c, _minor_gcd(c, (
            _minor(block, rows, t) for t in combinations(range(ncols), r)
            if t != cols)))
        path = "fallback"
    if not k.is_one():  # k = 1: one component, nothing to divide
        value = exact_divide(value, k)
        if value is None:
            raise ComputationError(
                "the minors of a %dx%d block of rank %d break the rank-one "
                "identity" % (nrows, ncols, r))
    return value, path


def _closed_form(block, cert, weights):
    """
    k of a diagram-shaped block, or None if the guard column disagrees.
    On the rows P the signed column-deleted minors span the kernel,
    which holds the weight vector (t_comp(j) - 1)_j, so det M[P, all but
    j] = ±lambda * w_j, and k = w_q for the column q outside Q.  Here
    w_j = t_comp(j) - 1, or 1 when all columns belong to one component
    (the weights agree, and their gcd is t - 1).  The minor without a
    second column, of another component if there is one, must give the
    same lambda.
    """
    comp, g = block.generator_component, block.num_generators
    cols = cert.pivot_columns
    q = next(j for j in range(g) if j not in cols)
    guard_col = next((j for j in cols if comp[j] != comp[q]), cols[0])
    guard = _minor(block, cert.pivot_rows, [j for j in range(g)
                                            if j != guard_col])
    if comp[guard_col] == comp[q]:  # one component: every weight is 1
        k, lam = LaurentPoly.one(block.nvars), cert.minor
    else:
        k, lam = weights[q], exact_divide(cert.minor, weights[q])
        guard = exact_divide(guard, weights[guard_col])
    if lam is None or guard is None or canonical(lam) != canonical(guard):
        return None
    return k


def guarded_block_order(block):
    """
    Torsion order of one reduced block and the path that gave it:
    "rank0" (no torsion), "shortcut" or "fallback".

    A block that passes _kernel_certificate has order c / k, c its minor
    and k the closed form ("shortcut"); every other block, and one whose
    guard disagrees, takes minor_table_block_order.
    """
    cert = _kernel_certificate(block)
    if cert is not None:
        k = _closed_form(block, cert, _column_weights(block))
        if k is not None:
            value = cert.minor if k.is_one() else exact_divide(cert.minor, k)
            return value, "shortcut"
    return minor_table_block_order(block)


def _column_weights(pres):
    """u_j = t_{comp(j)} - 1, the weights in the Fox column relation."""
    zero = (0,) * pres.nvars
    weight = {c: LaurentPoly._make(pres.nvars, {
        zero[:c] + (1,) + zero[c + 1:]: 1, zero: -1})
        for c in set(pres.generator_component)}
    return [weight[c] for c in pres.generator_component]


def monomial_block_order(block):
    """
    Torsion order of one reduced block and the path that gave it:
    "rank0" (no torsion), "shortcut" or "fallback".

    By the rank-one table of minors (module docstring) the order is the
    row side gcd_S det M[S,Q] divided by k = c / gcd_T det M[P,T].  A
    block that passes _kernel_certificate takes its minor c as the row
    side; every other block takes module_rank's certificate and the gcd
    over the C(R,r) row sets.  On a diagram-shaped block, which a kernel
    certificate's block always is, Cramer's rule gives k = w_q, or 1 on
    one component ("shortcut"); every other block takes the gcd over the
    C(G,r) column sets ("fallback").  An inexact division by k is an
    inconsistency and raises ComputationError.
    """
    cert = monomial_kernel_certificate(block)
    certified = cert is not None
    if not certified:
        cert = module_rank(block)
    r = cert.rank
    if r == 0:
        return LaurentPoly.one(block.nvars), "rank0"
    nrows, ncols = block.num_relators, block.num_generators
    rows, cols, c = cert.pivot_rows, cert.pivot_columns, cert.minor
    weights = _column_weights(block) if r == ncols - 1 else None
    shaped = weights is not None and (certified or packed_row_relation_holds(
        block.matrix, block.generator_component))
    # besides the certificate's: the row side, the column side
    needed = ((0 if certified else comb(nrows, r) - 1)
              + (0 if shaped else comb(ncols, r) - 1))
    if needed > FALLBACK_MINOR_BUDGET:
        raise ComputationError(
            "the torsion order needs %d minors of rank %d on a %dx%d "
            "reduced block, past its budget of %d "
            "(alexander.FALLBACK_MINOR_BUDGET)"
            % (needed, r, nrows, ncols, FALLBACK_MINOR_BUDGET))
    value = c if certified else _minor_gcd(c, (
        _det(block.matrix, s, cols) for s in combinations(range(nrows), r)
        if s != rows))
    if not shaped:
        k = exact_divide(c, _minor_gcd(c, (
            _det(block.matrix, rows, t) for t in combinations(range(ncols), r)
            if t != cols)))
    elif len(set(block.generator_component)) == 1:
        k = LaurentPoly.one(block.nvars)
    else:
        k = weights[next(j for j in range(ncols) if j not in cols)]
    if not k.is_one():  # k = 1: nothing to divide
        value = exact_divide(value, k)
        if value is None:
            raise ComputationError(
                "the minors of a %dx%d block of rank %d break the rank-one "
                "identity" % (nrows, ncols, r))
    return value, "shortcut" if shaped else "fallback"


def monomial_kernel_certificate(block):
    """
    The minor c of a G x G block B (G >= 2) without its last row and
    column if B's kernel y is G units, y * B = B * w = 0 and c != 0.
    Both checks run on B's packed rows.  B's entries lie within
    its bound h, so a kernel within h (and h >= 1) keeps every exponent
    of y_i * B_ij and B_ij * t_c within 2h, inside the radius:
    packing is then injective on both sums, and a wrong y is never
    certified by keys that alias.  A kernel past h is refused.
    """
    y, g = block.kernel, block.num_generators
    if (y is None or g < 2 or block.num_relators != g or len(y) != g
            or not all(is_unit(e) and e.nvars == block.nvars for e in y)):
        return None
    packed = block.matrix
    if max(1, _max_exponent(y)) > packed.bound:
        return None
    total = [{} for _ in range(g)]
    for (exps, sign), row in zip((next(iter(e.terms.items())) for e in y),
                                 packed.rows):
        shift = packed.key(exps)
        for j, cell in row.items():
            column = total[j]
            for k, x in cell.items():
                column[k + shift] = column.get(k + shift, 0) + sign * x
    if (any(any(column.values()) for column in total)
            or not packed_row_relation_holds(packed,
                                             block.generator_component)):
        return None
    rows = tuple(range(g - 1))
    c = _det(packed, rows, rows)
    return RankCertificate(g - 1, rows, rows, c) if c.terms else None


def column_weights(pres):
    """u_j = t_{comp(j)} - 1, the weights in the Fox column relation."""
    nvars = pres.nvars
    one = LaurentPoly.one(nvars)
    weights = []
    for comp in pres.generator_component:
        exps = tuple(1 if i == comp else 0 for i in range(nvars))
        weights.append(LaurentPoly.monomial(1, exps) - one)
    return weights


def _row_relation_holds(pres, weights):
    # every relator dies under the abelianization, which makes each row
    # satisfy sum_j entry_j * (t_{comp(j)} - 1) = 0 exactly
    return not any(mul_add([(e, u, 1) for e, u in zip(row, weights)])
                   for row in pres.matrix)


def laurent_fox_row(word, num_generators, phi, zero):
    """phi-image of all Fox derivatives of one word, in a single pass."""
    m = phi.num_components
    cells = {}
    prefix = [0] * m
    for g, e in word:
        comp = phi.component_of[g]
        if e == -1:
            prefix[comp] -= 1
        cell = cells.setdefault(g, {})
        exps = tuple(prefix)
        s = cell.get(exps, 0) + e
        if s:
            cell[exps] = s
        else:
            del cell[exps]
        if e == 1:
            prefix[comp] += 1
    row = [zero] * num_generators
    for g, cell in cells.items():
        if cell:
            row[g] = LaurentPoly._make(m, cell)
    return tuple(row)


def laurent_jacobian(pres, phi):
    """
    Assemble the Alexander presentation matrix with entries
    phi(d r_i / d x_j).
    """
    if len(phi.component_of) != pres.num_generators:
        raise ValueError("abelianization map does not match presentation")
    zero = LaurentPoly.zero(phi.num_components)
    rows = tuple(laurent_fox_row(r, pres.num_generators, phi, zero)
                 for r in pres.relators)
    return AlexanderPresentation(rows, phi.num_components, phi.component_of)


def laurent_reduced_blocks(pres):
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
        entries = {j: e for j, e in enumerate(row) if e.terms}
        if entries:
            rows[i] = entries
        for j, e in entries.items():
            cols[j].add(i)
            if is_unit(e):
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
                v = mul_add(((factor, e, -1),), row.get(j))
                if not v.terms:
                    del row[j]
                    cols[j].discard(i)
                    units.discard((i, j))
                    continue
                row[j] = v
                cols[j].add(i)
                if is_unit(v):
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
        block_rows = sorted(block_rows)
        matrix = tuple(tuple(rows[i].get(j, zero) for j in block_cols)
                       for i in block_rows)
        blocks.append(AlexanderPresentation(
            matrix, pres.nvars,
            tuple(pres.generator_component[j] for j in block_cols),
            pres.kernel and tuple(pres.kernel[i] for i in block_rows)))
    return blocks


def laurent_kernel_certificate(block):
    """
    The minor c of a G x G block B (G >= 2) without its last row and
    column if B's kernel y is units, y * B = B * w = 0 and c != 0.
    """
    y, g = block.kernel, block.num_generators
    if (y is None or g < 2 or block.num_relators != g
            or not all(is_unit(e) and e.nvars == block.nvars for e in y)
            or any(mul_add([(e, row[j], 1) for e, row in zip(y, block.matrix)])
                   for j in range(g))
            or not _row_relation_holds(block, _column_weights(block))):
        return None
    rows = tuple(range(g - 1))
    c = _minor(block, rows, rows)
    return RankCertificate(g - 1, rows, rows, c) if c.terms else None


def obstruction_from_polynomials(delta_j, delta_l, names=("J", "L"),
                                 shared=None):
    """
    Apply the divisibility test to polynomials already computed.

    The division comes first; when Delta_L divides Delta_J the gcd is
    Delta_L itself.  shared, when given, is one dict that both
    directions of the same two polynomials pass, in either order.  It
    carries the gcd to the second direction and, when the first one
    does not divide, the second direction's quotient: to know whether a
    gcd is needed the first direction divides the other way too.  So a
    pair takes one division per direction, in whichever order its
    directions come, and a gcd only when neither polynomial divides the
    other.
    """
    reason = component_mismatch(delta_j, delta_l)
    if reason:
        raise ComponentMismatch(reason)
    if shared is not None and "quotient" in shared:
        quotient = shared.pop("quotient")
    else:
        quotient = exact_divide(delta_j.value, delta_l.value)
    if quotient is not None:
        if delta_l.value * quotient != delta_j.value:
            raise ComputationError("division witness failed verification")
        verdict, g = NOT_OBSTRUCTED, delta_l.value  # canonical already
    elif shared is None:
        verdict, g = OBSTRUCTED, laurent.gcd(delta_j.value, delta_l.value)
    else:
        verdict, g = OBSTRUCTED, shared.get("gcd")
        if g is None:
            shared["quotient"] = exact_divide(delta_l.value, delta_j.value)
            g = (laurent.gcd(delta_j.value, delta_l.value)
                 if shared["quotient"] is None else delta_j.value)
    if shared is not None:
        shared["gcd"] = g
    return ObstructionReport(tuple(names), delta_j, delta_l, verdict,
                             quotient, g)


def _mismatch_record(names, reason):
    return {"direction": list(names), "verdict": "component_mismatch",
            "reason": reason}


def cmd_batch(args):
    """cli.cmd_batch, with the rows' polynomials from cli._compute_record."""
    rows = tables.batch_rows(args.csv_path)
    # per row, by index (names may repeat): its polynomial, or None and
    # the kind of its error
    deltas, kinds = [], []
    for name, spec in rows:
        delta = None
        try:
            record, delta = cli._compute_record(name, spec, args.max_crossings)
        except (ParseError, DiagramError) as exc:
            record = {"name": name, "spec": spec,
                      "error": {"kind": "parse", "message": str(exc)}}
        except ComputationError as exc:
            record = {"name": name, "spec": spec,
                      "error": {"kind": "compute", "message": str(exc)}}
        except Exception as exc:
            # one row's bug must not cost the other rows their results
            import traceback
            traceback.print_exc(file=sys.stderr)
            record = {"name": name, "spec": spec,
                      "error": {"kind": "internal", "message": "%s: %s"
                                % (type(exc).__name__, exc)}}
        deltas.append(delta)
        kinds.append(record["error"]["kind"] if delta is None else None)
        print(json.dumps(record))

    if args.pairs:
        # (i, j) with i < j -> what the two directions of rows i and j share
        shared = {}
        for i, (name_j, _) in enumerate(rows):
            for j, (name_l, _) in enumerate(rows):
                names = (name_j, name_l)
                failed = kinds[i] or kinds[j]
                if failed:
                    print(json.dumps({"direction": list(names), "error": {
                        "kind": failed,
                        "message": cli._OPERAND_ERRORS[failed]}}))
                    continue
                reason = component_mismatch(deltas[i], deltas[j])
                if reason:
                    print(json.dumps(_mismatch_record(names, reason)))
                    continue
                pair = (None if i == j else
                        shared.setdefault((min(i, j), max(i, j)), {}))
                try:
                    report = obstruction_from_polynomials(
                        deltas[i], deltas[j], names=names, shared=pair)
                except ComputationError as exc:
                    print(json.dumps({"direction": list(names), "error": {
                        "kind": "compute", "message": str(exc)}}))
                    continue
                print(json.dumps(report.to_dict()))
    return cli.EXIT_OK


# the pair lines of memo_pair_lines and the reports of
# memo_obstruction_from_polynomials, as JSON templates
REPORT_JSON = ('{"direction": [%s, %s], "deltaJ": %s, "deltaL": %s, '
               '"verdict": "%s", "quotient": %s, "gcd": %s}')
_MISMATCH_JSON = ('{"direction": [%s, %s], "verdict": "component_mismatch", '
                  '"reason": %s}')
_ERROR_JSON = '{"direction": [%s, %s], "error": {"kind": "%s", "message": %s}}'
_OPERAND_ERRORS = cli._OPERAND_ERRORS


def memo_obstruction_from_polynomials(delta_j, delta_l, names=("J", "L"),
                                      shared=None):
    """
    Apply the divisibility test to polynomials already computed.

    The division comes first; when Delta_L divides Delta_J the gcd is
    Delta_L itself.  Without shared a call takes that one division, and
    the gcd when it does not divide.  shared, when given, is one dict
    that every call on the same two polynomial values passes, in either
    order and any number of times.  It keeps each direction's quotient,
    under its dividend's text, and the gcd, under "gcd" (no polynomial's
    text).  To know whether a gcd is needed, the first direction that
    does not divide divides the other way too.  So two values take at
    most one division per direction, whatever the order of the calls,
    and a gcd only when neither divides the other.  Every call that
    divides checks its quotient.
    """
    reason = component_mismatch(delta_j, delta_l)
    if reason:
        raise ComponentMismatch(reason)
    memo = {} if shared is None else shared
    if delta_j.text not in memo:
        memo[delta_j.text] = exact_divide(delta_j.value, delta_l.value)
    quotient = memo[delta_j.text]
    if quotient is not None:
        if delta_l.value * quotient != delta_j.value:
            raise ComputationError("division witness failed verification")
        verdict, g = NOT_OBSTRUCTED, delta_l.value  # canonical already
    else:
        verdict, g = OBSTRUCTED, memo.get("gcd")
        if g is None:
            if shared is not None and delta_l.text not in memo:
                memo[delta_l.text] = exact_divide(delta_l.value, delta_j.value)
            g = memo["gcd"] = (
                delta_j.value if memo.get(delta_l.text) is not None
                else laurent.gcd(delta_j.value, delta_l.value))
    return ObstructionReport(tuple(names), delta_j, delta_l, verdict,
                             quotient, g)


def memo_pair_lines(rows, deltas, kinds):
    """
    Each row's --pairs lines, as one text a row.  Rows with equal
    polynomials share their pair work: every pair of the same two values
    passes one shared memo, and its quotient and gcd are encoded once.
    """
    # per row: its name, as JSON too, its polynomial, the kind of its
    # error, and the index of the first row of an equal polynomial
    first = {}
    table = [(name, json.dumps(name), delta, kind,
              delta and first.setdefault((delta.nvars, delta.text), i))
             for i, ((name, _), delta, kind)
             in enumerate(zip(rows, deltas, kinds))]
    shared, witnesses, reasons = {}, {}, {}
    for name_j, text_j, dj, kind_j, a in table:
        lines = []
        for name_l, text_l, dl, kind_l, b in table:
            failed = kind_j or kind_l
            if failed:
                lines.append(_ERROR_JSON % (text_j, text_l, failed,
                                            json.dumps(_OPERAND_ERRORS[failed])))
                continue
            if dj.nvars != dl.nvars:
                key = dj.nvars, dl.nvars
                if key not in reasons:
                    reasons[key] = json.dumps(component_mismatch(dj, dl))
                lines.append(_MISMATCH_JSON % (text_j, text_l, reasons[key]))
                continue
            try:
                report = memo_obstruction_from_polynomials(
                    dj, dl, names=(name_j, name_l),
                    shared=shared.setdefault((a, b) if a < b else (b, a), {}))
            except ComputationError as exc:
                lines.append(_ERROR_JSON % (text_j, text_l, "compute",
                                            json.dumps(str(exc))))
                continue
            if (a, b) not in witnesses:
                witnesses[a, b] = witness_json(report)
            lines.append(REPORT_JSON % (text_j, text_l, json_text(dj),
                                        json_text(dl), report.verdict,
                                        *witnesses[a, b]))
        yield "\n".join(lines) + "\n"


def json_text(delta):
    """The polynomial's text as a JSON string."""
    return json.dumps(delta.text)


def witness_json(report):
    """The quotient and the gcd as JSON texts, in that order."""
    g = report.gcd_value
    return ("null" if report.quotient is None else
            json.dumps(laurent.poly_to_str(report.quotient)),
            '"1"' if g.is_one() else
            json_text(report.delta_l) if g == report.delta_l.value else
            json_text(report.delta_j) if g == report.delta_j.value else
            json.dumps(laurent.poly_to_str(g)))


def two_phase_smith_normal_form(matrix):
    """
    Diagonalize an integer matrix by unimodular row/column operations and
    return the nonzero diagonal d1 | d2 | ... (unit entries included, so
    the length of the result is the rank).  A row is a list of entries
    or a dict {column: entry}; either is copied into a dict of its
    nonzero entries, which the sparse phase works on.

    A sparse phase eliminates at +-1 pivots first (the shortest row that
    holds one, its sparsest such column), each a unit factor; the dense
    phase diagonalizes the core left by division with remainder
    (_dense_diagonal).

    >>> two_phase_smith_normal_form([[2, 4], [6, 8]])
    [2, 4]
    >>> two_phase_smith_normal_form([[0, 0]]) == []
    True
    >>> two_phase_smith_normal_form([[1, 2], [3, 4]])
    [1, 2]
    >>> two_phase_smith_normal_form([{0: 2, 5: 4}, {0: 6, 5: 8}])
    [2, 4]
    """
    rows = {}  # row id -> {column: nonzero value}
    cols = {}  # column -> ids of the rows that use it
    for i, row in enumerate(matrix):
        r = {j: int(v) for j, v in (row.items() if isinstance(row, dict)
                                    else enumerate(row)) if v}
        if r:
            rows[i] = r
            for j in r:
                cols.setdefault(j, set()).add(i)
    units = 0
    while True:
        piv = None
        for i, r in rows.items():
            if piv is None or len(r) < len(rows[piv[0]]):
                unit = [j for j, v in r.items() if v in (1, -1)]
                if unit:
                    piv = i, min(unit, key=lambda j: len(cols[j]))
        if piv is None:
            break
        p, c = piv
        prow = rows.pop(p)
        for i in cols[c] - {p}:
            r = rows[i]
            f = r[c] * prow[c]  # the pivot is its own inverse
            for j, v in prow.items():
                w = r.get(j, 0) - f * v
                if w:
                    r[j] = w
                    cols[j].add(i)
                else:
                    del r[j]
                    cols[j].discard(i)
            if not r:
                del rows[i]
        for j in prow:
            cols[j].discard(p)
        units += 1
    used = sorted(j for j, ids in cols.items() if ids)
    core = [[r.get(j, 0) for j in used] for r in rows.values()]
    return [1] * units + _dense_diagonal(core)


def _dense_diagonal(m):
    """
    The Smith diagonal of a dense list-of-lists matrix, modified in place.

    The pivot is the least nonzero |entry|, the first in row-major
    order.  Floor division clears its column by row operations and its
    row by column operations; a nonzero remainder is smaller than the
    pivot, so the next pass pivots on a smaller entry and the loop ends.
    A pivot alone in its row and column is recorded as |pivot|, and both
    are deleted.  Last, (d_a, d_b) <- (gcd, lcm) for each a < b makes
    the record a divisor chain: diag(a, b) and diag(gcd, lcm) are
    equivalent, and the Smith form is unique.
    """
    diag = []
    while True:
        best = 0
        for r, row in enumerate(m):
            for c, v in enumerate(row):
                if v and (not best or abs(v) < best):
                    best, i, j = abs(v), r, c
        if not best:
            break
        prow = m[i]
        p = prow[j]
        for r, row in enumerate(m):
            q = row[j] // p
            if q and r != i:
                m[r] = [x - q * y for x, y in zip(row, prow)]
        quotients = [(c, v // p) for c, v in enumerate(prow) if v and c != j]
        for row in m:
            a = row[j]
            if a:
                for c, q in quotients:
                    row[c] -= q * a
        if any(row[j] for r, row in enumerate(m) if r != i) or \
           any(v for c, v in enumerate(prow) if c != j):
            continue
        diag.append(abs(p))
        del m[i]
        for row in m:
            del row[j]
    for a in range(len(diag)):
        for b in range(a + 1, len(diag)):
            g = gcd(diag[a], diag[b])
            diag[a], diag[b] = g, diag[a] // g * diag[b]
    return diag


def label_successor_pd_diagram(pd):
    """
    Compile a PDCode to a LinkDiagram.  Resolves over-strand directions by
    propagating the constraint that every edge label has exactly one head
    and one tail among the crossing slots, then checks the per-component
    consecutive-labelling convention.
    """
    if not pd.crossings:
        raise DiagramError("empty PD code has no strands; use a braid spec")
    n_edges = 2 * len(pd.crossings)
    head = {}  # edge -> crossing index where the edge points in
    tail = {}

    def set_head(e, c):
        if e in head:
            raise DiagramError("edge %d is incoming at two crossings" % e)
        head[e] = c

    def set_tail(e, c):
        if e in tail:
            raise DiagramError("edge %d is outgoing at two crossings" % e)
        tail[e] = c

    for ci, (a, bb, c, d) in enumerate(pd.crossings):
        set_head(a, ci)
        set_tail(c, ci)

    # orient the over strand of each crossing: over_dir[ci] = (in_edge, out_edge)
    over_dir = {}
    undecided = set(range(len(pd.crossings)))
    while undecided:
        progressed = False
        for ci in sorted(undecided):
            a, bb, c, d = pd.crossings[ci]
            if bb == d:
                # over strand is a closed loop through this crossing
                candidates = ((bb, bb),)
            else:
                candidates = ((bb, d), (d, bb))
            choices = []
            for oin, oout in candidates:
                if oin not in head and oout not in tail:
                    choices.append((oin, oout))
            if len(choices) == 1:
                oin, oout = choices[0]
                set_head(oin, ci)
                set_tail(oout, ci)
                over_dir[ci] = (oin, oout)
                undecided.discard(ci)
                progressed = True
            elif not choices:
                raise DiagramError(
                    "no consistent over-strand orientation at crossing %d" % ci)
        if not progressed and undecided:
            # residual symmetric choice; prefer the label-successor direction
            ci = min(undecided)
            a, bb, c, d = pd.crossings[ci]
            oin, oout = (bb, d) if d == bb + 1 else (max(bb, d), min(bb, d))
            set_head(oin, ci)
            set_tail(oout, ci)
            over_dir[ci] = (oin, oout)
            undecided.discard(ci)

    succ = {}
    for ci, (a, bb, c, d) in enumerate(pd.crossings):
        succ[a] = c
        oin, oout = over_dir[ci]
        succ[oin] = oout
    if sorted(succ) != list(range(1, n_edges + 1)):
        raise DiagramError("orientation resolution left edges unassigned")

    # components as cycles of succ; labels in a component must be consecutive
    comp_of_edge = {}
    comp_min = []
    seen = set()
    for e in range(1, n_edges + 1):
        if e in seen:
            continue
        cyc = []
        x = e
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = succ[x]
        lo, hi = min(cyc), max(cyc)
        if sorted(cyc) != list(range(lo, hi + 1)):
            raise DiagramError(
                "edge labels %s are not consecutive along one component"
                % sorted(cyc))
        for y in cyc:
            if succ[y] != (y + 1 if y < hi else lo):
                raise DiagramError(
                    "labels must step by one along each component (edge %d)" % y)
        ci = len(comp_min)
        comp_min.append(lo)
        for y in cyc:
            comp_of_edge[y] = ci
    order = sorted(range(len(comp_min)), key=lambda i: comp_min[i])
    comp_rank = {old: new for new, old in enumerate(order)}

    # arcs: merge each over edge pair; under passes keep edges separate
    arc, num_arcs = _classes(range(1, n_edges + 1), over_dir.values())
    comp_of_arc = [None] * num_arcs
    for e, i in arc.items():
        comp_of_arc[i] = comp_rank[comp_of_edge[e]]

    crossings = []
    for ci, (a, bb, c, d) in enumerate(pd.crossings):
        oin, oout = over_dir[ci]
        sign = 1 if oin == bb else -1
        crossings.append(Crossing(arc[oin], arc[a], arc[c], sign))
    return LinkDiagram(num_arcs, tuple(comp_of_arc), tuple(crossings))


def propagation_pd_diagram(pd):
    """
    Compile a PDCode to a LinkDiagram.  Resolves over-strand directions by
    propagating the constraint that every edge label has exactly one head
    and one tail among the crossing slots, then checks the per-component
    consecutive-labelling convention.
    """
    if not pd.crossings:
        raise DiagramError("empty PD code has no strands; use a braid spec")
    n_edges = 2 * len(pd.crossings)
    head = {}  # edge -> crossing index where the edge points in
    tail = {}

    def set_head(e, c):
        if e in head:
            raise DiagramError("edge %d is incoming at two crossings" % e)
        head[e] = c

    def set_tail(e, c):
        if e in tail:
            raise DiagramError("edge %d is outgoing at two crossings" % e)
        tail[e] = c

    for ci, (a, bb, c, d) in enumerate(pd.crossings):
        set_head(a, ci)
        set_tail(c, ci)

    # orient the over strand of each crossing: over_dir[ci] = (in_edge, out_edge)
    over_dir = {}
    undecided = set(range(len(pd.crossings)))
    while undecided:
        progressed = False
        for ci in sorted(undecided):
            a, bb, c, d = pd.crossings[ci]
            if bb == d:
                # over strand is a closed loop through this crossing
                candidates = ((bb, bb),)
            else:
                candidates = ((bb, d), (d, bb))
            choices = []
            for oin, oout in candidates:
                if oin not in head and oout not in tail:
                    choices.append((oin, oout))
            if len(choices) == 1:
                oin, oout = choices[0]
                set_head(oin, ci)
                set_tail(oout, ci)
                over_dir[ci] = (oin, oout)
                undecided.discard(ci)
                progressed = True
            elif not choices:
                raise DiagramError(
                    "no consistent over-strand orientation at crossing %d" % ci)
        if not progressed and undecided:
            # residual symmetric choice; prefer the label-successor
            # direction, but max -> min on a two-edge component, which
            # passes over with the same pair at both its crossings
            ci = min(undecided)
            a, bb, c, d = pd.crossings[ci]
            lo, hi = sorted((bb, d))
            twice = [sorted(x[1::2]) for x in pd.crossings].count([lo, hi]) > 1
            oin, oout = (lo, hi) if hi == lo + 1 and not (twice and bb > d) \
                else (hi, lo)
            set_head(oin, ci)
            set_tail(oout, ci)
            over_dir[ci] = (oin, oout)
            undecided.discard(ci)

    succ = {}
    for ci, (a, bb, c, d) in enumerate(pd.crossings):
        succ[a] = c
        oin, oout = over_dir[ci]
        succ[oin] = oout
    if sorted(succ) != list(range(1, n_edges + 1)):
        raise DiagramError("orientation resolution left edges unassigned")

    # components as cycles of succ; labels in a component must be consecutive
    comp_of_edge = {}
    comp_min = []
    seen = set()
    for e in range(1, n_edges + 1):
        if e in seen:
            continue
        cyc = []
        x = e
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = succ[x]
        lo, hi = min(cyc), max(cyc)
        if sorted(cyc) != list(range(lo, hi + 1)):
            raise DiagramError(
                "edge labels %s are not consecutive along one component"
                % sorted(cyc))
        for y in cyc:
            if succ[y] != (y + 1 if y < hi else lo):
                raise DiagramError(
                    "labels must step by one along each component (edge %d)" % y)
        ci = len(comp_min)
        comp_min.append(lo)
        for y in cyc:
            comp_of_edge[y] = ci
    order = sorted(range(len(comp_min)), key=lambda i: comp_min[i])
    comp_rank = {old: new for new, old in enumerate(order)}

    # arcs: merge each over edge pair; under passes keep edges separate
    arc, num_arcs = _classes(range(1, n_edges + 1), over_dir.values())
    comp_of_arc = [None] * num_arcs
    for e, i in arc.items():
        comp_of_arc[i] = comp_rank[comp_of_edge[e]]

    crossings = []
    for ci, (a, bb, c, d) in enumerate(pd.crossings):
        oin, oout = over_dir[ci]
        sign = 1 if oin == bb else -1
        crossings.append(Crossing(arc[oin], arc[a], arc[c], sign))
    return LinkDiagram(num_arcs, tuple(comp_of_arc), tuple(crossings))


def decoded_eliminate(rows, nvars):
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
        piv = next((i for i in range(k, nrows) if m[i][c].terms), None)
        if piv is None:
            continue
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            order[k], order[piv] = order[piv], order[k]
            sign = -sign
        top, lead = m[k], m[k][c]
        for row in m[k + 1:]:  # column c below the pivot is never read again
            below = row[c]
            for j in range(c + 1, ncols):
                num = mul_add(((lead, row[j], 1), (below, top[j], -1)))
                if k:  # else prev is the initial 1
                    num = exact_divide(num, prev)
                    if num is None:
                        raise ComputationError("Bareiss division failed")
                row[j] = num
        prev = lead
        pivot_cols.append(c)
        k += 1
    return k, order[:k], pivot_cols, prev, sign


def decoded_determinant(rows):
    """Exact determinant of a square matrix of LaurentPolys."""
    n = len(rows)
    if n == 0:
        raise ValueError("determinant of an empty matrix is a convention; "
                         "handle 0x0 at the call site")
    nvars = rows[0][0].nvars
    rank, _, _, pivot, sign = decoded_eliminate(rows, nvars)
    if rank < n:
        return LaurentPoly.zero(nvars)
    return -pivot if sign < 0 else pivot


def decoded_module_rank(pres):
    """
    Rank of the presentation matrix over the fraction field, with a
    witnessing set of pivot rows/columns and the corresponding nonzero
    minor.
    """
    rank, rows, cols, pivot, _ = decoded_eliminate(pres.matrix, pres.nvars)
    return RankCertificate(rank, tuple(sorted(rows)), tuple(cols), pivot)


def decoded_minor(pres, rows, cols):
    sub = [[pres.matrix[i][j] for j in cols] for i in rows]
    return decoded_determinant(sub)


def decoded_packed(block, reach):
    """
    The block's matrix as a PackedMatrix whose radius covers every
    exponent of its entries plus reach: the reduction's own if it is wide
    enough, else the entries packed anew.
    """
    matrix = block.matrix
    radius = reach + max(map(_max_exponent, matrix), default=0)
    if isinstance(matrix, PackedMatrix) and radius <= matrix.radius:
        return matrix
    return PackedMatrix.pack(matrix, block.num_generators, block.nvars,
                             radius)


def decoded_kernel_certificate(block):
    """
    The minor c of a G x G block B (G >= 2) without its last row and
    column if B's kernel y is G units, y * B = B * w = 0 and c != 0.
    Both checks run on B's packed rows (_packed), with a radius that
    covers every exponent of y_i * B_ij and B_ij * t_c: packing is then
    injective on both sums, and a wrong y is never certified by keys
    that alias.
    """
    y, g = block.kernel, block.num_generators
    if (y is None or g < 2 or block.num_relators != g or len(y) != g
            or not all(is_unit(e) and e.nvars == block.nvars for e in y)):
        return None
    packed = decoded_packed(block, max(1, _max_exponent(y)))
    total = [{} for _ in range(g)]
    for (exps, sign), row in zip((next(iter(e.terms.items())) for e in y),
                                 packed.rows):
        shift = packed.key(exps)
        for j, cell in row.items():
            column = total[j]
            for k, x in cell.items():
                column[k + shift] = column.get(k + shift, 0) + sign * x
    if (any(any(column.values()) for column in total)
            or not packed_row_relation_holds(packed, block.generator_component)):
        return None
    rows = tuple(range(g - 1))
    c = decoded_minor(block, rows, rows)
    return RankCertificate(g - 1, rows, rows, c) if c.terms else None


def decoded_block_order(block):
    """
    Torsion order of one reduced block and the path that gave it:
    "rank0" (no torsion), "shortcut" or "fallback".

    By the rank-one table of minors (module docstring) the order is the
    row side gcd_S det M[S,Q] divided by k = c / gcd_T det M[P,T].  A
    block that passes _kernel_certificate takes its minor c as the row
    side; every other block takes module_rank's certificate and the gcd
    over the C(R,r) row sets.  On a diagram-shaped block, which a kernel
    certificate's block always is, Cramer's rule gives k = w_q, or 1 on
    one component ("shortcut"); every other block takes the gcd over the
    C(G,r) column sets ("fallback").  An inexact division by k is an
    inconsistency and raises ComputationError.
    """
    cert = decoded_kernel_certificate(block)
    certified = cert is not None
    if not certified:
        cert = decoded_module_rank(block)
    r = cert.rank
    if r == 0:
        return LaurentPoly.one(block.nvars), "rank0"
    nrows, ncols = block.num_relators, block.num_generators
    rows, cols, c = cert.pivot_rows, cert.pivot_columns, cert.minor
    weights = _column_weights(block) if r == ncols - 1 else None
    shaped = weights is not None and (certified or packed_row_relation_holds(
        decoded_packed(block, 1), block.generator_component))
    # besides the certificate's: the row side, the column side
    needed = ((0 if certified else comb(nrows, r) - 1)
              + (0 if shaped else comb(ncols, r) - 1))
    if needed > FALLBACK_MINOR_BUDGET:
        raise ComputationError(
            "the torsion order needs %d minors of rank %d on a %dx%d "
            "reduced block, past its budget of %d "
            "(alexander.FALLBACK_MINOR_BUDGET)"
            % (needed, r, nrows, ncols, FALLBACK_MINOR_BUDGET))
    value = c if certified else _minor_gcd(c, (
        decoded_minor(block, s, cols) for s in combinations(range(nrows), r)
        if s != rows))
    if not shaped:
        k = exact_divide(c, _minor_gcd(c, (
            decoded_minor(block, rows, t) for t in combinations(range(ncols), r)
            if t != cols)))
    elif len(set(block.generator_component)) == 1:
        k = LaurentPoly.one(block.nvars)
    else:
        k = weights[next(j for j in range(ncols) if j not in cols)]
    if not k.is_one():  # k = 1: nothing to divide
        value = exact_divide(value, k)
        if value is None:
            raise ComputationError(
                "the minors of a %dx%d block of rank %d break the rank-one "
                "identity" % (nrows, ncols, r))
    return value, "shortcut" if shaped else "fallback"


SCREEN_POINTS = (-3, -1, 2, 5, -2, 3)


def point_values(delta):
    """
    The value at each of the SCREEN_POINTS, in their order.  The
    canonical form is a polynomial in Z[t1..tm] that no variable
    divides, so every value is an integer.
    """
    n = len(SCREEN_POINTS)
    return tuple(delta.value.evaluate(tuple(
        SCREEN_POINTS[(k + i) % n] for i in range(delta.nvars)))
        for k in range(n))


def screened(delta_j, delta_l):
    """Whether a screen point shows that Delta_L does not divide Delta_J."""
    for x, y in zip(point_values(delta_l), point_values(delta_j)):
        if y % x if x else y:
            return True
    return False

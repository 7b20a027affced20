"""
Rank and torsion order of the module presented by a Fox Jacobian.

Let M be the cokernel of the Jacobian (free module on the generators
modulo the row space): the rel-basepoint Alexander module of the link.
Writing r for the rank of the matrix over the fraction field, the order
of the torsion submodule of M is the gcd of all r x r minors.  Two
standard facts back this computation up (and are exercised by the oracle
test suite rather than assumed silently): the torsion of M agrees with
the torsion of the first homology of the universal abelian cover, since
their quotient embeds in a free module; and over a Noetherian UFD the
gcd of the rank-indexed Fitting ideal is the order of the torsion
submodule.

torsion_order first shrinks the matrix.  Every entry that is a unit
(±monomial) can serve as a pivot that eliminates its row and column, a
Tietze move that keeps the elementary ideals (Crowell-Fox, ch. VII-VIII);
Wirtinger rows hold units, so a 20 x 20 Jacobian typically shrinks to a
few rows.  The reduced matrix then splits into the connected blocks of
its nonzero pattern.  The module is the direct sum of the blocks'
modules, so the torsion order is the product of the blocks' orders, each
computed on its own small matrix.

On a block M of rank r the r x r minors form a table of rank one: M is
A * B with A of r columns over the fraction field, so by Cauchy-Binet
det M[S,T] * c = det M[S,Q] * det M[P,T] for all r-row sets S and
r-column sets T, where P, Q and c = det M[P,Q] are the rank
certificate's rows, columns and minor.  So the gcd of all minors is
gcd_S det M[S,Q] * gcd_T det M[P,T] / c, exactly, from C(R,r) + C(G,r)
- 1 minors in place of C(R,r) * C(G,r).

On a diagram-shaped block (r = G - 1, and every row satisfies the Fox
row relation M * w = 0, w_j = t_comp(j) - 1) the column side needs no
minor.  c != 0 makes M[P, :] of rank G - 1, so its kernel is spanned by
w, and by Cramer's rule its signed column-deleted minors are ±lambda *
w_j.  With two or more components some w_j is coprime to w_q (q the
column outside Q), so lambda lies in the ring, gcd_T det M[P,T] =
lambda and k = c / lambda = w_q; on one component every such minor is
±c and k = 1.

A braid closure's Jacobian comes with a left kernel vector y of units
(linkcodec.braid_closure), which unit-pivot steps and restriction to a
block's rows keep.  On a G x G block B with y * B = 0 and B * w = 0,
y != 0 bounds the rank by G - 1; at rank G - 1 adj(B) = mu * w * y^T,
so each (G - 1)-minor c is ±mu * w_q * y_p, zero exactly when the rank
is lower.  The y_p being units, c alone is the row side.

All other elimination is fraction-free (Bareiss) and goes through one
routine, _eliminate, which module_rank, determinant and every minor
call: every division performed is exact in the Laurent ring, so no
rational-function arithmetic is needed.  Everything from the Jacobian to
the blocks' minors runs on the integer keys of foxcalc.PackedMatrix
rows: the unit-pivot reduction, the kernel certificate's checks, and
each Bareiss numerator a*b - c*d and its exact division, which is
laurent.divide_cells, the keyed division behind laurent.exact_divide.
A block's LaurentPolys are only what leaves this stage: the minors
whose gcd is taken, the rank certificates' minors, and its order, which
laurent.exact_divide gives from them.

Convention: the gcd of the empty set of 0 x 0 minors is 1, so a module
with no torsion (the unlink, or a split union of unknots) gets
Delta = 1, not the classical Delta = 0.  A split link gets the product
of the orders of its split pieces.
"""

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations
from math import comb, gcd
from typing import Tuple

from . import laurent
from .laurent import (ComputationError, LaurentPoly, canonical, divide_cells,
                      exact_divide)
from .foxcalc import (AlexanderPresentation, PackedMatrix, _max_exponent,
                      jacobian)
from .wirtinger import wirtinger_presentation


# every polynomial's one cached value is taken at t_i = XI + 1009*i^2 + i,
# i from 0, so a knot's at t = XI: past the roots of every polynomial
# whose coefficients are below 2^31 in absolute value, as obstruct's
# one-point gcd test needs; its screen reads the same value.  Quadratic
# offsets keep factors such as t_i - t_j and t1*t3 - t2^2 from taking
# small values there.  It shows every ordered pair of distinct values
# that does not divide: 2,059 over the bundled tables, perfbench's
# table_pairs CSVs and tools/same_output.py's closures and CSVs, where
# t_i = XI + i misses 9 and t_i = XI 37, and 1,107 over random.Random(7)'s
# 600 closures of 2-5 strands and 4-12 letters, where they miss 15 and 102.
XI = 2 ** 32

# most r x r minors evaluated on one reduced block besides its rank
# certificate's: the row side's C(R,r) - 1 (none on a kernel
# certificate) and, off a diagram-shaped block, the column side's C(G,r) - 1
FALLBACK_MINOR_BUDGET = 10000


@dataclass(frozen=True)
class RankCertificate:
    rank: int
    pivot_rows: Tuple[int, ...]
    pivot_columns: Tuple[int, ...]
    minor: LaurentPoly  # nonzero determinant of the witnessed submatrix

    def __post_init__(self):
        if self.rank and self.minor.is_zero():
            raise ComputationError("rank certificate carries a zero minor")


@dataclass(frozen=True)
class AlexanderPolynomial:
    value: LaurentPoly  # canonical form, never zero
    nvars: int
    source: dict = field(compare=False, default_factory=dict)

    @cached_property
    def text(self):
        """The value in the exchange format, rendered once."""
        return laurent.poly_to_str(self.value)

    @cached_property
    def json_text(self):
        """The text as a JSON string, encoded once."""
        return json.dumps(self.text)

    @cached_property
    def xi_value(self):
        """
        The value at t_i = XI + 1009*i^2 + i (t = XI in one variable), the
        content and the largest |coefficient|: the one integer that
        obstruct's screen and its one-point gcd test read.  The
        canonical form is a polynomial in Z[t1..tm] that no variable
        divides, so the value is an integer.
        """
        coeffs = self.value.terms.values()
        return (self.value.evaluate(tuple(XI + 1009 * i * i + i
                                          for i in range(self.nvars))),
                gcd(*coeffs), max(map(abs, coeffs)))

    def __str__(self):
        return self.text


def _eliminate(packed, rows=None, cols=None):
    """
    Fraction-free (Bareiss) row echelon form of the rows x cols submatrix
    of a PackedMatrix (by default all of it, columns in order), the one
    elimination routine of this module.  Pivots on rows, column by
    column; a column with no nonzero entry left is skipped.

    Returns (rank, pivot rows, pivot columns, last pivot, sign).  The
    pivot rows are in the order the swaps left them; the last pivot, a
    packed cell, is the determinant of the pivot rows x pivot columns
    submatrix in that row order, so of a square matrix of full rank it
    is the determinant times sign, the parity of the row swaps.

    Every update a*b - c*d is built on the packed keys and divided by the
    previous pivot exactly (laurent.divide_cells, the one keyed division,
    which exact_divide calls too).  Each entry is then a minor of the
    submatrix, so its exponents lie within the matrix's bound h, and a
    numerator, a product of two minors, within 2h, its radius.
    Packing is injective on both, so every zero test is exact, and a
    quotient whose exponents lie within h is the true one: its product
    with the pivot lies within 2h too and packs to the numerator's keys.
    """
    rows = range(len(packed.rows)) if rows is None else rows
    cols = range(packed.ncols) if cols is None else cols
    keep = set(cols)
    m = [{j: cell for j, cell in packed.rows[i].items() if j in keep}
         for i in rows]
    n = len(m)
    order = list(rows)
    pivot_cols = []
    prev = {0: 1}
    sign = 1
    k = 0
    for c in cols:
        if k == n:
            break
        piv = next((i for i in range(k, n) if c in m[i]), None)
        if piv is None:
            continue
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            order[k], order[piv] = order[piv], order[k]
            sign = -sign
        top = m[k]
        lead = top.pop(c)  # column c below the pivot is never read again
        for i in range(k + 1, n):
            row = m[i]
            below = row.pop(c, None)
            new = {}
            for j in (row.keys() | top.keys()) if below else row:
                num = {}
                get = num.get
                cell = row.get(j)
                if cell:
                    for k1, x1 in lead.items():
                        for k2, x2 in cell.items():
                            num[k1 + k2] = get(k1 + k2, 0) + x1 * x2
                cell = below and top.get(j)
                if cell:
                    for k1, x1 in below.items():
                        for k2, x2 in cell.items():
                            num[k1 + k2] = get(k1 + k2, 0) - x1 * x2
                num = {key: x for key, x in num.items() if x}
                if num and k:  # else prev is the initial 1
                    num = divide_cells(num, prev, packed)
                    if num is None:
                        raise ComputationError("Bareiss division failed")
                if num:
                    new[j] = num
            m[i] = new
        prev = lead
        pivot_cols.append(c)
        k += 1
    return k, order[:k], pivot_cols, prev, sign


def _det(packed, rows, cols):
    """The square rows x cols minor of a PackedMatrix, decoded."""
    rank, _, _, pivot, sign = _eliminate(packed, rows, cols)
    if rank < len(rows):
        return LaurentPoly.zero(packed.nvars)
    pivot = packed.poly(pivot)
    return -pivot if sign < 0 else pivot


def determinant(rows):
    """Exact determinant of a square matrix of LaurentPolys."""
    n = len(rows)
    if n == 0:
        raise ValueError("determinant of an empty matrix is a convention; "
                         "handle 0x0 at the call site")
    pres = AlexanderPresentation.of(rows, rows[0][0].nvars, (0,) * n)
    return _det(pres.matrix, range(n), range(n))


def module_rank(pres):
    """
    Rank of the presentation matrix over the fraction field, with a
    witnessing set of pivot rows/columns and the corresponding nonzero
    minor.

    >>> from .linkcodec import parse_link_spec
    >>> from .wirtinger import wirtinger_presentation
    >>> from .foxcalc import jacobian
    >>> A = jacobian(*wirtinger_presentation(parse_link_spec("braid:n=2:")))
    >>> module_rank(A).rank
    0
    """
    rank, rows, cols, pivot, _ = _eliminate(pres.matrix)
    return RankCertificate(rank, tuple(sorted(rows)), tuple(cols),
                           pres.matrix.poly(pivot))


def _column_weights(pres):
    """u_j = t_{comp(j)} - 1, the weights in the Fox column relation."""
    zero = (0,) * pres.nvars
    weight = {c: LaurentPoly._make(pres.nvars, {
        zero[:c] + (1,) + zero[c + 1:]: 1, zero: -1})
        for c in set(pres.generator_component)}
    return [weight[c] for c in pres.generator_component]


def _row_relation_holds(packed, components):
    """
    Whether each row satisfies sum_j entry_j * (t_{comp(j)} - 1) = 0, as
    every relator dies under the abelianization, on a PackedMatrix whose
    radius covers its exponents plus 1.
    """
    shift = [packed.key((0,) * c + (1,)) for c in components]
    for row in packed.rows:
        total = {}
        get = total.get
        for j, cell in row.items():
            s = shift[j]
            for k, x in cell.items():
                total[k + s] = get(k + s, 0) + x
                total[k] = get(k, 0) - x
        if any(total.values()):
            return False
    return True


def torsion_order(pres, source=None):
    """
    Order of the torsion submodule of the presented module: the gcd of
    all rank x rank minors of the matrix, canonicalized.  Raises
    ComputationError if a block would pass the minor budget or its
    minors break the rank-one identity (an inconsistency: a row side
    that k, Cramer's w_q or the column side's, does not divide).

    The matrix is reduced at unit pivots and split into blocks first
    (see the module docstring); each block's order comes from
    _block_order.  source, a dict of provenance, is returned in the
    result's source together with "blocks": the rows, columns and path
    of every reduced block.
    """
    nvars = pres.nvars
    value = LaurentPoly.one(nvars)
    blocks = []
    for block in _reduced_blocks(pres):
        order, path = _block_order(block)
        value = value * order
        blocks.append({"rows": block.num_relators,
                       "columns": block.num_generators, "path": path})
    return AlexanderPolynomial(canonical(value), nvars,
                               dict(source or {}, blocks=blocks))


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

    All of it runs on the matrix's packed rows (foxcalc.PackedMatrix),
    the Jacobian's or those AlexanderPresentation.of packed.  After
    pivots on rows P and columns Q a minor of the rest is det M[P+S,
    Q+T] / det M[P, Q], the divisor a unit; with rho_i row i's largest
    |exponent|, the dividend's exponents lie within sum_i rho_i and the
    unit's within the same sum, so every minor of a block lies within h
    = 2 * sum_i rho_i (at most twice the relators' total length on a
    Jacobian).  The blocks keep the matrix's radius 2h.
    """
    matrix = pres.matrix
    rows = {}
    cols = {j: set() for j in range(pres.num_generators)}
    units = set()
    for i, row in enumerate(matrix.rows):
        if row:  # cells change in place below: the input keeps its own
            rows[i] = {j: dict(cell) for j, cell in row.items()}
        for j, cell in row.items():
            cols[j].add(i)
            if len(cell) == 1 and abs(next(iter(cell.values()))) == 1:
                units.add((i, j))

    while units:
        _, p, c = min([((len(rows[i]) - 1) * (len(cols[j]) - 1), i, j)
                       for i, j in units])
        pivot_row = rows.pop(p)
        (key, coeff), = pivot_row.pop(c).items()
        for j in pivot_row:
            cols[j].discard(p)
            units.discard((p, j))
        units.discard((p, c))
        for i in sorted(cols.pop(c) - {p}):
            row = rows[i]
            units.discard((i, c))
            # row -= row[c] * pivot^-1 * pivot_row, pivot^-1 = coeff * t^-key
            factor = [(k - key, -coeff * x) for k, x in row.pop(c).items()]
            for j, e in pivot_row.items():
                cell = row.setdefault(j, {})
                get = cell.get
                for k1, x1 in factor:
                    for k2, x2 in e.items():
                        s = get(k1 + k2, 0) + x1 * x2
                        if s:
                            cell[k1 + k2] = s
                        else:
                            del cell[k1 + k2]
                if not cell:
                    del row[j]
                    cols[j].discard(i)
                    units.discard((i, j))
                    continue
                cols[j].add(i)
                if len(cell) == 1 and abs(next(iter(cell.values()))) == 1:
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
        at = {j: n for n, j in enumerate(block_cols)}
        packed = PackedMatrix(
            [{at[j]: cell for j, cell in rows[i].items()} for i in block_rows],
            len(block_cols), pres.nvars, matrix.radius)
        blocks.append(AlexanderPresentation(
            packed, pres.nvars,
            tuple(pres.generator_component[j] for j in block_cols),
            pres.kernel and tuple(pres.kernel[i] for i in block_rows)))
    return blocks


def _block_order(block):
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
    cert = _kernel_certificate(block)
    certified = cert is not None
    if not certified:
        cert = module_rank(block)
    r = cert.rank
    if r == 0:
        return LaurentPoly.one(block.nvars), "rank0"
    nrows, ncols = block.num_relators, block.num_generators
    rows, cols, c = cert.pivot_rows, cert.pivot_columns, cert.minor
    weights = _column_weights(block) if r == ncols - 1 else None
    shaped = weights is not None and (certified or _row_relation_holds(
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


def _kernel_certificate(block):
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
            or not all(e.is_unit() and e.nvars == block.nvars for e in y)):
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
            or not _row_relation_holds(packed, block.generator_component)):
        return None
    rows = tuple(range(g - 1))
    c = _det(packed, rows, rows)
    return RankCertificate(g - 1, rows, rows, c) if c.terms else None


def _minor_gcd(first, minors):
    """
    gcd of the nonzero first and the minors, canonical.  A gcd is taken
    only for a nonzero minor whose canonical form differs from the
    running value, and the loop stops once that value is 1.
    """
    running = canonical(first)
    for d in minors:
        if d.terms and canonical(d) != running:
            running = laurent.gcd(running, d)
            if running.is_one():
                break
    return running


def alexander_polynomial(diagram):
    """
    End-to-end pipeline: Wirtinger presentation, Fox Jacobian, torsion
    order.  Deterministic for a fixed input encoding.

    >>> from .linkcodec import parse_link_spec
    >>> print(alexander_polynomial(parse_link_spec("braid:n=2:1 1 1")))
    t^2 - t + 1
    >>> print(alexander_polynomial(parse_link_spec("braid:n=2:")))
    1
    """
    pres, phi = wirtinger_presentation(diagram)
    A = jacobian(pres, phi)
    if diagram.kernel and len(diagram.kernel) == len(pres.relators):
        A = replace(A, kernel=tuple(LaurentPoly.monomial(1, e)
                                    for e in diagram.kernel))
    source = {"generators": pres.num_generators,
              "relators": len(pres.relators)}
    return torsion_order(A, source)

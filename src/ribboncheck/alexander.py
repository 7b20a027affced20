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

All other elimination is fraction-free (Bareiss) and goes through one
routine, _eliminate, which both module_rank and determinant call: every
division performed is exact in the Laurent ring, so no rational-function
arithmetic is needed.  Each update of either elimination, x - f*g at a
unit pivot and the Bareiss numerator a*b - c*d, is one laurent.mul_add
call, which builds no intermediate polynomial.

Convention: the gcd of the empty set of 0 x 0 minors is 1, so a module
with no torsion (the unlink, or a split union of unknots) gets
Delta = 1, not the classical Delta = 0.  A split link gets the product
of the orders of its split pieces.
"""

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Tuple

from . import laurent
from .laurent import (ComputationError, LaurentPoly, canonical,
                      exact_divide, mul_add)
from .foxcalc import AlexanderPresentation, jacobian
from .wirtinger import wirtinger_presentation


# most r x r minors the last-resort fallback evaluates on one reduced block
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

    def __str__(self):
        return self.text


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


def determinant(rows):
    """Exact determinant of a square matrix of LaurentPolys."""
    n = len(rows)
    if n == 0:
        raise ValueError("determinant of an empty matrix is a convention; "
                         "handle 0x0 at the call site")
    nvars = rows[0][0].nvars
    rank, _, _, pivot, sign = _eliminate(rows, nvars)
    if rank < n:
        return LaurentPoly.zero(nvars)
    return -pivot if sign < 0 else pivot


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
    rank, rows, cols, pivot, _ = _eliminate(pres.matrix, pres.nvars)
    return RankCertificate(rank, tuple(sorted(rows)), tuple(cols), pivot)


def _minor(pres, rows, cols):
    sub = [[pres.matrix[i][j] for j in cols] for i in rows]
    return determinant(sub)


def _column_weights(pres):
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


def torsion_order(pres, source=None):
    """
    Order of the torsion submodule of the presented module: the gcd of
    all rank x rank minors of the matrix, canonicalized.  Raises
    ComputationError if a gcd computes to zero (a rank miscount) or the
    fallback would pass its budget.

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
                v = mul_add(((factor, e, -1),), row.get(j))
                if not v.terms:
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
    digest = hashlib.sha256(repr(diagram.key()).encode()).hexdigest()[:12]
    source = {"diagram": digest,
              "generators": pres.num_generators,
              "relators": len(pres.relators)}
    return torsion_order(A, source)

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

All elimination is fraction-free (Bareiss) and goes through one routine,
_eliminate, which both module_rank and determinant call: every division
performed is exact in the Laurent ring, so no rational-function
arithmetic is needed.

Convention: the gcd of the empty set of 0 x 0 minors is 1, so split
links and unlinks get Delta = 1 (the order of the trivial torsion
module), not the classical Delta = 0.
"""

import hashlib
from dataclasses import dataclass, field
from itertools import combinations
from typing import Tuple

from . import laurent
from .laurent import LaurentPoly, canonical, exact_divide
from .foxcalc import jacobian
from .wirtinger import wirtinger_presentation


class ComputationError(RuntimeError):
    """Internal inconsistency, e.g. a rank certificate contradicted later."""


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

    def __str__(self):
        return laurent.poly_to_str(self.value)


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
    zero = LaurentPoly.zero(pres.nvars)
    for row in pres.matrix:
        total = zero
        for e, u in zip(row, weights):
            total = total + e * u
        if not total.is_zero():
            return False
    return True


def torsion_order(pres, source=None):
    """
    Order of the torsion submodule of the presented module: the gcd of
    all rank x rank minors of the matrix, canonicalized.  Raises
    ComputationError if the gcd computes to zero (a rank miscount).

    Diagram-shaped presentations (rank = generators - 1, Fox column
    relation holding row-wise) admit the classical shortcut: on an
    independent row set the signed column-deleted minors span the
    kernel of the matrix, which contains the weight vector
    (t_{comp(j)} - 1)_j, so M_j = ±lambda * (t_{comp(j)} - 1).  For
    knots all weights agree and Delta is a single minor; for links
    Delta is a single minor divided by its weight.  A second column is
    always evaluated as a consistency guard, with full minor
    enumeration as the fallback.
    """
    cert = module_rank(pres)
    r = cert.rank
    nvars = pres.nvars
    if r == 0:
        value = LaurentPoly.one(nvars)
    else:
        value = None
        if r == pres.num_generators - 1 and pres.num_relators >= r:
            weights = _column_weights(pres)
            if _row_relation_holds(pres, weights):
                value = _classical_delta(pres, cert, weights)
        if value is None:
            value = _full_minor_gcd(pres, r)
    if value.is_zero():
        raise ComputationError(
            "all %dx%d minors vanish although rank is %d" % (r, r, r))
    delta = canonical(value)
    return AlexanderPolynomial(delta, nvars, source or {})


def _column_deleted_minor(pres, rows, skip_col):
    cols = [j for j in range(pres.num_generators) if j != skip_col]
    return _minor(pres, rows, cols)


def _classical_delta(pres, cert, weights):
    """Single-minor evaluation with a guard column; None if the shape lies."""
    g = pres.num_generators
    missing = next(j for j in range(g) if j not in cert.pivot_columns)
    first = cert.minor  # determinant of pivot rows x pivot columns, up to sign
    comp_missing = pres.generator_component[missing]
    if pres.nvars == 1:
        candidate = first
        guard_col = next(j for j in range(g) if j != missing)
        guard = _column_deleted_minor(pres, cert.pivot_rows, guard_col)
        if canonical(guard) != canonical(candidate):
            return None
        return candidate
    guard_col = next((j for j in range(g)
                      if pres.generator_component[j] != comp_missing), None)
    if guard_col is None:
        return None
    candidate = exact_divide(first, weights[missing])
    guard_minor = _column_deleted_minor(pres, cert.pivot_rows, guard_col)
    guard = exact_divide(guard_minor, weights[guard_col])
    if candidate is None or guard is None:
        return None
    if canonical(guard) != canonical(candidate):
        return None
    return candidate


def _full_minor_gcd(pres, r):
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

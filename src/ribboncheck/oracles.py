"""
Independent verification of computed link polynomials.

Three cross-checks that share no code path with the Fox-calculus
pipeline:

* Reidemeister-Schreier rewriting presents the fundamental group of the
  k-fold cyclic cover of a knot exterior; integer Smith normal form of
  its abelianized relation matrix gives H_1 of the cover directly.  The
  k rewritten copies of a relator are cyclic shifts of one another, so
  each relator is kept once, as its Fox derivatives in Z[t^±1], built
  once per knot for every k: a unit entry ±t^j eliminates a generator,
  Fox's fundamental formula makes x1's column redundant, and each k
  only folds the rest mod t^k - 1 (at most 15 x 11 for the bundled
  knots at k = 2, 3, 5, from 49 x 45 with every column).  The Smith form
  is one loop on sparse rows: it pivots on a +-1 where a row holds one
  and on the least entry otherwise, clears the pivot's column and row
  by division with remainder, and makes the diagonal a divisor chain
  by gcd and lcm.  The orbits are plain integer dicts and the
  Smith form works on plain integers: neither laurent nor foxcalc takes
  part, so a fault there cannot hide in both routes.

* The classical finite-cover order formula: the torsion of the k-fold
  cover has order |prod_{j=1}^{k-1} Delta(zeta_k^j)|, the norm of Delta
  in Z[t]/(Psi_k), Psi_k = 1 + t + ... + t^(k-1): the determinant of
  multiplication by Delta on the basis 1, t, ..., t^(k-2), a
  (k-1) x (k-1) integer matrix of cyclic shifts of Delta's coefficients
  folded mod k, and the resultant of the monic Psi_k with Delta.  It
  reads Delta's terms and calls nothing in laurent.  No floating point
  anywhere; the two integers must agree exactly.  For prime k the right
  side never vanishes for a knot polynomial, since Delta(1) = ±1 rules
  out the k-th cyclotomic factor.  For composite k it vanishes when
  Delta shares a root with t^k - 1 (the trefoil at k = 6); the cover
  then has free rank above 1 instead.

* The Torres condition ties a 2-component link polynomial at t2 = 1 to
  the first component's polynomial and the linking number.

The cover computed here is the cover of the exterior (unbranched), whose
torsion agrees with the branched cover's H_1 for knots; the comparison
is of torsion parts, with the free rank checked alongside.
"""

from functools import lru_cache
from math import gcd, prod
from typing import NamedTuple, Tuple

from .laurent import LaurentPoly, canonical
from .linkcodec import DiagramError, linking_number, sublink
from .alexander import alexander_polynomial
from .wirtinger import apply_phi


class AbelianGroupInvariants(NamedTuple("AbelianGroupInvariants", [
        ("free_rank", int), ("torsion_factors", Tuple[int, ...])])):
    """Free rank and invariant-factor chain d1 | d2 | ... (each >= 2)."""
    __slots__ = ()

    def __new__(cls, free_rank, torsion_factors):
        for a, b in zip(torsion_factors, torsion_factors[1:]):
            if b % a:
                raise ValueError("invariant factors must form a chain")
        if any(d < 2 for d in torsion_factors):
            raise ValueError("torsion factors must be >= 2")
        return super().__new__(cls, free_rank, torsion_factors)

    def torsion_order(self):
        return prod(self.torsion_factors)


def smith_normal_form(matrix):
    """
    Diagonalize an integer matrix by unimodular row/column operations and
    return the nonzero diagonal d1 | d2 | ... (unit entries included, so
    the length of the result is the rank).  A row is a list of entries
    or a dict {column: entry}; either is copied into a dict of its
    nonzero entries, as ints (ValueError if not integral), and the rows
    stay sparse, with a column -> rows index, to the end.

    Each pivot is a +-1 of the shortest row that holds one, at its
    sparsest such column, or else the least nonzero |entry|.  Floor
    division clears the pivot's column by row operations; the least
    nonzero remainder, smaller than the pivot, becomes the next one.  Then
    the pivot row is the only row in that column, so the column
    operations that clear the row touch that row alone: each entry
    becomes its remainder mod the pivot, and again the least nonzero
    remainder is the next pivot.  A pivot alone in its row and column is
    recorded, and both are deleted.  Last, (d_a, d_b) <- (gcd, lcm) for
    each a < b among the pivots other than +-1 makes the record a
    divisor chain: diag(a, b) and diag(gcd, lcm) are equivalent, and the
    Smith form is unique.

    >>> smith_normal_form([[2, 4], [6, 8]])
    [2, 4]
    >>> smith_normal_form([[0, 0]]) == smith_normal_form([]) == []
    True
    >>> smith_normal_form([[1, 2], [3, 4]])
    [1, 2]
    >>> smith_normal_form([{0: 2, 5: 4}, {0: 6, 5: 8}])
    [2, 4]
    """
    rows = {}  # row id -> {column: nonzero value}
    cols = {}  # column -> ids of the rows that use it
    for i, row in enumerate(matrix):
        r = {j: v for j, v in (row.items() if isinstance(row, dict)
                               else enumerate(row)) if v}
        if not {*map(type, r.values())} <= {int}:  # bool, Fraction, float...
            if any(int(v) != v for v in r.values()):
                raise ValueError("non-integral entry in row %d" % i)
            r = {j: int(v) for j, v in r.items()}
        if r:
            rows[i] = r
            for j in r:
                cols.setdefault(j, set()).add(i)
    units = 0
    diag = []
    while rows:
        # one pass: the unit pivot, and until one turns up the least entry
        piv, size, least = None, 0, None
        for i, r in rows.items():
            if piv is not None and len(r) >= size:
                continue
            for j, v in r.items():
                if v == 1 or v == -1:
                    if piv is None or piv[0] != i or (
                            len(cols[j]) < len(cols[piv[1]])):
                        piv, size = (i, j), len(r)
                elif piv is None and (least is None or abs(v) < least[0]):
                    least = abs(v), i, j
        p, c = piv or least[1:]
        while True:
            prow = rows[p]
            d = prow[c]
            left = []  # rows with a remainder in column c
            for i in cols[c] - {p}:
                r = rows[i]
                f = r[c] // d
                if f:
                    for j, v in prow.items():
                        w = r.get(j, 0) - f * v
                        if w:
                            r[j] = w
                            cols[j].add(i)
                        else:
                            del r[j]
                            cols[j].discard(i)
                if c in r:
                    left.append(i)
                elif not r:
                    del rows[i]
            if left:
                p = min(left, key=lambda i: abs(rows[i][c]))
                continue
            rest = {j: v % d for j, v in prow.items() if j != c and v % d}
            if not rest:
                break
            for j in prow.keys() - rest.keys() - {c}:
                cols[j].discard(p)
            rows[p] = {c: d, **rest}
            c = min(rest, key=lambda j: abs(rest[j]))
        del rows[p]
        for j in prow:
            cols[j].discard(p)
        if d in (1, -1):
            units += 1
        else:
            diag.append(abs(d))
    for a in range(len(diag)):
        for b in range(a + 1, len(diag)):
            g = gcd(diag[a], diag[b])
            diag[a], diag[b] = g, diag[a] // g * diag[b]
    return [1] * units + diag


def abelian_invariants(matrix, num_generators):
    """
    Invariants of Z^num_generators modulo the row span of the matrix:
    the diagonal's length is the relation rank, its nontrivial entries
    the torsion chain.
    """
    diag = smith_normal_form(matrix)
    factors = tuple(d for d in diag if d > 1)
    return AbelianGroupInvariants(num_generators - len(diag), factors)


def reidemeister_schreier(pres, phi, k):
    """
    H_1 of the k-fold cyclic cover of a knot exterior, from Schreier
    rewriting of the index-k subgroup phi^-1(kZ) with transversal
    x1^0, ..., x1^(k-1), followed by integer Smith normal form.

    Every letter moves the coset by +-1, so the k rewritten copies of a
    relator are cyclic shifts of one another: the relator rewritten from
    coset 0 with integer cosets (its orbit) holds its Fox derivatives in
    Z[t^+-1], and folding them mod t^k - 1 gives the copies.  Fox's
    fundamental formula, sum_j (dr/dx_j)(x_j - 1) = r - 1, with every
    x_j sent to t makes sum_j dr/dx_j = 0 for every relator, before
    folding and after.  The k - 1 transversal rows kill x1's columns
    at cosets 0, ..., k - 2, and the identity makes the one left minus
    the sum of the other generators' columns at coset k - 1: a column
    operation clears it, a free Z.  So x1 is never rewritten and the
    transversal rows are never built.  The k-free work is done once per
    presentation (_relator_module, a one-entry memo, so the degrees of
    one oracle-check share it); per k the orbits are only folded into
    k shifted integer rows each, at most 15 x 11 for the bundled knots
    at k = 2, 3, 5, and those sparse rows are the Smith form's input as
    they are, at every k.  The orbits are integer dicts, not laurent
    polynomials, so this route shares no code with the Fox pipeline
    that it checks.

    Returns AbelianGroupInvariants.
    """
    if phi.num_components != 1:
        raise DiagramError("cyclic-cover rewriting supports knots only")
    if k < 2:
        raise ValueError("cover degree must be at least 2")
    if pres.num_generators == 0:
        raise DiagramError("presentation has no generators")
    columns, orbits = _relator_module(pres, phi)
    rows = []
    for orbit in orbits:
        folded = {}
        for i, c, v in orbit:
            folded[i, c % k] = folded.get((i, c % k), 0) + v
        rows.extend({i * k + (c + s) % k: v for (i, c), v in folded.items()}
                    for s in range(k))
    return abelian_invariants(rows, k * columns + 1)


@lru_cache(maxsize=1)
def _relator_module(pres, phi):
    """
    The relator module over Z[t^+-1] with x1's column left out, as
    (number of columns, orbits); an orbit is a tuple of (column,
    exponent, coefficient) triples.  Where an orbit holds +-t^j at a
    generator, that entry is a unit, and stays one mod t^k - 1:
    subtracting multiples of the orbit clears the generator from every
    other orbit, and the orbit and the generator's columns split off as
    unit factors of the Smith form at every k.  An orbit that is +-t^a
    times an earlier one is dropped, since its shifts are +- copies of
    the earlier one's.  The value is shared by every call: read-only.
    """
    orbits = []  # the relators rewritten from coset 0, without folding
    for rel in pres.relators:
        if any(apply_phi(rel, phi)):
            raise DiagramError("relator does not vanish under phi")
        orbit = {}
        coset = 0
        for gen, e in rel:
            if e == -1:
                coset -= 1
            if gen:
                entry = orbit.setdefault(gen, {})
                entry[coset] = entry.get(coset, 0) + e
            if e == 1:
                coset += 1
        for gen in list(orbit):
            orbit[gen] = {c: v for c, v in orbit[gen].items() if v}
            if not orbit[gen]:
                del orbit[gen]
        if orbit:
            orbits.append(orbit)

    gone = set()  # generators whose columns split off
    while True:
        # the first orbit with a unit entry
        piv = next(((i, gen) for i, orbit in enumerate(orbits)
                    for gen, entry in orbit.items() if len(entry) == 1
                    and next(iter(entry.values())) in (1, -1)), None)
        if piv is None:
            break
        i, x = piv
        pivot = orbits.pop(i)
        gone.add(x)
        ((j, e),) = pivot.pop(x).items()
        for orbit in orbits:
            f = orbit.pop(x, None)
            if f is None:
                continue
            # orbit -= f * e * t^-j * pivot
            for gen, entry in pivot.items():
                target = orbit.setdefault(gen, {})
                for c, a in f.items():
                    for d, b in entry.items():
                        pos = c - j + d
                        w = target.get(pos, 0) - e * a * b
                        if w:
                            target[pos] = w
                        else:
                            del target[pos]
                if not target:
                    del orbit[gen]
        orbits = [orbit for orbit in orbits if orbit]

    column = {gen: i for i, gen in enumerate(
        gen for gen in range(1, pres.num_generators) if gen not in gone)}
    module = {}  # orbit normalized to least exponent 0, first entry > 0
    for orbit in orbits:
        terms = sorted((column[gen], c, v)
                       for gen, entry in orbit.items() for c, v in entry.items())
        low = min(c for _, c, _ in terms)
        sign = 1 if terms[0][2] > 0 else -1
        module.setdefault(tuple((i, c - low, sign * v) for i, c, v in terms))
    return len(column), tuple(module)


def _int_det(rows):
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for kk in range(n - 1):
        piv = next((i for i in range(kk, n) if m[i][kk]), None)
        if piv is None:
            return 0
        if piv != kk:
            m[kk], m[piv] = m[piv], m[kk]
            sign = -sign
        for i in range(kk + 1, n):
            for j in range(kk + 1, n):
                m[i][j] = (m[kk][kk] * m[i][j] - m[i][kk] * m[kk][j]) // prev
            m[i][kk] = 0
        prev = m[kk][kk]
    return sign * m[n - 1][n - 1]


def cover_torsion_from_polynomial(delta, k):
    """
    |prod_{j=1}^{k-1} Delta(zeta_k^j)| as an exact integer: the norm of
    Delta in Z[t]/(Psi_k), Psi_k = 1 + t + ... + t^(k-1), which is the
    determinant of multiplication by Delta on the basis 1, t, ...,
    t^(k-2), and the resultant of the monic Psi_k with Delta.

    >>> from .laurent import parse_poly
    >>> cover_torsion_from_polynomial(parse_poly("t^2 - t + 1", 1), 2)
    3
    >>> cover_torsion_from_polynomial(parse_poly("t^2 - t + 1", 1), 3)
    4
    """
    if delta.nvars != 1:
        raise ValueError("cover order formula needs a one-variable polynomial")
    if not delta.terms:
        raise ValueError("zero polynomial has no cover order")
    if k < 2:
        raise ValueError("cover degree must be at least 2")
    # Delta in Z[t]/(t^k - 1), where t^k = 1: exponents, negative ones
    # too, fold mod k (a shift by t^a would change only the sign)
    v = [0] * k
    for (e,), c in delta.terms.items():
        v[e % k] += c
    # row i is t^i * Delta, reduced by t^(k-1) = -(1 + t + ... + t^(k-2))
    return abs(_int_det([[v[(j - i) % k] - v[(k - 1 - i) % k]
                          for j in range(k - 1)] for i in range(k - 1)]))


def cyclic_cover_check(delta, k, invariants):
    """
    True iff the cover agrees with the resultant.  `delta` is the Fox
    pipeline's AlexanderPolynomial, `invariants` reidemeister_schreier's
    at the same k.  A nonzero resultant must equal the cover's torsion
    order, with free rank 1; a vanishing one (Delta shares a root with
    t^k - 1, which needs composite k) must come with free rank above 1.
    """
    order = cover_torsion_from_polynomial(delta.value, k)
    if order == 0:
        return invariants.free_rank > 1
    return invariants.free_rank == 1 and order == invariants.torsion_order()


class TorresReport(NamedTuple):
    status: str  # "pass", "fail", or "degenerate"
    linking: int
    link_delta_at_one: str
    expected: str


def torres_check(diagram):
    """
    For a 2-component link, test Delta_L(t, 1) = (t^l - 1)/(t - 1) *
    Delta_{L1}(t) up to units, where l is the linking number and L1 the
    first component viewed as a knot.  With l = 0 the right side
    degenerates (conventions diverge); the check is flagged and skipped.
    """
    if diagram.num_components != 2:
        raise DiagramError("Torres check applies to 2-component links")
    delta = alexander_polynomial(diagram)
    lk = linking_number(diagram, 0, 1)
    at_one = canonical(delta.value.set_variable_to_one(1))
    if lk == 0:
        return TorresReport("degenerate", 0, str(at_one), "0 * ...")
    sub = sublink(diagram, 0)
    delta1 = alexander_polynomial(sub)
    cyclotomic = LaurentPoly(1, {(i,): 1 for i in range(abs(lk))})
    expected = canonical(cyclotomic * delta1.value)
    return TorresReport("pass" if at_one == expected else "fail", lk,
                        str(at_one), str(expected))

"""
Small functions that only the tests call, kept out of the package:
debug renderings of words and presentations, the raw Schreier rewriting
sizes, the check that a polynomial is in canonical form, a
presentation's matrix decoded to LaurentPolys, the Fox
derivative in the free group ring, the slow and independent reference
that the package's one-pass Jacobian is checked against, and the full
Schreier rewriting of the cover oracle, the reference its orbit
elimination is checked against, the per-degree orbit route that the
oracle used before it built one relator module over Z[t^+-1] for every
degree, the Sylvester-matrix resultant that
the oracle's cover order formula used before it became a determinant in
Z[t]/(1 + t + ... + t^(k-1)), and the extended-gcd Smith diagonal that
the oracle's dense phase used before it became elimination by division
with remainder, and a braid word's PD code (its closure's PD twin).
"""

from ribboncheck import oracles
from ribboncheck.laurent import canonical
from ribboncheck.linkcodec import DiagramError, PDCode
from ribboncheck.oracles import _int_det
from ribboncheck.wirtinger import apply_phi, free_reduce, word_multiply


def word_to_str(word):
    """Debug rendering, e.g. "x3 x1 x2^-1 x1^-1"; identity renders as "1"."""
    if not word:
        return "1"
    parts = []
    for g, e in word:
        parts.append("x%d" % (g + 1) if e == 1 else "x%d^-1" % (g + 1))
    return " ".join(parts)


def presentation_to_str(pres):
    gens = " ".join("x%d" % (i + 1) for i in range(pres.num_generators))
    rels = "; ".join(word_to_str(r) for r in pres.relators)
    return "<%s | %s>" % (gens, rels)


def rewriting_sizes(pres, k):
    """Raw Schreier rewriting bookkeeping: (generators, relators)."""
    return k * pres.num_generators, k * len(pres.relators)


def is_canonical(p):
    if p.is_zero():
        return True
    if any(a != 0 for a in p.min_exponents()):
        return False
    return p.leading_term()[1] > 0


def decoded(pres):
    """
    The presentation's matrix as a tuple of rows of LaurentPolys, every
    empty cell a zero: its PackedMatrix decoded, or the rows of
    LaurentPolys that pipeline_reference's replaced routes hold as they
    are.
    """
    return tuple(map(tuple, pres.matrix))


class GroupRingElement(dict):
    """Finite map from freely reduced words to nonzero integer coefficients."""

    def __init__(self, data=None):
        super().__init__()
        if data:
            for w, c in data.items():
                self.add(w, c)

    def add(self, word, coeff):
        word = free_reduce(word)
        s = self.get(word, 0) + coeff
        if s:
            self[word] = s
        else:
            self.pop(word, None)

    def __add__(self, other):
        out = GroupRingElement(self)
        for w, c in other.items():
            out.add(w, c)
        return out

    def __neg__(self):
        return GroupRingElement({w: -c for w, c in self.items()})

    def left_multiply(self, word):
        out = GroupRingElement()
        for w, c in self.items():
            out.add(word_multiply(word, w), c)
        return out


def fox_derivative(word, gen):
    """
    The Fox derivative of a free word with respect to generator `gen`,
    as a GroupRingElement.

    >>> x = ((0, 1),)
    >>> dict(fox_derivative(x, 0))
    {(): 1}
    >>> dict(fox_derivative(((0, -1),), 0))
    {((0, -1),): -1}
    """
    result = GroupRingElement()
    prefix = ()
    for g, e in word:
        if e == 1:
            if g == gen:
                result.add(prefix, 1)
            prefix = word_multiply(prefix, ((g, 1),))
        else:
            prefix = word_multiply(prefix, ((g, -1),))
            if g == gen:
                result.add(prefix, -1)
    return result


def full_reidemeister_schreier(pres, phi, k):
    """
    H_1 of the k-fold cyclic cover of a knot exterior, from Schreier
    rewriting of the index-k subgroup phi^-1(kZ) with transversal
    x1^0, ..., x1^(k-1), followed by integer Smith normal form.

    Returns AbelianGroupInvariants; the raw rewritten presentation has
    k * (number of generators) Schreier generators and k * (number of
    relators) rewritten relators (transversal trivializations are added
    only at the abelianization step).
    """
    if phi.num_components != 1:
        raise DiagramError("cyclic-cover rewriting supports knots only")
    if k < 2:
        raise ValueError("cover degree must be at least 2")
    g = pres.num_generators
    if g == 0:
        raise DiagramError("presentation has no generators")

    def gen_index(coset, gen):
        return coset * g + gen

    rows = []
    for rel in pres.relators:
        if any(apply_phi(rel, phi)):
            raise DiagramError("relator does not vanish under phi")
        for start in range(k):
            row = [0] * (k * g)
            coset = start
            for gen, e in rel:
                if e == 1:
                    row[gen_index(coset, gen)] += 1
                    coset = (coset + 1) % k
                else:
                    coset = (coset - 1) % k
                    row[gen_index(coset, gen)] -= 1
            rows.append(row)
    # transversal trivializations: x1^c x1 x1^-(c+1) is freely trivial
    # for c < k-1, so those Schreier generators die
    for c in range(k - 1):
        row = [0] * (k * g)
        row[gen_index(c, 0)] = 1
        rows.append(row)
    return oracles.abelian_invariants(rows, k * g)


def per_degree_reidemeister_schreier(pres, phi, k):
    """
    H_1 of the k-fold cyclic cover of a knot exterior, from Schreier
    rewriting of the index-k subgroup phi^-1(kZ) with transversal
    x1^0, ..., x1^(k-1), followed by integer Smith normal form.

    Every letter moves the coset by +-1, so the k rewritten copies of a
    relator are cyclic shifts of one another.  Each relator is kept once,
    as generator -> {coset: coefficient}, an element of Z[t]/(t^k - 1)
    per generator whose k shifts are the copies (its orbit).  Where an
    orbit holds +-t^j at a generator other than x1, that entry is a unit
    of the ring: subtracting multiples of the orbit clears the generator
    from every other orbit, and the orbit and the generator's k columns
    split off as k unit factors of the Smith form.  What is left is
    expanded to sparse integer rows, with the k - 1 transversal
    trivializations, for smith_normal_form.  Its matrix has fewer than
    k * (number of generators) columns whenever an orbit was eliminated:
    at most 19 x 15 for the bundled knots at k = 2, 3, 5, against 49 x 45
    with every column.  The orbits are integer dicts, not laurent
    polynomials, so this route shares no code with the Fox pipeline that
    it checks.

    Returns AbelianGroupInvariants.
    """
    if phi.num_components != 1:
        raise DiagramError("cyclic-cover rewriting supports knots only")
    if k < 2:
        raise ValueError("cover degree must be at least 2")
    g = pres.num_generators
    if g == 0:
        raise DiagramError("presentation has no generators")

    orbits = []  # the relators rewritten from coset 0
    for rel in pres.relators:
        if any(apply_phi(rel, phi)):
            raise DiagramError("relator does not vanish under phi")
        orbit = {}
        coset = 0
        for gen, e in rel:
            if e == -1:
                coset = (coset - 1) % k
            entry = orbit.setdefault(gen, {})
            entry[coset] = entry.get(coset, 0) + e
            if e == 1:
                coset = (coset + 1) % k
        for gen in list(orbit):
            orbit[gen] = {c: v for c, v in orbit[gen].items() if v}
            if not orbit[gen]:
                del orbit[gen]
        if orbit:
            orbits.append(orbit)

    gone = set()  # generators whose columns split off
    while True:
        # the first orbit with a unit entry at a generator other than x1
        piv = next(((i, gen) for i, orbit in enumerate(orbits)
                    for gen, entry in orbit.items() if gen and len(entry) == 1
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
                        pos = (c - j + d) % k
                        w = target.get(pos, 0) - e * a * b
                        if w:
                            target[pos] = w
                        else:
                            del target[pos]
                if not target:
                    del orbit[gen]
        orbits = [orbit for orbit in orbits if orbit]

    column = {gen: i * k for i, gen in
              enumerate(gen for gen in range(g) if gen not in gone)}
    rows = [{column[gen] + (c + s) % k: v
             for gen, entry in orbit.items() for c, v in entry.items()}
            for orbit in orbits for s in range(k)]
    # transversal trivializations: x1^c x1 x1^-(c+1) is freely trivial
    # for c < k-1, so those Schreier generators die
    rows.extend({column[0] + c: 1} for c in range(k - 1))
    return oracles.abelian_invariants(rows, k * len(column))


def _sylvester_resultant(f, g):
    """Exact resultant of two integer polynomials (coefficient dicts)."""
    df, dg = max(f), max(g)
    if dg == 0:
        return g[0] ** df
    n = df + dg
    rows = []
    fc = [f.get(i, 0) for i in range(df, -1, -1)]
    gc = [g.get(i, 0) for i in range(dg, -1, -1)]
    for i in range(dg):
        rows.append([0] * i + fc + [0] * (n - df - 1 - i))
    for i in range(df):
        rows.append([0] * i + gc + [0] * (n - dg - 1 - i))
    return _int_det(rows)


def sylvester_cover_order(delta, k):
    """
    The cover order formula as a Sylvester resultant: |Res((t^k - 1) /
    (t - 1), Delta(t))| for a nonzero one-variable Delta, made a
    polynomial by canonical first.
    """
    p = canonical(delta)
    f = {}  # (t^k - 1)/(t - 1) = 1 + t + ... + t^(k-1), monic
    for i in range(k):
        f[i] = 1
    g = {e[0]: c for e, c in p.terms.items()}
    return abs(_sylvester_resultant(f, g))


def _gcdex(a, b):
    """(g, x, y) with x*a + y*b == g == gcd(a, b) >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def gcdex_dense_diagonal(m):
    """
    The Smith diagonal of a dense list-of-lists matrix, modified in place.

    Entries are cleared with single extended-gcd 2x2 transforms rather
    than repeated quotient chains; that keeps coefficient growth tame on
    the cores of the rewritten cover matrices.
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    diag = []
    top = 0
    while top < min(nrows, ncols):
        piv = None
        best = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                v = abs(m[i][j])
                if v and (best is None or v < best):
                    best, piv = v, (i, j)
        if piv is None:
            break
        pi, pj = piv
        m[top], m[pi] = m[pi], m[top]
        for row in m:
            row[top], row[pj] = row[pj], row[top]
        while True:
            for i in range(top + 1, nrows):
                a, b = m[top][top], m[i][top]
                if not b:
                    continue
                if b % a == 0:
                    q = b // a
                    m[i] = [x - q * y for x, y in zip(m[i], m[top])]
                else:
                    g, x, y = _gcdex(a, b)
                    u, v = a // g, b // g
                    new_top = [x * p + y * q for p, q in zip(m[top], m[i])]
                    m[i] = [-v * p + u * q for p, q in zip(m[top], m[i])]
                    m[top] = new_top
            for j in range(top + 1, ncols):
                a, b = m[top][top], m[top][j]
                if not b:
                    continue
                if b % a == 0:
                    q = b // a
                    for row in m:
                        row[j] -= q * row[top]
                else:
                    g, x, y = _gcdex(a, b)
                    u, v = a // g, b // g
                    for row in m:
                        rt, rj = row[top], row[j]
                        row[top] = x * rt + y * rj
                        row[j] = -v * rt + u * rj
            if all(m[i][top] == 0 for i in range(top + 1, nrows)) and \
               all(m[top][j] == 0 for j in range(top + 1, ncols)):
                break
        # enforce divisibility of the remaining block by the pivot
        p = m[top][top]
        fix = next((i for i in range(top + 1, nrows)
                    for j in range(top + 1, ncols) if m[i][j] % p), None)
        if fix is not None:
            for j in range(top, ncols):
                m[top][j] += m[fix][j]
            continue
        diag.append(abs(p))
        top += 1
    return diag


def braid_to_pd(word):
    """
    A PD code of the closure of a braid word in linkcodec's conventions,
    or None when a strand takes part in no crossing (a PD code cannot
    hold a component without one).  Each component's edges are numbered
    consecutively along its orientation, the strands running in letter
    order, and the components in BraidWord.cycles() order, so that
    pd_diagram keeps their order and orientation.  A crossing lists its
    incoming under edge, then the over strand's edges, in then out for a
    positive letter and out then in for a negative one, with the
    outgoing under edge between them.
    """
    edges = {}  # (letter index, position before it) -> (edge in, edge out)
    label = 1
    for cyc in word.cycles():
        passes = []
        top = cyc[0]
        while True:
            pos = top
            for k, letter in enumerate(word.letters):
                i = abs(letter) - 1
                if pos in (i, i + 1):
                    passes.append((k, pos))
                    pos = 2 * i + 1 - pos
            top = pos
            if top == cyc[0]:
                break
        if not passes:
            return None
        m = len(passes)
        for j, key in enumerate(passes):
            edges[key] = (label + j, label + (j + 1) % m)
        label += m
    crossings = []
    for k, letter in enumerate(word.letters):
        i = abs(letter) - 1
        over, under = (i, i + 1) if letter > 0 else (i + 1, i)
        (a, c), (oin, oout) = edges[k, under], edges[k, over]
        crossings.append((a, oin, c, oout) if letter > 0 else
                         (a, oout, c, oin))
    return PDCode(tuple(crossings))

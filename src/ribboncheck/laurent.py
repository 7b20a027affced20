"""
Exact sparse arithmetic in the Laurent polynomial ring Z[t1^±1, ..., tm^±1].

Polynomials are stored as finite maps from exponent vectors (tuples of
signed integers, one slot per variable) to nonzero integer coefficients.
All coefficients are arbitrary-precision Python ints; the zero polynomial
is the empty map, at every variable count.  Exact division keys each
term by one integer, its exponent vector in balanced digits (KeyCodec;
at one variable, the exponent), and divides on those keys
(divide_cells), the codec and the division that foxcalc's packed
matrices and alexander's eliminations run on too.  At two or more
variables each quotient term's digits are checked, so that no carry
fakes a quotient, and the division stays sparse: a dense array over the
box of an m-variable minor would have (span + 1)^m cells.  The gcd is
one GCDHEU loop from one variable up (see _gcd_poly).

The units of this ring are exactly ±t1^a1···tm^am.  Quantities such as
link polynomial invariants are only well defined up to a unit, so we fix
a canonical representative: shift so that the minimum exponent of each
variable is 0, and normalise the sign so the graded-lex-greatest term has
positive coefficient.  ``canonical(p) == canonical(q)`` iff p and q agree
up to a unit.

Divisibility and gcd are taken in the full ring, so integer content
matters: 2 does not divide t, and gcd(2t - 2, t^2 - 1) is t - 1.
"""

from heapq import heapify, heappop, heappush
from math import gcd as _int_gcd, isqrt
from operator import add, sub

class DimensionError(ValueError):
    """Operands live in Laurent rings with different variable counts."""


def _grlex(exps):
    # graded-lex sort key: total degree first, then lex on the vector
    return (sum(exps), exps)


class LaurentPoly:
    """
    A sparse element of Z[t1^±1, ..., tm^±1].

    >>> t = LaurentPoly.variable(0, 1)
    >>> print((t - 1) * (t + 1))
    t^2 - 1
    >>> print(t**2 - t + 1)
    t^2 - t + 1
    >>> print(LaurentPoly.zero(2))
    0
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        if nvars < 0:
            raise ValueError("variable count must be nonnegative")
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise DimensionError(
                        "exponent vector %r has length %d, expected %d"
                        % (exps, len(exps), nvars))
                if coeff:
                    clean[tuple(exps)] = int(coeff)
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def _make(cls, nvars, terms):
        """For ring operations: terms clean by construction, unchecked."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    # ----- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def constant(cls, c, nvars):
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, index, nvars):
        """The generator t_{index+1} (0-based index)."""
        if not 0 <= index < nvars:
            raise DimensionError("variable index %d out of range" % index)
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: 1})

    @classmethod
    def monomial(cls, coeff, exps):
        return cls(len(exps), {tuple(exps): coeff} if coeff else {})

    # ----- predicates and views -------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_one(self):
        return self.terms == {(0,) * self.nvars: 1}

    def is_unit(self):
        """True for ±(monomial), the units of the Laurent ring."""
        if len(self.terms) != 1:
            return False
        return abs(next(iter(self.terms.values()))) == 1

    def leading_term(self):
        """Graded-lex greatest (exponents, coefficient) pair; None if zero."""
        if not self.terms:
            return None
        exps = max(self.terms, key=_grlex)
        return exps, self.terms[exps]

    def min_exponents(self):
        """Per-variable minimum exponent over all terms (zero poly: all 0)."""
        if not self.terms:
            return (0,) * self.nvars
        return tuple(min(e[i] for e in self.terms) for i in range(self.nvars))

    def sorted_terms(self):
        """Terms in graded-lex descending order, as (exponents, coeff) pairs."""
        return [(e, self.terms[e]) for e in
                sorted(self.terms, key=_grlex, reverse=True)]

    # ----- ring operations ------------------------------------------------

    def _check(self, other):
        if not isinstance(other, LaurentPoly):
            raise TypeError("expected LaurentPoly, got %r" % type(other).__name__)
        if self.nvars != other.nvars:
            raise DimensionError(
                "variable counts differ: %d vs %d" % (self.nvars, other.nvars))

    def _coerce(self, other):
        if isinstance(other, int):
            return LaurentPoly.constant(other, self.nvars)
        self._check(other)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly._make(self.nvars, out)

    def __radd__(self, other):
        return self + other

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return LaurentPoly._make(self.nvars,
                                 {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly._make(self.nvars, {
                e: c * other for e, c in self.terms.items()} if other else {})
        self._check(other)
        a, b = self.terms, other.terms
        out = {}
        get = out.get
        if len(a) < len(b):  # the longer operand in the outer loop
            a, b = b, a
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        return LaurentPoly._make(self.nvars,
                                 {e: c for e, c in out.items() if c})

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers are only defined for units")
        out = LaurentPoly.one(self.nvars)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # ----- shifts and substitutions ----------------------------------------

    def shifted(self, exps):
        """Multiply by the monomial t^exps (a unit)."""
        if len(exps) != self.nvars:
            raise DimensionError("shift vector has wrong length")
        return LaurentPoly._make(
            self.nvars,
            {tuple(map(add, e, exps)): c for e, c in self.terms.items()})

    def inverted_variables(self):
        """Substitute t_i -> t_i^-1 for every variable."""
        return LaurentPoly._make(
            self.nvars,
            {tuple(-a for a in e): c for e, c in self.terms.items()})

    def set_variable_to_one(self, index):
        """Substitute t_{index+1} = 1, dropping that variable slot."""
        if not 0 <= index < self.nvars:
            raise DimensionError("variable index %d out of range" % index)
        out = {}
        for e, c in self.terms.items():
            e2 = e[:index] + e[index + 1:]
            s = out.get(e2, 0) + c
            if s:
                out[e2] = s
            else:
                out.pop(e2, None)
        return LaurentPoly._make(self.nvars - 1, out)

    def evaluate(self, values):
        """Exact evaluation at integers, nonzero under negative exponents.

        >>> t = LaurentPoly.variable(0, 1)
        >>> (t**2 - 3*t + 1).evaluate([-1])
        5
        """
        if len(values) != self.nvars:
            raise DimensionError("expected %d values" % self.nvars)
        total = 0
        for e, c in self.terms.items():
            term = c
            for v, a in zip(values, e):
                if a >= 0:
                    term *= v ** a
                elif v == 0:
                    raise ZeroDivisionError("negative exponent at zero")
                else:
                    q, r = divmod(term, v ** (-a))
                    if r:
                        raise ValueError("evaluation is not an integer")
                    term = q
            total += term
        return total

    # ----- display ----------------------------------------------------------

    def __str__(self):
        return poly_to_str(self)

    def __repr__(self):
        return "LaurentPoly(%d, %s)" % (self.nvars, poly_to_str(self))


# ----- text format ----------------------------------------------------------

def _var_name(i, nvars):
    return "t" if nvars == 1 else "t%d" % (i + 1)


def _monomial_str(exps, nvars):
    parts = []
    for i, a in enumerate(exps):
        if a == 0:
            continue
        name = _var_name(i, nvars)
        parts.append(name if a == 1 else "%s^%d" % (name, a))
    return "*".join(parts)


def poly_to_str(p):
    """
    Render in the exchange format: terms sorted graded-lex descending,
    coefficients of ±1 suppressed on non-constant terms.

    >>> t1, t2 = (LaurentPoly.variable(i, 2) for i in (0, 1))
    >>> poly_to_str(t1*t2 - t1 - t2 + LaurentPoly.one(2))
    't1*t2 - t1 - t2 + 1'
    >>> t = LaurentPoly.variable(0, 1)
    >>> poly_to_str(2*t**2 - 3*t + 2)
    '2*t^2 - 3*t + 2'
    """
    if p.is_zero():
        return "0"
    chunks = []
    for k, (exps, coeff) in enumerate(p.sorted_terms()):
        mono = _monomial_str(exps, p.nvars)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = "%d*%s" % (mag, mono)
        if k == 0:
            chunks.append(body if coeff > 0 else "-" + body)
        else:
            chunks.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(chunks)


def parse_poly(text, nvars):
    """
    Parse the text format back into a LaurentPoly (inverse of poly_to_str;
    also accepts explicit signs and negative exponents like "t^-1").

    >>> print(parse_poly("t^2 - 3*t + 1", 1))
    t^2 - 3*t + 1
    >>> print(parse_poly("t1*t2 - 1", 2))
    t1*t2 - 1
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return LaurentPoly.zero(nvars)
    terms = {}
    i, n = 0, len(s)
    while i < n:
        sign = 1
        while i < n and s[i] in "+-":
            if s[i] == "-":
                sign = -sign
            i += 1
        j = i
        while j < n and s[j].isdigit():
            j += 1
        saw_coeff = j > i
        coeff = int(s[i:j]) if saw_coeff else 1
        i = j
        if i < n and s[i] == "*":
            i += 1
        exps = [0] * nvars
        saw_var = False
        while i < n and s[i] == "t":
            i += 1
            j = i
            while j < n and s[j].isdigit():
                j += 1
            if j > i:
                if nvars == 1:
                    raise ValueError("numbered variables in a 1-variable ring")
                idx = int(s[i:j]) - 1
            else:
                if nvars != 1:
                    raise ValueError("bare 't' in a %d-variable ring" % nvars)
                idx = 0
            if not 0 <= idx < nvars:
                raise ValueError("variable index out of range in %r" % text)
            i = j
            power = 1
            if i < n and s[i] == "^":
                i += 1
                j = i
                if j < n and s[j] == "-":
                    j += 1
                while j < n and s[j].isdigit():
                    j += 1
                if not s[i:j].lstrip("-"):
                    raise ValueError("missing exponent in %r" % text)
                power = int(s[i:j])
                i = j
            exps[idx] += power
            saw_var = True
            if i < n and s[i] == "*":
                i += 1
        if not saw_coeff and not saw_var:
            raise ValueError("could not parse term near position %d in %r" % (i, text))
        key = tuple(exps)
        c = terms.get(key, 0) + sign * coeff
        if c:
            terms[key] = c
        else:
            terms.pop(key, None)
    return LaurentPoly(nvars, terms)


# ----- canonical form --------------------------------------------------------

def canonical(p):
    """
    The canonical representative of p among its unit multiples: all
    per-variable minimum exponents are 0 and the graded-lex-greatest term
    has positive coefficient.  canonical(u * p) == canonical(p) for every
    unit u = ±monomial, and only then.

    >>> t = LaurentPoly.variable(0, 1)
    >>> print(canonical(-t**4 - t**3 + t**2))
    t^2 + t - 1
    """
    if p.is_zero():
        return p
    mins = p.min_exponents()
    q = p.shifted(tuple(-a for a in mins))
    _, lead = q.leading_term()
    if lead < 0:
        q = -q
    return q


# ----- packed exponent keys --------------------------------------------------
#
# Monagan and Pearce, "Polynomial division using dynamic arrays, heaps,
# and packed exponent vectors" (CASC 2007).

class KeyCodec:
    """
    Packed exponent keys in m variables at a radius.  The key of t^e is
    sum_i e_i * R^i with R = 2 * radius + 1, so in one variable it is the
    exponent.  Keys add as exponents do, which makes packing a ring
    homomorphism, and it is injective on the exponent vectors whose
    entries but the last lie in [-radius, radius] (balanced digits),
    where the order of keys is a monomial order (lexicographic, last
    variable first).  A cell is a dict {key: coefficient}.
    """

    __slots__ = ("nvars", "radius")

    def __init__(self, nvars, radius):
        self.nvars, self.radius = nvars, radius

    @property
    def bound(self):
        """
        h = radius // 2: the bound on the exponents of divide_cells'
        divisors and quotients, and of every minor that alexander's
        eliminations and kernel check take on a PackedMatrix, so that a
        product of two of them, within 2h, packs injectively.
        """
        return self.radius // 2

    def cell(self, poly):
        """The terms of a LaurentPoly keyed by their packed exponents."""
        key = self.key
        return {key(e): c for e, c in poly.terms.items()}

    def poly(self, cell):
        """The LaurentPoly of a packed cell."""
        exponents = self.exponents
        return LaurentPoly._make(self.nvars, {
            exponents(k): c for k, c in cell.items()})

    def within(self, key, bound):
        """Whether every exponent of key but the last lies in [-bound, bound]."""
        radius, radix = self.radius, 2 * self.radius + 1
        for _ in range(self.nvars - 1):
            if (key + bound) % radix > 2 * bound:
                return False
            key = (key + radius) // radix
        return True

    def key(self, exps):
        radix, k = 2 * self.radius + 1, 0
        for e in reversed(exps):
            k = k * radix + e
        return k

    def exponents(self, key):
        radius = self.radius
        radix, out = 2 * radius + 1, []
        for _ in range(self.nvars - 1):
            e = (key + radius) % radix - radius
            out.append(e)
            key = (key - e) // radix
        out.append(key)
        return tuple(out)


def divide_cells(num, den, keys):
    """
    The packed quotient num / den of two cells of the KeyCodec keys, or
    None if den does not divide num in the Laurent ring; num within 2h
    and den within h, h = keys.bound.  Leading-term division on the keys
    from the top, the remainder's keys in a max-heap, each quotient term
    checked: its coefficient must divide, its key must not fall below
    min(num) - min(den), and at two or more variables its exponents but
    the last must lie within h.  That digit check is what makes the keys
    as strong as the exponents: if den divides num and the quotient lies
    within h (a minor, in alexander._eliminate; see exact_divide), every
    term passes; if every term passes, den * quotient lies within 2h,
    where packing is injective, so remainder 0 means den * quotient ==
    num.  In one variable the key is the exponent and no bound is needed.
    """
    h = keys.bound
    within = keys.within if keys.nvars > 1 else None
    dlead = max(den)
    dcoeff, low = den[dlead], min(num) - min(den)
    rest = [(k - dlead, x) for k, x in den.items() if k != dlead]
    rem, out = dict(num), {}
    heap = [-k for k in rem]
    heapify(heap)
    while heap:
        top = -heappop(heap)
        # a key is pushed each time it enters rem, so it may be stale
        x = rem.pop(top, 0)
        if not x:
            continue
        q, r = divmod(x, dcoeff)
        key = top - dlead
        if r or key < low or within and not within(key, h):
            return None
        out[key] = q
        for offset, y in rest:  # every offset is negative: keys below top
            k, y = top + offset, q * y
            s = rem.get(k)
            if s is None:
                rem[k] = -y
                heappush(heap, -k)
            elif s == y:
                del rem[k]
            else:
                rem[k] = s - y
    return out


# ----- exact division --------------------------------------------------------

def exact_divide(p, d):
    """
    The exact quotient q with d * q == p, or None when no such q exists
    in the Laurent ring.  p and d are shifted to minimum exponents 0 and
    divided on their keys (divide_cells) at radius 2h, h = max(1, the
    largest span of p over every variable but the last).  This is sound
    both ways: if d divides p, every quotient term lies in [0, span p -
    span d], within h, as per-variable spans add under multiplication;
    if every one does, d * q lies within 2h, where packing is injective,
    so remainder 0 means d * q == p.  A d that spans more than p in some
    variable divides nothing.  Without the digit check a carry fakes
    quotients: t1^2 + t2 packs to T^2 + T^9 at radius 4, and t1 + 1 to
    T + 1, which divides it.  At one variable the key is the exponent,
    h goes unused and no digit is checked.

    >>> t = LaurentPoly.variable(0, 1)
    >>> print(exact_divide(t**2 - 1, t - 1))
    t + 1
    >>> exact_divide(t**2 + 1, t - 1) is None
    True
    """
    p._check(d)
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return LaurentPoly.zero(p.nvars)
    if len(d.terms) == 1:  # a shift, if every coefficient divides
        ((e, c),) = d.terms.items()
        quot = {x: divmod(c1, c) for x, c1 in p.terms.items()}
        if any(r for _, r in quot.values()):
            return None
        return LaurentPoly._make(p.nvars, {
            tuple(map(sub, x, e)): q for x, (q, _) in quot.items()})
    pcols, dcols = list(zip(*p.terms)), list(zip(*d.terms))
    pmin, dmin = list(map(min, pcols)), list(map(min, dcols))
    pspan = [max(col) - x for col, x in zip(pcols, pmin)]
    if any(max(col) - x > s for col, x, s in zip(dcols, dmin, pspan)):
        return None
    keys = KeyCodec(p.nvars, 2 * max([1] + pspan[:-1]))
    # packing is linear: key(e - min) = key(e) - key(min)
    key = keys.key
    pkey, dkey = key(pmin), key(dmin)
    quot = divide_cells({key(e) - pkey: c for e, c in p.terms.items()},
                        {key(e) - dkey: c for e, c in d.terms.items()}, keys)
    if quot is None:
        return None
    shift, exponents = list(map(sub, pmin, dmin)), keys.exponents
    return LaurentPoly._make(p.nvars, {
        tuple(map(add, exponents(k), shift)): c for k, c in quot.items()})


def divides(d, p):
    """
    Whether d divides p in the Laurent ring.  divides(d, 0) holds for all
    d != 0; divides(0, p) holds only for p == 0.  Unit multiples of d give
    identical answers.
    """
    d._check(p)
    if d.is_zero():
        return p.is_zero()
    if p.is_zero():
        return True
    return exact_divide(p, d) is not None


# ----- gcd -------------------------------------------------------------------
#
# Z[t1^±1,...,tm^±1] is a UFD, so gcds exist up to units; as only
# ±monomials are units, integer content is part of divisibility.  We
# compute on the unit-shifted ordinary polynomials by GCDHEU (Char,
# Geddes and Gonnet, "GCDHEU: heuristic polynomial GCD algorithm based on
# integer GCD computation", J. Symbolic Comput. 7, 1989), one loop at
# every variable count: evaluate the last variable of the primitive parts
# a and b at an integer xi >= 2 min(|a|, |b|) + 2 (|.| the largest
# coefficient; the first xi is 2 min(|a|, |b|) + 29, as in sympy's
# dup_zz_heu_gcd), take the gcd of the two values by the same loop one
# variable down (at no variable left, the integer gcd), rebuild a
# polynomial G from its symmetric xi-adic digits, and accept pp(G), its
# primitive part, once it divides both a and b: it is then gcd(a, b)
# (see _gcd_poly).  A failed check retries at a larger xi, at _HEU_TRIES
# points in all.  Past them one variable completes by Euclid on the
# primitive parts' coefficient lists with pseudo-remainders made
# primitive at each step (Knuth, TAOCP vol. 2, 4.6.1); two or more raise
# ComputationError.

# evaluation points GCDHEU tries before it gives up
_HEU_TRIES = 6


class ComputationError(RuntimeError):
    """Internal inconsistency, or a computation past its stated budget."""


def gcd(p, q):
    """
    A greatest common divisor of p and q, in canonical form.  Raises
    ComputationError when GCDHEU finds none at two or more variables.

    >>> t = LaurentPoly.variable(0, 1)
    >>> print(gcd(t**2 - t + 1, t**2 - 3*t + 1))
    1
    >>> print(gcd(2*t - 2, t**2 - 1))
    t - 1
    """
    p._check(q)
    if p.is_zero():
        return canonical(q)
    if q.is_zero():
        return canonical(p)
    g = _gcd_poly(p, q)
    if g is None:
        raise ComputationError(
            "gcd of two polynomials in %d variables: GCDHEU found no common "
            "divisor at %d evaluation points (laurent._HEU_TRIES)"
            % (p.nvars, _HEU_TRIES))
    return canonical(g)


def _gcd_poly(p, q):
    """
    A gcd of nonzero p and q up to units, divisible by no variable, or
    None where GCDHEU gives up at two or more variables.  At no variable
    it is the integer gcd; at one, Euclid completes what _HEU_TRIES
    points leave open.

    Why pp(G) is gcd(a, b) once it divides both, for xi >= 2B + 2 with B
    the smaller of |a| and |b| (Char, Geddes and Gonnet, 1989): let f be
    the one of a, b with |f| = B, and gcd(a, b) = pp(G) k.  gcd(a, b)(xi)
    divides G(xi), so k(xi) divides the content of G: it is an integer
    of at most xi/2.  Unless k lies in Z[t_m], its part of top degree in
    t1..t_{m-1} then vanishes at t_m = xi, and so does the top part of
    f, whose coefficients are polynomials in t_m with coefficients at
    most B; but such a nonzero polynomial has no root of modulus 1 + B
    or more (Cauchy).  So k lies in Z[t_m], divides those coefficients,
    and |k(xi)| > (xi - 1 - B)^deg k >= xi/2 unless k is a constant: +-1,
    as pp(G) and the gcd of primitive a and b are primitive.  The same
    argument without t1..t_{m-1} covers one variable.  No variable
    divides G either, so the checks, divisions in the Laurent ring, hold
    only if pp(G) divides a and b as polynomials: for i < m, t_i would
    divide f(xi), so the part of f free of t_i would vanish at t_m = xi,
    against the same root bound; t_m would mean that xi divides G(xi),
    hence f(xi), hence f at t_m = 0, whose coefficients, below xi/2,
    would all be 0: t_m would divide f.
    """
    if not p.nvars:
        return LaurentPoly._make(0, {(): _int_gcd(p.terms[()], q.terms[()])})
    c = _int_gcd(*p.terms.values(), *q.terms.values())
    a, b = _primitive_part(p), _primitive_part(q)
    xi = 2 * min(max(map(abs, a.terms.values())),
                 max(map(abs, b.terms.values()))) + 29
    for _ in range(_HEU_TRIES):
        va, vb = _evaluate_last(a, xi), _evaluate_last(b, xi)
        g = _gcd_poly(va, vb) if va and vb else va or vb
        if g:
            h = _interpolate(g, xi)
            # one term: h = +-1, as no variable divides it
            if len(h.terms) == 1 or divides(h, a) and divides(h, b):
                return h * c
        xi = _next_xi(xi)
    if p.nvars > 1:
        return None
    # Euclid on the coefficient lists of a and b, both from t^0
    a, b = ([f.terms.get((i,), 0) for i in range(max(f.terms)[0] + 1)]
            for f in (a, b))
    return LaurentPoly._make(1, {(i,): x * c for i, x in
                                 enumerate(_gcd_dense(a, b)) if x})


def _primitive_part(p):
    """p over its integer content, shifted so that no variable divides it."""
    c, low = _int_gcd(*p.terms.values()), p.min_exponents()
    if c == 1 and not any(low):
        return p
    return exact_divide(p, LaurentPoly.monomial(c, low))


def _next_xi(xi):
    # the growth of sympy's dup_zz_heu_gcd: xi times about 2.73 xi^(1/4)
    return 73794 * xi * isqrt(isqrt(xi)) // 27011


def _symmetric_digits(n, xi):
    """Digits d_i of n = sum d_i xi^i, lowest first, |d_i| <= xi/2."""
    out, half = [], xi // 2
    while n:
        out.append((n + half) % xi - half)
        n = (n - out[-1]) // xi
    return out


def _evaluate_last(p, xi):
    """p at t_m = xi, a polynomial in t1..t_{m-1}."""
    powers = [1]
    for _ in range(max(e[-1] for e in p.terms)):  # each from the last
        powers.append(powers[-1] * xi)
    out = {}
    for e, c in p.terms.items():
        k = e[:-1]
        out[k] = out.get(k, 0) + c * powers[e[-1]]
    return LaurentPoly._make(p.nvars - 1, {k: c for k, c in out.items() if c})


def _interpolate(g, xi):
    """pp(G): G(xi) = g, with g's symmetric xi-adic digits at t_m^i."""
    terms = {}
    for e, c in g.terms.items():
        for i, d in enumerate(_symmetric_digits(c, xi)):
            if d:
                terms[e + (i,)] = d
    k = _int_gcd(*terms.values())
    return LaurentPoly._make(g.nvars + 1,
                             {e: d // k for e, d in terms.items()})


def _prem_dense(a, b):
    """
    A nonzero integer multiple of the remainder of a by b, for coefficient
    lists with len(a) >= len(b): each step scales by lc(b) / g and
    subtracts lead / g times the shifted b, g = gcd(lc(b), lead), which
    keeps the coefficients smaller than the classical lc(b)^k factor.
    """
    r = list(a)
    lcb, db = b[-1], len(b) - 1
    while len(r) > db:
        lead = r.pop()
        if lead:
            g = _int_gcd(lcb, lead)
            scale, factor, k = lcb // g, lead // g, len(r) - db
            r = [x * scale for x in r]
            for i in range(db):
                r[k + i] -= factor * b[i]
    while r and not r[-1]:
        r.pop()
    return r


def _gcd_dense(a, b):
    """gcd in Z[t] of two nonzero coefficient lists, leading term positive."""
    ca, cb = _int_gcd(*a), _int_gcd(*b)
    a = [x // ca for x in a]
    b = [x // cb for x in b]
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _prem_dense(a, b)
        if not r:
            break
        cr = _int_gcd(*r)
        a, b = b, [x // cr for x in r]
    # b is primitive: the gcd of the primitive parts, or ±1 if constant
    c = _int_gcd(ca, cb) if b[-1] > 0 else -_int_gcd(ca, cb)
    return [x * c for x in b]

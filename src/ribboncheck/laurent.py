"""
Exact sparse arithmetic in the Laurent polynomial ring Z[t1^±1, ..., tm^±1].

Polynomials are stored as finite maps from exponent vectors (tuples of
signed integers, one slot per variable) to nonzero integer coefficients.
All coefficients are arbitrary-precision Python ints; the zero polynomial
is the empty map.  At one variable (knots), exact division and gcd run on
a dense coefficient list instead, kept on the polynomial after its first
use: polynomials are never mutated.

The units of this ring are exactly ±t1^a1···tm^am.  Quantities such as
link polynomial invariants are only well defined up to a unit, so we fix
a canonical representative: shift so that the minimum exponent of each
variable is 0, and normalise the sign so the graded-lex-greatest term has
positive coefficient.  ``canonical(p) == canonical(q)`` iff p and q agree
up to a unit.

Divisibility and gcd are taken in the full ring, so integer content
matters: 2 does not divide t, and gcd(2t - 2, t^2 - 1) is t - 1.
"""

from math import gcd as _int_gcd


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

    # _coeffs: at one variable, the (lowest exponent, coefficient list)
    # pair of _dense, filled on first use; a LaurentPoly is never mutated
    __slots__ = ("nvars", "terms", "_coeffs")

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
        self._coeffs = None

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
        return LaurentPoly(self.nvars, out)

    def __radd__(self, other):
        return self + other

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly(self.nvars,
                               {e: c * other for e, c in self.terms.items()} if other else {})
        self._check(other)
        out = {}
        if self.nvars == 1:
            for (a,), c1 in self.terms.items():
                for (b,), c2 in other.terms.items():
                    e = (a + b,)
                    s = out.get(e, 0) + c1 * c2
                    if s:
                        out[e] = s
                    else:
                        del out[e]
            return LaurentPoly(1, out)
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return LaurentPoly(self.nvars, out)

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
        return LaurentPoly(
            self.nvars,
            {tuple(a + b for a, b in zip(e, exps)): c
             for e, c in self.terms.items()})

    def inverted_variables(self):
        """Substitute t_i -> t_i^-1 for every variable."""
        return LaurentPoly(
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
        return LaurentPoly(self.nvars - 1, out)

    def evaluate(self, values):
        """Exact evaluation at a tuple of nonzero integers.

        >>> t = LaurentPoly.variable(0, 1)
        >>> (t**2 - 3*t + 1).evaluate([-1])
        5
        """
        if len(values) != self.nvars:
            raise DimensionError("expected %d values" % self.nvars)
        if any(v == 0 for v in values) and any(
                a < 0 for e in self.terms for a in e):
            raise ZeroDivisionError("negative exponent at zero")
        total = 0
        for e, c in self.terms.items():
            term = c
            for v, a in zip(values, e):
                if a >= 0:
                    term *= v ** a
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


def is_canonical(p):
    if p.is_zero():
        return True
    if any(a != 0 for a in p.min_exponents()):
        return False
    return p.leading_term()[1] > 0


# ----- the dense one-variable form --------------------------------------------

def _to_dense(p):
    """(lowest exponent, coefficients from it upwards) of a nonzero 1-variable p."""
    low = min(e for (e,) in p.terms)
    out = [0] * (max(e for (e,) in p.terms) - low + 1)
    for (e,), c in p.terms.items():
        out[e - low] = c
    return low, out


def _dense(p):
    """_to_dense(p), kept on p after the first call: no caller may change it."""
    if p._coeffs is None:
        p._coeffs = _to_dense(p)
    return p._coeffs


def _from_dense(low, coeffs):
    """sum of coeffs[i] * t^(low + i); both ends of coeffs must be nonzero."""
    p = LaurentPoly(1, {(low + i,): c for i, c in enumerate(coeffs) if c})
    p._coeffs = (low, coeffs)
    return p


# ----- exact division --------------------------------------------------------

def exact_divide(p, d):
    """
    The exact quotient q with d * q == p, or None when no such q exists
    in the Laurent ring.  Both arguments are unit-shifted to ordinary
    polynomials first.  At one variable, long division on the coefficient
    lists runs from the top and certifies non-divisibility by a leading
    coefficient that does not divide or by a nonzero remainder; at two or
    more, graded-lex leading-term elimination either terminates with
    remainder 0 or certifies non-divisibility.

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
    if p.nvars == 1:
        plow, num = _dense(p)
        dlow, den = _dense(d)
        n, lead = len(den) - 1, den[-1]
        size = len(num) - n  # of the quotient; below 1 if d is longer
        rem = list(num)
        quot = [0] * size
        for k in range(size - 1, -1, -1):
            c, r = divmod(rem[k + n], lead)
            if r:
                return None
            if c:
                quot[k] = c
                rem[k:k + n] = [x - c * y for x, y in zip(rem[k:k + n], den)]
        if any(rem[:n]):  # a remainder, or all of p when d is longer
            return None
        return _from_dense(plow - dlow, quot)
    pmin = p.min_exponents()
    dmin = d.min_exponents()
    rem = {tuple(a - b for a, b in zip(e, pmin)): c for e, c in p.terms.items()}
    div = {tuple(a - b for a, b in zip(e, dmin)): c for e, c in d.terms.items()}
    dlead = max(div, key=_grlex)
    dcoeff = div[dlead]
    quot = {}
    while rem:
        rlead = max(rem, key=_grlex)
        delta = tuple(a - b for a, b in zip(rlead, dlead))
        if any(a < 0 for a in delta):
            return None
        c, r = divmod(rem[rlead], dcoeff)
        if r:
            return None
        quot[delta] = c
        for e, dc in div.items():
            key = tuple(a + b for a, b in zip(e, delta))
            s = rem.get(key, 0) - c * dc
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    shift = tuple(a - b for a, b in zip(pmin, dmin))
    return LaurentPoly(p.nvars, quot).shifted(shift)


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
# Z[t1^±1,...,tm^±1] is a UFD, so gcds exist up to units.  We compute on
# the unit-shifted ordinary polynomials; at one variable these are the
# dense coefficient lists themselves.  With two or more variables the
# ring is treated recursively as (Z[t1..t_{m-1}])[t_m]: split off the
# content in the last variable, take a subresultant polynomial remainder
# sequence of the primitive parts, and recurse on the coefficient ring.
# The recursion bottoms out at one variable, on dense lists of Python
# ints: take the integer contents apart, run Euclid on the primitive
# parts with pseudo-remainders made primitive at each step (Knuth, TAOCP
# vol. 2, 4.6.1), and multiply back by the gcd of the contents.  Integer
# content is part of divisibility here, since only ±monomials are units.

def gcd(p, q):
    """
    A greatest common divisor of p and q, in canonical form.

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
    if p.nvars == 0:
        return LaurentPoly.constant(_int_gcd(p.terms[()], q.terms[()]), 0)
    if p.nvars == 1:
        # both lists have a nonzero constant term, and so has their gcd,
        # whose leading coefficient _gcd_dense makes positive: canonical
        return _from_dense(0, _gcd_dense(_dense(p)[1], _dense(q)[1]))
    a = p.shifted(tuple(-v for v in p.min_exponents()))
    b = q.shifted(tuple(-v for v in q.min_exponents()))
    return canonical(_gcd_poly(a, b))


def _split_last(p):
    """View p in nvars variables as a map degree -> coefficient in nvars-1."""
    coeffs = {}
    for e, c in p.terms.items():
        coeffs.setdefault(e[-1], {})[e[:-1]] = c
    return {d: LaurentPoly(p.nvars - 1, t) for d, t in coeffs.items()}


def _join_last(nvars, coeffs):
    terms = {}
    for d, poly in coeffs.items():
        for e, c in poly.terms.items():
            terms[e + (d,)] = c
    return LaurentPoly(nvars, terms)


def _content_and_primitive(coeffs, nvars_coeff):
    """gcd of the coefficient polys and the coefficient-wise quotient."""
    cont = LaurentPoly.zero(nvars_coeff)
    for d in sorted(coeffs):
        cont = _gcd_poly(cont, coeffs[d])
        if cont.is_one():
            return cont, dict(coeffs)
    if cont.is_zero():
        return cont, dict(coeffs)
    prim = {d: exact_divide(c, cont) for d, c in coeffs.items()}
    return cont, prim


def _x_mul(coeffs, factor, shift=0):
    out = {}
    for d, c in coeffs.items():
        v = c * factor
        if not v.is_zero():
            out[d + shift] = v
    return out


def _x_sub(a, b):
    out = dict(a)
    for d, c in b.items():
        s = out.get(d, LaurentPoly.zero(c.nvars)) - c
        if s.is_zero():
            out.pop(d, None)
        else:
            out[d] = s
    return out


def _pseudo_rem(a, b):
    """prem(a, b) = lc(b)^(deg a - deg b + 1) * a  mod  b, fraction-free."""
    da, db = max(a), max(b)
    lcb = b[db]
    r = dict(a)
    e = da - db + 1
    while r and max(r) >= db:
        dr = max(r)
        lead = r[dr]
        r = _x_sub(_x_mul(r, lcb), _x_mul(b, lead, dr - db))
        e -= 1
    for _ in range(e):
        r = _x_mul(r, lcb)
    return r


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


def _gcd_poly(p, q):
    # ordinary (min-exponent-0) polynomials in 1 or more variables;
    # result defined up to sign
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    if p.nvars == 1:
        # t^min(lp, lq) times the gcd of the parts with a nonzero constant
        (lp, a), (lq, b) = _dense(p), _dense(q)
        return _from_dense(min(lp, lq), _gcd_dense(a, b))
    ca, pa = _content_and_primitive(_split_last(p), p.nvars - 1)
    cb, pb = _content_and_primitive(_split_last(q), q.nvars - 1)
    cont = _gcd_poly(ca, cb)
    if max(pa) < max(pb):
        pa, pb = pb, pa
    one = LaurentPoly.one(p.nvars - 1)
    g = h = one
    while True:
        delta = max(pa) - max(pb)
        rem = _pseudo_rem(pa, pb)
        if not rem:
            _, result = _content_and_primitive(pb, p.nvars - 1)
            break
        if max(rem) == 0:
            result = {0: one}
            break
        divisor = g * h ** delta
        pa = pb
        pb = {d: exact_divide(c, divisor) for d, c in rem.items()}
        g = pa[max(pa)]
        if delta == 1:
            h = g
        elif delta > 1:
            h = exact_divide(g ** delta, h ** (delta - 1))
    lifted = _join_last(p.nvars, result)
    if cont.is_one():
        return lifted
    return lifted * _join_last(p.nvars, {0: cont})

"""
Replaced code of ribboncheck.laurent and ribboncheck.alexander, kept
unchanged as the reference the current code is tested against.

- multiply and exact_divide, the tuple-keyed product and the graded-lex
  exact division that laurent ran at two or more variables before both
  moved to packed exponent keys.  Both build their results through the
  public, checking LaurentPoly constructor.
- mul_add with _PACK_MIN_TERMS, _box, _pack, _digits and _unpack, the
  fused product kernel behind every product and (before they ran on
  foxcalc.PackedMatrix keys) both eliminations' updates, and
  box_exact_divide, laurent.exact_divide as it was when both keyed
  terms in unsigned mixed radix over the operands' exponent box.
  Their doctests are left out.
- scan_divide, alexander._divide as it was before the division moved
  to laurent.divide_cells: each quotient term found by max over the
  whole remainder.
- _to_dense, _from_dense, _divide_dense and _gcd_heu_dense, the dense
  one-variable form: the coefficient list, the long division and the
  GCDHEU loop on lists that exact_divide and gcd ran at one variable
  before a LaurentPoly had one form at every variable count.  Their
  bodies are unchanged, except that nothing caches a list on the
  polynomial any more: laurent kept each list on its polynomial after
  first use.  box_exact_divide's one-variable branch runs them.
  _HEU_TRIES is bound at import: patching laurent's leaves theirs at 6.
- _prem_dense and _gcd_dense, the primitive Euclid on coefficient
  lists that completed a one-variable gcd after _HEU_TRIES failed
  GCDHEU points, before a last point where acceptance is certain
  (laurent._last_xi) replaced it; _gcd_heu_dense ends on it.
- parse_poly, laurent.parse_poly as it was before the text format was
  read by one two-pattern grammar: a hand-written scanner over the
  space-stripped text.  Its doctests are left out.
"""

from math import gcd as _int_gcd
from operator import add, sub

from ribboncheck.laurent import (_HEU_TRIES, DimensionError, LaurentPoly,
                                 _grlex, _next_xi, _symmetric_digits)


def multiply(p, q):
    """p * q, one exponent tuple per pair of terms."""
    p._check(q)
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                del out[e]
    return LaurentPoly(p.nvars, out)


def exact_divide(p, d):
    """
    The exact quotient q with d * q == p, or None: graded-lex
    leading-term elimination on the unit-shifted ordinary polynomials,
    which terminates with remainder 0 or certifies non-divisibility.
    """
    p._check(d)
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return LaurentPoly.zero(p.nvars)
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


# mul_add at two or more variables packs its keys once both operands of
# some product have this many terms: below it, packing costs more than
# it saves.  On the products of perfbench's large_single and
# split_fallback Delta computations (CPU, best of 7, 2-core Xeon VM,
# three measurements), packing from 2 terms up took 20-26 % and 90-180 %
# longer than from 5 up; 4 to 8 were within noise of each other.  With
# the eliminations' updates fused, 3 to 8 stay within noise, and no
# packing doubles the CPU time of large_single's slowest request (24
# crossings, 2 components: 8.3 ms against 16.4-19.0 ms, best of 15).
_PACK_MIN_TERMS = 5


# ----- packed exponent keys --------------------------------------------------
#
# Monagan and Pearce, "Polynomial division using dynamic arrays, heaps,
# and packed exponent vectors" (CASC 2007).  In the box low_i <= e_i <
# low_i + radix_i the key of e is sum((e_i - low_i) * W_i), W_1 = 1 and
# W_{i+1} = W_i * radix_i.  Inside the box no digit carries, so adding
# keys multiplies monomials and the order of keys is a monomial order
# (lexicographic, last variable first).

def _box(terms):
    """Per-variable (minimum, maximum) exponent lists of nonempty terms."""
    cols = list(zip(*terms))
    return list(map(min, cols)), list(map(max, cols))


def _pack(terms, low, radix):
    """terms re-keyed by their packed exponents in the box at low."""
    keys, w = [0] * len(terms), 1
    for col, l, r in zip(zip(*terms), low, radix):
        keys = [k + (x - l) * w for k, x in zip(keys, col)]
        w *= r
    return dict(zip(keys, terms.values()))


def _digits(key, radix):
    """The shifted exponents of a packed key, first variable first."""
    out = []
    for r in radix:
        key, x = divmod(key, r)
        out.append(x)
    return out


def _unpack(packed, low, radix):
    """The inverse of _pack: terms keyed by exponent tuples again."""
    keys, cols = list(packed), []
    for l, r in zip(low[:-1], radix):
        cols.append([k % r + l for k in keys])
        keys = [k // r for k in keys]
    cols.append([k + low[-1] for k in keys])  # the top digit is the rest
    return dict(zip(zip(*cols), packed.values()))


# ----- the product kernel ----------------------------------------------------

def mul_add(products, base=None):
    """
    base + the sum of s * f * g over the triples (f, g, s) of products (s
    an int, base None for 0), built as one result from one dict: a
    product is one triple, an update x - f*g or a*b - c*d one call.
    The dict is keyed by the exponent at one variable,
    else by its tuple, or, once both operands of some product have
    _PACK_MIN_TERMS terms, by packed keys over the union of the boxes of
    base and every product, where no digit of a sum carries.
    """
    nvars = (products[0][0] if base is None else base).nvars
    base = {} if base is None else base.terms
    pack = False
    for f, g, _ in products:
        if f.nvars != nvars or g.nvars != nvars:
            raise DimensionError("variable counts differ: %d, %d and %d"
                                 % (nvars, f.nvars, g.nvars))
        if len(f.terms) >= _PACK_MIN_TERMS <= len(g.terms):
            pack = True
    if nvars == 1:
        out = {x: c for (x,), c in base.items()} if base else {}
        get = out.get
        for f, g, s in products:
            b = g.terms
            for (x,), c1 in f.terms.items():
                c1 *= s
                for (y,), c2 in b.items():
                    k = x + y
                    out[k] = get(k, 0) + c1 * c2
        return LaurentPoly._make(1, {(x,): c for x, c in out.items() if c})
    if not pack:
        out = dict(base)
        get = out.get
        for f, g, s in products:
            a, b = f.terms, g.terms
            if len(a) < len(b):  # the longer operand in the outer loop
                a, b = b, a
            for e1, c1 in a.items():
                c1 *= s
                for e2, c2 in b.items():
                    e = tuple(map(add, e1, e2))
                    out[e] = get(e, 0) + c1 * c2
        return LaurentPoly._make(nvars, {e: c for e, c in out.items() if c})
    work = [(f.terms, g.terms, s) for f, g, s in products if f and g]
    # the box of a product's terms is the sum of its operands' boxes
    boxes = [(_box(a), _box(b)) for a, b, _ in work]
    corners = [(list(map(add, al, bl)), list(map(add, ah, bh)))
               for (al, ah), (bl, bh) in boxes]
    if base:
        corners.append(_box(base))
    low = [min(col) for col in zip(*(x for x, _ in corners))]
    radix = [max(col) - x + 1
             for x, col in zip(low, zip(*(y for _, y in corners)))]
    out = _pack(base, low, radix) if base else {}
    get = out.get
    for (a, b, s), (_, (bl, _)) in zip(work, boxes):
        # a's digits from low - bl: those of a sum are e1 + e2 - low
        pb = list(_pack(b, bl, radix).items())
        for k1, c1 in _pack(a, list(map(sub, low, bl)), radix).items():
            c1 *= s
            for k2, c2 in pb:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
    return LaurentPoly._make(nvars, _unpack(
        {k: c for k, c in out.items() if c}, low, radix))


def box_exact_divide(p, d):
    """
    The exact quotient q with d * q == p, or None when no such q exists
    in the Laurent ring.  At one variable, long division runs on the
    coefficient lists from the top (_divide_dense on _to_dense's lists,
    no longer kept on the polynomial).  At two or more, leading-term
    elimination runs on sparse dicts of keys packed in the box of p
    (radix_i = span_i(p) + 1, the divisor shifted to its own minimum):
    a dense array over the box would have (span + 1)^m cells.  The
    quotient lies in the box 0 <= e_i <= q_i = span_i(p) - span_i(d), so
    a negative q_i, or a leading remainder term whose digits minus the
    divisor's leading digits leave [0, q_i], means there is none.  This
    is sound both ways: if d divides p, every quotient term lies in that
    box, as per-variable spans add under multiplication; if every one
    does, no key sum carries, so remainder 0 means d * q == p.  Without
    the digit check a carry fakes quotients: in the radix (3, 2) of
    t1^2 + t2, t1 + 1 packs to T + 1, which divides T^2 + T^3.
    """
    p._check(d)
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return LaurentPoly.zero(p.nvars)
    if p.nvars == 1:
        (plow, num), (dlow, den) = _to_dense(p), _to_dense(d)
        quot = _divide_dense(num, den)
        return None if quot is None else _from_dense(plow - dlow, quot)
    if len(d.terms) == 1:  # a shift, if every coefficient divides
        ((e, c),) = d.terms.items()
        quot = {x: divmod(c1, c) for x, c1 in p.terms.items()}
        if any(r for _, r in quot.values()):
            return None
        return LaurentPoly._make(p.nvars, {
            tuple(map(sub, x, e)): q for x, (q, _) in quot.items()})
    (plow, phigh), (dlow, dhigh) = _box(p.terms), _box(d.terms)
    radix = [h - l + 1 for l, h in zip(plow, phigh)]
    qspan = [r - 1 - h + l for r, l, h in zip(radix, dlow, dhigh)]
    if min(qspan) < 0:
        return None
    rem = _pack(p.terms, plow, radix)
    div = _pack(d.terms, dlow, radix)
    dlead = max(div)
    dcoeff, ddigits = div[dlead], _digits(dlead, radix)
    div = list(div.items())
    quot = {}
    while rem:
        rlead = max(rem)
        for x, y, q in zip(_digits(rlead, radix), ddigits, qspan):
            if not 0 <= x - y <= q:
                return None
        c, r = divmod(rem[rlead], dcoeff)
        if r:
            return None
        delta = rlead - dlead
        quot[delta] = c
        for k, dc in div:
            k += delta
            s = rem.get(k, 0) - c * dc
            if s:
                rem[k] = s
            else:
                del rem[k]
    return LaurentPoly._make(p.nvars, _unpack(quot, list(map(sub, plow, dlow)),
                                              radix))


def scan_divide(num, den, packed):
    """
    The packed quotient num / den of two cells of packed, or None if den
    does not divide num in the Laurent ring; num within 2h and den within
    h, h the matrix's bound (PackedMatrix.bound).  Leading-term division
    on the keys from the top, each quotient term checked: its coefficient
    must divide, its key must not fall below min(num) - min(den), and at
    two or more variables its exponents but the last must lie within h.
    That digit check is what makes the keys as strong as the exponents:
    if den divides num, the quotient lies within h (a minor, in
    _eliminate) and passes; if every term passes, den * quotient lies
    within 2h, where packing is injective, so remainder 0 means den *
    quotient == num.  In one variable the key is the exponent and no
    bound is needed.
    """
    h = packed.bound
    within = packed.within if packed.nvars > 1 else None
    dlead = max(den)
    dcoeff, low = den[dlead], min(num) - min(den)
    rest = [(k - dlead, x) for k, x in den.items() if k != dlead]
    rem, out = dict(num), {}
    while rem:
        top = max(rem)
        q, r = divmod(rem.pop(top), dcoeff)
        key = top - dlead
        if r or key < low or within and not within(key, h):
            return None
        out[key] = q
        for offset, x in rest:
            k = top + offset
            s = rem.get(k, 0) - q * x
            if s:
                rem[k] = s
            else:
                del rem[k]
    return out


# ----- the dense one-variable form --------------------------------------------

def _to_dense(p):
    """(lowest exponent, coefficients from it upwards) of a nonzero 1-variable p."""
    low = min(e for (e,) in p.terms)
    out = [0] * (max(e for (e,) in p.terms) - low + 1)
    for (e,), c in p.terms.items():
        out[e - low] = c
    return low, out


def _from_dense(low, coeffs):
    """sum of coeffs[i] * t^(low + i); both ends of coeffs must be nonzero."""
    return LaurentPoly._make(1, {(low + i,): c
                                 for i, c in enumerate(coeffs) if c})


def _divide_dense(num, den):
    """The list q with den * q == num in Z[t] by long division, or None."""
    n, lead = len(den) - 1, den[-1]
    size = len(num) - n  # of the quotient; below 1 if den is longer
    rem = list(num)
    quot = [0] * size
    for k in range(size - 1, -1, -1):
        c, r = divmod(rem[k + n], lead)
        if r:
            return None
        if c:
            quot[k] = c
            rem[k:k + n] = [x - c * y for x, y in zip(rem[k:k + n], den)]
    if any(rem[:n]):  # a remainder, or all of num when den is longer
        return None
    return quot


def _gcd_heu_dense(a, b):
    """
    gcd in Z[t] of two coefficient lists with nonzero ends, its leading
    coefficient positive: GCDHEU on the lists, as in _gcd_poly, then
    _gcd_dense once _HEU_TRIES points have failed.
    """
    ca, cb = _int_gcd(*a), _int_gcd(*b)
    c = _int_gcd(ca, cb)
    a = [x // ca for x in a] if ca != 1 else a
    b = [x // cb for x in b] if cb != 1 else b
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    for _ in range(_HEU_TRIES):
        va = vb = 0
        for x in reversed(a):
            va = va * xi + x
        for x in reversed(b):
            vb = vb * xi + x
        # xi lies beyond the roots of the one of a, b with the smaller
        # largest coefficient (Cauchy), so va or vb is nonzero
        g = _int_gcd(va, vb)
        if g <= xi // 2:  # G = g, a constant: pp(G) = 1
            return [c]
        h = _symmetric_digits(g, xi)
        k = _int_gcd(*h) if h[-1] > 0 else -_int_gcd(*h)
        h = [x // k for x in h]
        if (_divide_dense(a, h) is not None and
                _divide_dense(b, h) is not None):
            return [x * c for x in h] if c != 1 else h
        xi = _next_xi(xi)
    return [x * c for x in _gcd_dense(a, b)]


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


def parse_poly(text, nvars):
    """The text format read into a LaurentPoly, one character at a time."""
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

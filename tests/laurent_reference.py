"""
The tuple-keyed product and the graded-lex exact division that
ribboncheck.laurent ran at two or more variables before both moved to
packed exponent keys, kept unchanged as the reference the packed code is
tested against.  Both build their results through the public, checking
LaurentPoly constructor.
"""

from ribboncheck.laurent import LaurentPoly, _grlex


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

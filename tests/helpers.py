"""
Small functions that only the tests call, kept out of the package:
debug renderings of words and presentations, the raw Schreier rewriting
sizes, and the check that a polynomial is in canonical form.
"""


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

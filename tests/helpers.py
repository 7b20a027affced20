"""
Small functions that only the tests call, kept out of the package:
debug renderings of words and presentations, the raw Schreier rewriting
sizes, the check that a polynomial is in canonical form, and the Fox
derivative in the free group ring, the slow and independent reference
that the package's one-pass Jacobian is checked against.
"""

from ribboncheck.wirtinger import free_reduce, word_multiply


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

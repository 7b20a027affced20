"""
Wirtinger presentations of link groups.

A LinkDiagram yields a presentation of the fundamental group of the link
exterior with one generator per arc (a positively oriented meridian of
that arc) and one relator per crossing: at a crossing with over arc o,
incoming under arc u, outgoing under arc v and sign e, the under strand's
meridian is conjugated by the over strand's,

    v = o^e u o^-e,

stored as the relator  v (o^e u o^-e)^-1 = v o^e u^-1 o^-e, freely
reduced.  All relators are kept.

Alongside the presentation we return the map onto Z^m sending each
generator to the basis vector of its arc's component.  Free words are
tuples of (generator index, ±1) pairs, stored freely reduced.
"""

from typing import NamedTuple, Tuple

from .linkcodec import DiagramError


def free_reduce(letters):
    """Freely reduce a sequence of (generator, ±1) letters."""
    out = []
    for g, e in letters:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


class GroupPresentation(NamedTuple("GroupPresentation", [
        ("num_generators", int),
        ("relators", Tuple[Tuple[Tuple[int, int], ...], ...])])):
    __slots__ = ()

    def __new__(cls, num_generators, relators):
        for r in relators:
            for g, e in r:
                if not 0 <= g < num_generators:
                    raise DiagramError("relator letter %d out of range" % g)
                if e not in (1, -1):
                    raise DiagramError("letter exponents must be ±1")
        return super().__new__(cls, num_generators, relators)


class AbelianizationMap(NamedTuple("AbelianizationMap", [
        ("component_of", Tuple[int, ...]), ("num_components", int)])):
    """Generator -> component map inducing pi_1 ->> Z^m on meridians."""
    __slots__ = ()

    def __new__(cls, component_of, num_components):
        for c in component_of:
            if not 0 <= c < num_components:
                raise DiagramError("component index %d out of range" % c)
        return super().__new__(cls, component_of, num_components)


def wirtinger_presentation(diagram):
    """
    Presentation of the link group plus the meridian abelianization map.

    >>> from .linkcodec import parse_link_spec
    >>> p, phi = wirtinger_presentation(parse_link_spec("braid:n=2:1 1 1"))
    >>> p.num_generators, len(p.relators)
    (3, 3)
    >>> phi.component_of
    (0, 0, 0)
    """
    if diagram.num_arcs == 0:
        raise DiagramError("diagram has no arcs")
    relators = []
    for c in diagram.crossings:
        relators.append(free_reduce(((c.under_out, 1), (c.over, c.sign),
                                     (c.under_in, -1), (c.over, -c.sign))))
    phi = AbelianizationMap(diagram.component_of_arc, diagram.num_components)
    return GroupPresentation(diagram.num_arcs, tuple(relators)), phi


def apply_phi(word, phi):
    """
    Exponent-sum image of a free word in Z^m, as an exponent tuple.

    >>> phi = AbelianizationMap((0, 1), 2)
    >>> apply_phi(((0, 1), (1, 1), (0, -1)), phi)
    (0, 1)
    """
    exps = [0] * phi.num_components
    for g, e in word:
        exps[phi.component_of[g]] += e
    return tuple(exps)

"""
Fox free differential calculus.

The Fox derivative d/dx_j is the unique additive map on the free group
ring with dx_i/dx_j = [i == j] and the product rule
d(uv)/dx_j = du/dx_j + u * dv/dx_j; applying it to x x^-1 = 1 forces
d(x^-1)/dx = -x^-1.  Derivatives of the relators of a presentation,
pushed through the abelianization into the Laurent ring, assemble into
the Jacobian matrix that presents the rel-basepoint Alexander module.

Derivatives are computed in a single left-to-right pass carrying the
accumulated prefix, so long relators stay linear-time.  The group ring
is never materialised: the Jacobian applies the abelianization eagerly,
term by term, since Laurent arithmetic is far cheaper than free-group
ring arithmetic.  A row builds cells only for the generators its relator
touches, at most three in a Wirtinger relator; all other cells of one
Jacobian are one shared zero, in a matrix that stays dense.
"""

from dataclasses import dataclass, field
from typing import Optional, Tuple

from .laurent import LaurentPoly


@dataclass(frozen=True)
class AlexanderPresentation:
    """Fox Jacobian over Z[t1^±1..tm^±1]; rows are relators, columns generators."""
    matrix: Tuple[Tuple[LaurentPoly, ...], ...]
    nvars: int
    generator_component: Tuple[int, ...]
    # if given, a unit per row claimed to give kernel * matrix = 0, unchecked
    kernel: Optional[Tuple[LaurentPoly, ...]] = field(default=None,
                                                      compare=False)

    @property
    def num_relators(self):
        return len(self.matrix)

    @property
    def num_generators(self):
        return len(self.generator_component)


def _fox_row(word, num_generators, phi, zero):
    """phi-image of all Fox derivatives of one word, in a single pass."""
    m = phi.num_components
    cells = {}
    prefix = [0] * m
    for g, e in word:
        comp = phi.component_of[g]
        if e == -1:
            prefix[comp] -= 1
        cell = cells.setdefault(g, {})
        exps = tuple(prefix)
        s = cell.get(exps, 0) + e
        if s:
            cell[exps] = s
        else:
            del cell[exps]
        if e == 1:
            prefix[comp] += 1
    row = [zero] * num_generators
    for g, cell in cells.items():
        if cell:
            row[g] = LaurentPoly._make(m, cell)
    return tuple(row)


def jacobian(pres, phi):
    """
    Assemble the Alexander presentation matrix with entries
    phi(d r_i / d x_j).

    >>> from .wirtinger import GroupPresentation, AbelianizationMap
    >>> p = GroupPresentation(2, ((((0,1),(1,1),(0,-1),(1,-1)),)))
    >>> A = jacobian(p, AbelianizationMap((0, 1), 2))
    >>> [str(e) for e in A.matrix[0]]
    ['-t2 + 1', 't1 - 1']
    """
    if len(phi.component_of) != pres.num_generators:
        raise ValueError("abelianization map does not match presentation")
    zero = LaurentPoly.zero(phi.num_components)
    rows = tuple(_fox_row(r, pres.num_generators, phi, zero)
                 for r in pres.relators)
    return AlexanderPresentation(rows, phi.num_components, phi.component_of)

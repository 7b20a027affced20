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
term by term.  Each exponent vector is one integer key (laurent.KeyCodec),
so the prefix is one int and a cell is a dict {key: coefficient}.  A
row holds cells only for the generators its relator touches, at most
three in a Wirtinger relator.  alexander's unit-pivot reduction and
every minor of the blocks it leaves run on these rows; the LaurentPoly
matrix is decoded only where it is read.
"""

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .laurent import KeyCodec, LaurentPoly


class PackedMatrix(KeyCodec, Sequence):
    """
    A matrix over Z[t1^±1..tm^±1] held as rows {column: {key:
    coefficient}} of its nonzero cells, each keyed by the matrix's own
    laurent.KeyCodec: zero and unit tests on keys are exact within its
    radius.  Read as a sequence it is the matrix's LaurentPoly rows,
    decoded on first read, every empty cell one shared zero.
    """

    __slots__ = ("rows", "ncols", "_decoded")

    def __init__(self, rows, ncols, nvars, radius):
        self.rows, self.ncols = rows, ncols
        self.nvars, self.radius = nvars, radius
        self._decoded = None

    @classmethod
    def pack(cls, matrix, ncols, nvars, radius):
        """The rows of LaurentPolys of matrix, packed."""
        out = cls([], ncols, nvars, radius)
        out.rows = [{j: out.cell(x) for j, x in enumerate(row) if x.terms}
                    for row in matrix]
        return out

    def _matrix(self):
        if self._decoded is None:
            zero, decoded = LaurentPoly.zero(self.nvars), []
            for packed in self.rows:
                row = [zero] * self.ncols
                for j, cell in packed.items():
                    row[j] = self.poly(cell)
                decoded.append(tuple(row))
            self._decoded = tuple(decoded)
        return self._decoded

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        return self._matrix()[i]

    def __iter__(self):
        return iter(self._matrix())

    def __eq__(self, other):
        if isinstance(other, PackedMatrix):
            other = other._matrix()
        return self._matrix() == other

    def __hash__(self):
        return hash(self._matrix())

    def __repr__(self):
        return repr(self._matrix())


@dataclass(frozen=True)
class AlexanderPresentation:
    """Fox Jacobian over Z[t1^±1..tm^±1]; rows are relators, columns generators."""
    matrix: Sequence  # rows of LaurentPolys, or a PackedMatrix
    nvars: int
    generator_component: Tuple[int, ...]
    # if given, a unit per row claimed to give kernel * matrix = 0; only
    # alexander._kernel_certificate checks it, on the packed block rows,
    # and only if its exponents lie within the matrix's bound h
    kernel: Optional[Tuple[LaurentPoly, ...]] = field(default=None,
                                                      compare=False)

    @property
    def num_relators(self):
        return len(self.matrix)

    @property
    def num_generators(self):
        return len(self.generator_component)


def jacobian(pres, phi):
    """
    Assemble the Alexander presentation matrix with entries
    phi(d r_i / d x_j), as a PackedMatrix.  A row's exponents are
    prefixes of its relator, at most its length in absolute value, so
    h = twice their sum bounds every minor of a reduced block
    (alexander._reduced_blocks): the matrix is packed with bound h.

    >>> from .wirtinger import GroupPresentation, AbelianizationMap
    >>> p = GroupPresentation(2, ((((0,1),(1,1),(0,-1),(1,-1)),)))
    >>> A = jacobian(p, AbelianizationMap((0, 1), 2))
    >>> [str(e) for e in A.matrix[0]]
    ['-t2 + 1', 't1 - 1']
    """
    if len(phi.component_of) != pres.num_generators:
        raise ValueError("abelianization map does not match presentation")
    h = 2 * sum(map(len, pres.relators))
    radius = 2 * h
    weight = [(2 * radius + 1) ** c for c in phi.component_of]
    rows = []
    for word in pres.relators:
        cells, prefix = {}, 0
        for g, e in word:
            if e == -1:
                prefix -= weight[g]
            cell = cells.setdefault(g, {})
            s = cell.get(prefix, 0) + e
            if s:
                cell[prefix] = s
            else:
                del cell[prefix]
            if e == 1:
                prefix += weight[g]
        rows.append({g: cell for g, cell in cells.items() if cell})
    m = phi.num_components
    return AlexanderPresentation(
        PackedMatrix(rows, pres.num_generators, m, radius), m,
        phi.component_of)

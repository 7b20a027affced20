"""
Link diagram encodings: planar diagram (PD) codes and braid words.

Both encodings are parsed from a common spec-string grammar and compiled
to an oriented, ordered LinkDiagram.  A LinkDiagram records arcs (maximal
over-strand segments, one meridian generator each downstream) together
with one crossing record per crossing: the over arc, the incoming and
outgoing under arcs, and the crossing sign.

Spec string grammar (whitespace-insensitive between tokens):

    pd:X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)
    braid:n=2:1 1 1
    braid:n=3:1,-2,1,-2

PD convention: the first entry of each tuple is the incoming under-strand
edge; the remaining three follow counterclockwise.  Edge labels number
1..2c consecutively along each component's orientation (label x exits
into label x+1, wrapping within the component), and every direction is
read from them: an over strand runs whichever way its labels step.  A
crossing is positive when the over strand runs from the second tuple
entry to the fourth.
Planarity is not verified; non-planar (virtual) codes that are
arc-consistent are accepted and simply produce the module invariants of
their combinatorial data.

Braid convention: letter i > 0 is the positive generator taking the
strand at position i over the strand at position i+1; negative letters
are inverses.  Components of a closure are ordered by least strand index,
PD components by least edge label.
"""

from itertools import accumulate
from typing import NamedTuple, Optional, Tuple


class ParseError(ValueError):
    """Malformed encoding text; carries the offending position."""

    def __init__(self, message, pos=None):
        super().__init__(message if pos is None
                         else "%s (at position %d)" % (message, pos))
        self.pos = pos


class DiagramError(ValueError):
    """Structurally inconsistent diagram data."""


class PDCode(NamedTuple("PDCode", [
        ("crossings", Tuple[Tuple[int, int, int, int], ...])])):
    """PD crossing 4-tuples whose edge labels are 1..2c, each used twice."""
    __slots__ = ()

    def __new__(cls, crossings):
        if any(len(tup) != 4 for tup in crossings):
            raise DiagramError("crossing tuples must have 4 entries")
        counts = {}
        for tup in crossings:
            for v in tup:
                counts[v] = counts.get(v, 0) + 1
        bad = sorted(v for v, k in counts.items() if k != 2)
        if bad:
            raise DiagramError("edge labels %s do not occur exactly twice" % bad)
        if set(counts) != set(range(1, 2 * len(crossings) + 1)):
            raise DiagramError(
                "edge labels must be exactly 1..%d" % (2 * len(crossings)))
        return super().__new__(cls, crossings)

    def __len__(self):
        return len(self.crossings)


class BraidWord(NamedTuple("BraidWord", [("strands", int),
                                         ("letters", Tuple[int, ...])])):
    __slots__ = ()

    def __new__(cls, strands, letters):
        if int(strands) != strands or any(int(k) != k for k in letters):
            raise DiagramError("braid strands and letters must be integers")
        if strands < 1:
            raise DiagramError("braid needs at least one strand")
        for k in letters:
            if k == 0 or abs(k) > strands - 1:
                raise DiagramError(
                    "generator %d out of range for %d strands" % (k, strands))
        return super().__new__(cls, int(strands), tuple(map(int, letters)))

    def mirror(self):
        """Negate every letter (mirror image of the closure)."""
        return BraidWord(self.strands, tuple(-k for k in self.letters))

    def reverse(self):
        """Reverse the word (reverses the closure's orientation)."""
        return BraidWord(self.strands, tuple(reversed(self.letters)))

    def inverse(self):
        """Concordance inverse -K: reverse of the mirror."""
        return self.mirror().reverse()

    def permutation(self):
        """Image of each strand under the braid, as a tuple."""
        perm = list(range(self.strands))
        for k in self.letters:
            i = abs(k) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        return tuple(perm)

    def cycles(self):
        """Cycles of the underlying permutation, ordered by least strand."""
        perm = self.permutation()
        seen = [False] * self.strands
        out = []
        for s in range(self.strands):
            if seen[s]:
                continue
            cyc = []
            j = s
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = perm[j]
            out.append(tuple(cyc))
        return out


class Crossing(NamedTuple):
    over: int
    under_in: int
    under_out: int
    sign: int


class LinkDiagram(NamedTuple):
    """Oriented, ordered link diagram in arc/crossing form."""
    num_arcs: int
    component_of_arc: Tuple[int, ...]
    crossings: Tuple[Crossing, ...]
    # exponents of y_k per crossing, sum_k y_k * Fox row k = 0 (braid_closure)
    kernel: Optional[Tuple[Tuple[int, ...], ...]] = None

    @property
    def num_components(self):
        return max(self.component_of_arc) + 1 if self.component_of_arc else 0

    @property
    def num_crossings(self):
        return len(self.crossings)


# ----- parsing ----------------------------------------------------------------

def parse_pd(text):
    """
    Parse "X(a,b,c,d);X(...)..." into a PDCode, which checks that each
    edge label occurs exactly twice and that the labels are 1..2c.

    >>> parse_pd("X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)").crossings[0]
    (1, 4, 2, 5)
    """
    s = text.strip()
    if not s:
        raise ParseError("empty PD code")
    tuples = []
    pos = 0
    for chunk in s.split(";"):
        chunk_stripped = chunk.strip()
        if not chunk_stripped:
            raise ParseError("empty crossing entry", pos)
        body = chunk_stripped
        if body[0] in "Xx":
            body = body[1:].lstrip()
        if not (body.startswith("(") and body.endswith(")")):
            raise ParseError("expected X(a,b,c,d)", pos)
        fields = [f.strip() for f in body[1:-1].split(",")]
        if len(fields) != 4:
            raise ParseError("crossing tuple must have 4 entries, got %d"
                             % len(fields), pos)
        try:
            labels = tuple(int(f) for f in fields)
        except ValueError:
            raise ParseError("non-integer edge label in %r" % chunk_stripped, pos)
        if any(v < 1 for v in labels):
            raise ParseError("edge labels must be positive", pos)
        tuples.append(labels)
        pos += len(chunk) + 1
    return PDCode(tuple(tuples))


def parse_braid(text):
    """
    Parse "n=3: 1 -2 1 -2" (letters may be comma- or space-separated).

    >>> parse_braid("n=2: 1 1 1")
    BraidWord(strands=2, letters=(1, 1, 1))
    """
    n, tail = _braid_head(text)
    letters = []
    for tok in tail.replace(",", " ").split():
        try:
            k = int(tok)
        except ValueError:
            raise ParseError("braid letter %r is not an integer" % tok)
        if k == 0 or abs(k) > n - 1:
            raise ParseError("generator %d out of range for %d strands" % (k, n))
        letters.append(k)
    return BraidWord(n, tuple(letters))


def _braid_head(text):
    """Split "n=3: 1 -2 1 -2" into the strand count and the letter text."""
    s = text.strip()
    if not s.startswith("n"):
        raise ParseError("braid spec must start with 'n='", 0)
    rest = s[1:].lstrip()
    if not rest.startswith("="):
        raise ParseError("braid spec must start with 'n='", 1)
    head, sep, tail = rest[1:].partition(":")
    if not sep:
        raise ParseError("missing ':' after strand count")
    try:
        n = int(head.strip())
    except ValueError:
        raise ParseError("strand count %r is not an integer" % head.strip())
    if n < 1:
        raise ParseError("strand count must be >= 1")
    return n, tail


def spec_size(text):
    """
    (strands, crossings) of a link spec, read from its text before
    anything is built: a braid closure has one crossing per letter, a PD
    code one per ';'-separated entry.  strands is None for a PD code; the
    result is None for a spec of neither kind.

    >>> spec_size("braid:n=1000000:1 -2,3")
    (1000000, 3)
    >>> spec_size("pd:X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)")
    (None, 3)
    """
    s = text.strip()
    if s.lower().startswith("pd:"):
        body = s[3:].strip()
        return None, body.count(";") + 1 if body else 0
    if s.lower().startswith("braid:"):
        n, tail = _braid_head(s[6:])
        return n, len(tail.replace(",", " ").split())
    return None


def parse_link_spec(text):
    """Dispatch a "pd:..." or "braid:..." spec string to a LinkDiagram."""
    s = text.strip()
    if s.lower().startswith("pd:"):
        return pd_diagram(parse_pd(s[3:]))
    if s.lower().startswith("braid:"):
        return braid_closure(parse_braid(s[6:]))
    raise ParseError("link spec must start with 'pd:' or 'braid:'", 0)


def _classes(elements, pairs):
    """
    Merge the elements joined by the pairs (union-find, each root the
    least element of its class): ({element: class}, number of classes),
    the classes numbered 0, 1, ... in the order of their least elements.
    """
    parent = {e: e for e in elements}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    roots = {e: find(e) for e in parent}
    number = {r: i for i, r in enumerate(sorted(set(roots.values())))}
    return {e: number[r] for e, r in roots.items()}, len(number)


# ----- braid closure -----------------------------------------------------------

def braid_closure(b):
    """
    The trace closure of a braid word as a LinkDiagram, with its left
    kernel certificate.  Reading letter k turns the product P of the arcs
    at positions 0 .. n - 1 into (W r_k W^-1) P, with r_k the crossing's
    relator and W the product of the arcs left of it, times the over arc
    if k < 0 (Artin).  The closure makes the last P the first, so the
    conjugates multiply to 1: sum_k phi(W_k) * d r_k / d x_j = 0.

    >>> d = braid_closure(parse_braid("n=2:1 1 1"))
    >>> d.num_components, d.num_crossings
    (1, 3)
    >>> braid_closure(parse_braid("n=2:")).num_components
    2
    """
    n, cycles = b.strands, b.cycles()
    comp_of_strand = {}
    for ci, cyc in enumerate(cycles):
        for s in cyc:
            comp_of_strand[s] = ci

    arc_comp = []  # the component of each arc before merging

    def new_arc(comp):
        arc_comp.append(comp)
        return len(arc_comp) - 1

    def bumped(exps, c):  # exps with one added at index c
        return exps[:c] + (exps[c] + 1,) + exps[c + 1:]

    pos_strand = list(range(n))
    start_arc = [new_arc(comp_of_strand[s]) for s in pos_strand]
    current = list(start_arc)
    raw_crossings, kernel = [], []
    # prefix[j]: phi of the arcs at positions < j, so phi(W) is prefix[i],
    # or prefix[i + 1] once the swap has put the over arc at i if k < 0
    prefix = list(accumulate((comp_of_strand[s] for s in pos_strand),
                             bumped, initial=(0,) * len(cycles)))
    for k in b.letters:
        i = abs(k) - 1
        sign = 1 if k > 0 else -1
        # positive letter: strand at position i passes over
        over_pos, under_pos = (i, i + 1) if k > 0 else (i + 1, i)
        under_strand = pos_strand[under_pos]
        out_arc = new_arc(comp_of_strand[under_strand])
        raw_crossings.append(
            (current[over_pos], current[under_pos], out_arc, sign))
        current[under_pos] = out_arc
        current[i], current[i + 1] = current[i + 1], current[i]
        pos_strand[i], pos_strand[i + 1] = pos_strand[i + 1], pos_strand[i]
        c = comp_of_strand[pos_strand[i]]
        if c != comp_of_strand[pos_strand[i + 1]]:
            prefix[i + 1] = bumped(prefix[i], c)
        kernel.append(prefix[i] if k > 0 else prefix[i + 1])
    arc, num_arcs = _classes(range(len(arc_comp)), zip(current, start_arc))
    comp_of_arc = [None] * num_arcs
    for a, i in arc.items():
        comp_of_arc[i] = arc_comp[a]
    crossings = tuple(Crossing(arc[o], arc[u], arc[v], s)
                      for o, u, v, s in raw_crossings)
    return LinkDiagram(num_arcs, tuple(comp_of_arc), crossings, tuple(kernel))


def connected_sum(b1, b2):
    """
    Braid word for the connected sum of two braid-closure knots: b2's
    letters are shifted onto fresh strands sharing one strand with b1.

    >>> connected_sum(parse_braid("n=2:1 1 1"), parse_braid("n=3:1 -2 1 -2"))
    BraidWord(strands=4, letters=(1, 1, 1, 2, -3, 2, -3))
    """
    for b in (b1, b2):
        if len(b.cycles()) != 1:
            raise DiagramError("connected sum operands must close to knots")
    shift = b1.strands - 1
    letters = b1.letters + tuple(k + shift if k > 0 else k - shift
                                 for k in b2.letters)
    return BraidWord(b1.strands + b2.strands - 1, letters)


# ----- PD to diagram ------------------------------------------------------------

def pd_diagram(pd):
    """
    Compile a PDCode to a LinkDiagram, reading every direction from the
    labelling convention, with no search.  A component is a run of
    labels lo..hi, x and x + 1 joined by a strand, and every strand
    steps x -> x + 1, or hi -> lo: a strand that joins two runs steps
    along neither and is rejected.  The under strand must run a -> c.
    The over strand runs b -> d if d follows b and b is not yet incoming
    anywhere, else d -> b under the same test.  Both directions fit only
    on a component of two edges: where it passes under, that crossing
    has made one edge incoming, and where it passes over at both its
    crossings it runs b -> d at the first in code order.
    """
    if not pd.crossings:
        raise DiagramError("empty PD code has no strands; use a braid spec")
    edges = range(1, 2 * len(pd.crossings) + 1)
    # a component is a run of labels, x and x + 1 joined by a strand
    joined = {min(x, y) for a, b, c, d in pd.crossings
              for x, y in ((a, c), (b, d)) if abs(x - y) == 1}
    runs = [[]]
    for e in edges:
        runs[-1].append(e)
        if e not in joined:
            runs.append([])
    comp, step = {}, {}
    for i, run in enumerate(runs[:-1]):
        comp.update(dict.fromkeys(run, i))
        step.update(zip(run, run[1:] + run[:1]))

    incoming = set()
    for a, _, c, _ in pd.crossings:
        if step[a] != c:
            raise DiagramError(
                "labels must step by one along each component (edge %d)" % a)
        if a in incoming:
            raise DiagramError("edge %d is incoming at two crossings" % a)
        incoming.add(a)
    over = []
    for ci, (_, b, _, d) in enumerate(pd.crossings):
        if step[b] == d and b not in incoming:
            over.append((b, d))
        elif step[d] == b and d not in incoming:
            over.append((d, b))
        else:
            raise DiagramError(
                "no consistent over-strand orientation at crossing %d" % ci)
        incoming.add(over[-1][0])

    # arcs: merge each over edge pair; under passes keep edges separate
    arc, num_arcs = _classes(edges, over)
    comp_of_arc = [None] * num_arcs
    for e, i in arc.items():
        comp_of_arc[i] = comp[e]
    crossings = tuple(Crossing(arc[oin], arc[a], arc[c], 1 if oin == b else -1)
                      for (a, b, c, _), (oin, _) in zip(pd.crossings, over))
    return LinkDiagram(num_arcs, tuple(comp_of_arc), crossings)


# ----- diagram-level quantities --------------------------------------------------

def linking_number(diagram, i, j):
    """
    Half the signed count of crossings between components i and j.

    >>> linking_number(braid_closure(parse_braid("n=2:1 1")), 0, 1)
    1
    """
    m = diagram.num_components
    if not (0 <= i < m and 0 <= j < m):
        raise DiagramError("component index out of range")
    if i == j:
        raise DiagramError("linking number needs two distinct components")
    comp = diagram.component_of_arc
    total = 0
    for c in diagram.crossings:
        pair = {comp[c.over], comp[c.under_in]}
        if pair == {i, j}:
            total += c.sign
    if total % 2:
        raise DiagramError("odd inter-component crossing sum; diagram corrupt")
    return total // 2


def sublink(diagram, component):
    """
    The diagram of a single component, with all crossings involving other
    components smoothed away (the retained strand runs straight through).
    """
    m = diagram.num_components
    if not 0 <= component < m:
        raise DiagramError("component index out of range")
    comp = diagram.component_of_arc
    keep_arcs = [a for a in range(diagram.num_arcs) if comp[a] == component]
    kept_crossings = []
    fused = []  # under strand survives; fuse the split arcs back together
    for c in diagram.crossings:
        if comp[c.under_in] == component:
            if comp[c.over] == component:
                kept_crossings.append(c)
            else:
                fused.append((c.under_in, c.under_out))
    arc, num_arcs = _classes(keep_arcs, fused)
    crossings = tuple(Crossing(arc[c.over], arc[c.under_in],
                               arc[c.under_out], c.sign)
                      for c in kept_crossings)
    return LinkDiagram(num_arcs, (0,) * num_arcs, crossings)

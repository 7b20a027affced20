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
into label x+1, wrapping within the component).  A crossing is positive
when the over strand runs from the second tuple entry to the fourth.
Planarity is not verified; non-planar (virtual) codes that are
arc-consistent are accepted and simply produce the module invariants of
their combinatorial data.

Braid convention: letter i > 0 is the positive generator taking the
strand at position i over the strand at position i+1; negative letters
are inverses.  Components of a closure are ordered by least strand index,
PD components by least edge label.
"""

from dataclasses import dataclass
from typing import Tuple


class ParseError(ValueError):
    """Malformed encoding text; carries the offending position."""

    def __init__(self, message, pos=None):
        super().__init__(message if pos is None
                         else "%s (at position %d)" % (message, pos))
        self.pos = pos


class DiagramError(ValueError):
    """Structurally inconsistent diagram data."""


@dataclass(frozen=True)
class PDCode:
    crossings: Tuple[Tuple[int, int, int, int], ...]

    def __len__(self):
        return len(self.crossings)


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: Tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise DiagramError("braid needs at least one strand")
        for k in self.letters:
            if k == 0 or abs(k) > self.strands - 1:
                raise DiagramError(
                    "generator %d out of range for %d strands" % (k, self.strands))

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

    def spec(self):
        return "braid:n=%d:%s" % (self.strands, " ".join(map(str, self.letters)))


@dataclass(frozen=True)
class Crossing:
    over: int
    under_in: int
    under_out: int
    sign: int


@dataclass(frozen=True)
class LinkDiagram:
    """Oriented, ordered link diagram in arc/crossing form."""
    num_arcs: int
    component_of_arc: Tuple[int, ...]
    crossings: Tuple[Crossing, ...]

    @property
    def num_components(self):
        return max(self.component_of_arc) + 1 if self.component_of_arc else 0

    @property
    def num_crossings(self):
        return len(self.crossings)

    def key(self):
        """Stable identity of the combinatorial data, for provenance."""
        return (self.num_arcs, self.component_of_arc,
                tuple((c.over, c.under_in, c.under_out, c.sign)
                      for c in self.crossings))


# ----- parsing ----------------------------------------------------------------

def parse_pd(text):
    """
    Parse "X(a,b,c,d);X(...)..." into a validated PDCode.  Each edge label
    must occur exactly twice and labels must be 1..2c.

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
    counts = {}
    for tup in tuples:
        for v in tup:
            counts[v] = counts.get(v, 0) + 1
    bad = sorted(v for v, k in counts.items() if k != 2)
    if bad:
        raise DiagramError("edge labels %s do not occur exactly twice" % bad)
    expected = set(range(1, 2 * len(tuples) + 1))
    if set(counts) != expected:
        raise DiagramError("edge labels must be exactly 1..%d" % (2 * len(tuples)))
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


# ----- braid closure -----------------------------------------------------------

def braid_closure(b):
    """
    The trace closure of a braid word as a LinkDiagram.

    >>> d = braid_closure(parse_braid("n=2:1 1 1"))
    >>> d.num_components, d.num_crossings
    (1, 3)
    >>> braid_closure(parse_braid("n=2:")).num_components
    2
    """
    n = b.strands
    comp_of_strand = {}
    for ci, cyc in enumerate(b.cycles()):
        for s in cyc:
            comp_of_strand[s] = ci

    parent = []  # union-find over arc ids; grows as arcs appear
    arc_comp = []

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    def new_arc(comp):
        parent.append(len(parent))
        arc_comp.append(comp)
        return len(parent) - 1

    pos_strand = list(range(n))
    start_arc = [new_arc(comp_of_strand[s]) for s in pos_strand]
    current = list(start_arc)
    raw_crossings = []
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
    for p in range(n):
        union(current[p], start_arc[p])

    roots = sorted({find(a) for a in range(len(parent))})
    arc_index = {r: i for i, r in enumerate(roots)}
    comp_of_arc = [None] * len(roots)
    for a in range(len(parent)):
        comp_of_arc[arc_index[find(a)]] = arc_comp[a]
    crossings = tuple(
        Crossing(arc_index[find(o)], arc_index[find(u)], arc_index[find(v)], s)
        for o, u, v, s in raw_crossings)
    return LinkDiagram(len(roots), tuple(comp_of_arc), crossings)


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
    Compile a PDCode to a LinkDiagram.  Resolves over-strand directions by
    propagating the constraint that every edge label has exactly one head
    and one tail among the crossing slots, then checks the per-component
    consecutive-labelling convention.
    """
    if not pd.crossings:
        raise DiagramError("empty PD code has no strands; use a braid spec")
    n_edges = 2 * len(pd.crossings)
    head = {}  # edge -> crossing index where the edge points in
    tail = {}

    def set_head(e, c):
        if e in head:
            raise DiagramError("edge %d is incoming at two crossings" % e)
        head[e] = c

    def set_tail(e, c):
        if e in tail:
            raise DiagramError("edge %d is outgoing at two crossings" % e)
        tail[e] = c

    for ci, (a, bb, c, d) in enumerate(pd.crossings):
        set_head(a, ci)
        set_tail(c, ci)

    # orient the over strand of each crossing: over_dir[ci] = (in_edge, out_edge)
    over_dir = {}
    undecided = set(range(len(pd.crossings)))
    while undecided:
        progressed = False
        for ci in sorted(undecided):
            a, bb, c, d = pd.crossings[ci]
            if bb == d:
                # over strand is a closed loop through this crossing
                candidates = ((bb, bb),)
            else:
                candidates = ((bb, d), (d, bb))
            choices = []
            for oin, oout in candidates:
                if oin not in head and oout not in tail:
                    choices.append((oin, oout))
            if len(choices) == 1:
                oin, oout = choices[0]
                set_head(oin, ci)
                set_tail(oout, ci)
                over_dir[ci] = (oin, oout)
                undecided.discard(ci)
                progressed = True
            elif not choices:
                raise DiagramError(
                    "no consistent over-strand orientation at crossing %d" % ci)
        if not progressed and undecided:
            # residual symmetric choice; prefer the label-successor direction
            ci = min(undecided)
            a, bb, c, d = pd.crossings[ci]
            oin, oout = (bb, d) if d == bb + 1 else (max(bb, d), min(bb, d))
            set_head(oin, ci)
            set_tail(oout, ci)
            over_dir[ci] = (oin, oout)
            undecided.discard(ci)

    succ = {}
    for ci, (a, bb, c, d) in enumerate(pd.crossings):
        succ[a] = c
        oin, oout = over_dir[ci]
        succ[oin] = oout
    if sorted(succ) != list(range(1, n_edges + 1)):
        raise DiagramError("orientation resolution left edges unassigned")

    # components as cycles of succ; labels in a component must be consecutive
    comp_of_edge = {}
    comp_min = []
    seen = set()
    for e in range(1, n_edges + 1):
        if e in seen:
            continue
        cyc = []
        x = e
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = succ[x]
        lo, hi = min(cyc), max(cyc)
        if sorted(cyc) != list(range(lo, hi + 1)):
            raise DiagramError(
                "edge labels %s are not consecutive along one component"
                % sorted(cyc))
        for y in cyc:
            if succ[y] != (y + 1 if y < hi else lo):
                raise DiagramError(
                    "labels must step by one along each component (edge %d)" % y)
        ci = len(comp_min)
        comp_min.append(lo)
        for y in cyc:
            comp_of_edge[y] = ci
    order = sorted(range(len(comp_min)), key=lambda i: comp_min[i])
    comp_rank = {old: new for new, old in enumerate(order)}

    # arcs: merge each over edge pair; under passes keep edges separate
    arc_parent = list(range(n_edges + 1))

    def find(x):
        while arc_parent[x] != x:
            arc_parent[x] = arc_parent[arc_parent[x]]
            x = arc_parent[x]
        return x

    for ci in range(len(pd.crossings)):
        oin, oout = over_dir[ci]
        ra, rb = find(oin), find(oout)
        if ra != rb:
            arc_parent[max(ra, rb)] = min(ra, rb)

    roots = sorted({find(e) for e in range(1, n_edges + 1)})
    arc_index = {r: i for i, r in enumerate(roots)}
    comp_of_arc = [comp_rank[comp_of_edge[r]] for r in roots]

    crossings = []
    for ci, (a, bb, c, d) in enumerate(pd.crossings):
        oin, oout = over_dir[ci]
        sign = 1 if oin == bb else -1
        crossings.append(Crossing(arc_index[find(oin)],
                                  arc_index[find(a)],
                                  arc_index[find(c)],
                                  sign))
    return LinkDiagram(len(roots), tuple(comp_of_arc), tuple(crossings))


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
    parent = {a: a for a in keep_arcs}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    kept_crossings = []
    for c in diagram.crossings:
        over_in = comp[c.over] == component
        under_in_comp = comp[c.under_in] == component
        if over_in and under_in_comp:
            kept_crossings.append(c)
        elif under_in_comp:
            # under strand survives; fuse the split arcs back together
            ra, rb = find(c.under_in), find(c.under_out)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    roots = sorted({find(a) for a in keep_arcs})
    index = {r: i for i, r in enumerate(roots)}
    crossings = tuple(Crossing(index[find(c.over)], index[find(c.under_in)],
                               index[find(c.under_out)], c.sign)
                      for c in kept_crossings)
    return LinkDiagram(len(roots), (0,) * len(roots), crossings)

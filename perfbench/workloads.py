"""
Seeded inputs for the four workloads.

The program receives only what is built here: spec strings on the
command line and, for table_pairs, one batch CSV.  The same seed gives
byte-identical inputs (see Workload.digest).  A workload is a sequence
of requests, no request twice; every pass of a run sends the whole
sequence.  pass_s is about how long one pass took on the commit the
benchmark was defined on (a 2-core x86-64 container); run.py sizes a
run's passes from it and --seconds.

The random diagrams come from a corpus drawn once, from a generator
with a fixed seed, out of the distribution the workload names; --seed
orders the requests (and the rows of the batch CSV).  Random closures of
the same size differ up to twentyfold in cost, and a closure and its
mirror image up to twofold, so a corpus drawn afresh for every seed
would move the median latency by up to a tenth from one seed to the
next and hide the changes the benchmark is there to show.
"""

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass, field

import published
from reference import Link, burau

WORKLOADS = ("table_pairs", "large_single", "split_fallback", "oracle_verify")
COVERS = ("2", "3", "5")


@dataclass(frozen=True)
class Request:
    argv: tuple
    kind: str  # "compute" | "oracle" | "batch"
    link: Link = None  # compute and oracle requests
    rows: tuple = ()  # batch requests


@dataclass
class Workload:
    name: str
    seed: int
    requests: list
    pass_s: float  # seconds a pass takes on the defining commit
    links: list  # every diagram the references are needed for
    files: dict = field(default_factory=dict)  # relative path -> text
    sizes: str = ""
    command: str = ""

    def digest(self):
        blob = json.dumps([[list(r.argv) for r in self.requests],
                           sorted(self.files.items())])
        return hashlib.sha256(blob.encode()).hexdigest()


# ----- braid words ------------------------------------------------------------

def braid_spec(strands, letters):
    return "braid:n=%d:%s" % (strands, " ".join(map(str, letters)))


def closure_components(strands, letters):
    perm = list(range(strands))
    for k in letters:
        i = abs(k) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen = set()
    count = 0
    for s in range(strands):
        if s in seen:
            continue
        count += 1
        while s not in seen:
            seen.add(s)
            s = perm[s]
    return count


def random_word(rng, strands, crossings):
    """Random letters with no adjacent cancelling pair."""
    letters = []
    while len(letters) < crossings:
        k = rng.randint(1, strands - 1) * rng.choice((1, -1))
        if letters and letters[-1] == -k:
            continue
        letters.append(k)
    return tuple(letters)


def crossing_counts(strands, components, low, high):
    """
    Crossing counts in [low, high] a closure with this many strands and
    components can have: the braid permutation's parity is the crossing
    count's, and a permutation with c cycles on n points has parity n - c.
    """
    return [c for c in range(low, high + 1) if (c - strands + components) % 2 == 0]


def random_closure(rng, name, strands, crossings, components):
    """A closure with these counts and a nonzero reference."""
    if crossings not in crossing_counts(strands, components, crossings, crossings):
        raise ValueError("no %d-strand closure with %d components has %d crossings"
                         % (strands, components, crossings))
    while True:
        letters = random_word(rng, strands, crossings)
        if closure_components(strands, letters) != components:
            continue
        if components > 1 and not burau(strands, letters):
            continue
        return Link(name, braid_spec(strands, letters), components, crossings,
                    ("burau", strands, letters))


def bundled_links(root):
    """Rows of the program's bundled knots.csv and links.csv."""
    out = []
    for filename in ("knots.csv", "links.csv"):
        path = root / "src" / "ribboncheck" / "data" / filename
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                if not row:
                    continue
                name, spec = row[0].strip(), row[1].strip()
                poly = published.polynomial(name)
                if poly is None:
                    raise ValueError("no published polynomial for bundled %s" % name)
                crossings = spec.count("X(") if spec.startswith("pd:") else len(
                    spec.split(":", 2)[2].split())
                out.append(Link(name, spec, len(next(iter(poly))), crossings,
                                ("published", name)))
    return out


# ----- workloads --------------------------------------------------------------

def table_pairs(rng, root, seed):
    """
    Catalogue screening: the bundled tables plus random closures, one
    CSV in a seeded row order; the one request is batch --pairs --jobs 2
    over it.  The random rows are two knots and two 2-component links on
    each of 2, 3 and 4 strands, with 7-8 and 9-10 crossings (the
    permutation's parity picks one of each pair).
    """
    corpus, taken = random.Random("table_pairs:corpus"), set()
    rows = bundled_links(root)
    for components in (1, 2):
        for strands in (2, 3, 4):
            for crossings in crossing_counts(strands, components, 7, 10):
                rows.append(corpus_closure(
                    corpus, taken,
                    "rand_%s%d_%d" % ("kl"[components - 1], strands, crossings),
                    strands, crossings, components))
    rng.shuffle(rows)
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["name", "spec"])
    writer.writerows([(link.name, link.spec) for link in rows])
    path = "perfbench/out/table_pairs-%d.csv" % seed
    request = Request(("batch", path, "--pairs", "--jobs", "2"), "batch",
                      rows=tuple(rows))
    sizes = "%d rows (%d bundled + 12 random), %d ordered pairs per request" % (
        len(rows), len(rows) - 12, len(rows) ** 2)
    return Workload("table_pairs", seed, [request], 2.2, rows,
                    {path: text.getvalue()}, sizes, "batch <csv> --pairs --jobs 2")


def corpus_closure(corpus, taken, name, strands, crossings, components):
    """A corpus draw that is neither a diagram already taken nor its mirror."""
    while True:
        link = random_closure(corpus, name, strands, crossings, components)
        letters = link.ref[2]
        if letters not in taken:
            taken.update((letters, tuple(-k for k in letters)))
            return link


def spread(counts, slots):
    """`slots` of the crossing counts, evenly spaced from the least to the most."""
    return [counts[round(i * (len(counts) - 1) / (slots - 1))] for i in range(slots)]


def large_single(rng, root, seed):
    """
    compute --json on random closures with 3-5 strands and 16-24
    crossings: per strand count four knots and two 2-component links,
    their crossing counts spread over the range (the permutation's parity
    fixes which are possible).
    """
    corpus, taken = random.Random("large_single:corpus"), set()
    links = []
    for strands in (3, 4, 5):
        for components, slots in ((1, 4), (2, 2)):
            counts = crossing_counts(strands, components, 16, 24)
            for crossings in spread(counts, slots):
                links.append(corpus_closure(
                    corpus, taken, "ls%d%s%d" % (strands, "kl"[components - 1],
                                                 crossings),
                    strands, crossings, components))
    rng.shuffle(links)
    requests = [Request(("compute", "--json", link.spec), "compute", link)
                for link in links]
    sizes = ("%d closures: 3/4/5 strands x (4 knots + 2 two-component links), "
             "16-24 crossings" % len(requests))
    return Workload("large_single", seed, requests, 3.0, links,
                    sizes=sizes, command="compute --json <spec>")


# (strands, letters) of the split-union pieces; names index published.py
PIECES = {"3_1": (2, (1, 1, 1)), "4_1": (3, (1, -2, 1, -2)),
          "torus_2_4": (2, (1, 1, 1, 1))}

# The round is the 6/7/8-crossing ladder, with fixed mirror choices:
# mirror images of these unions cost up to a sixth apart, which would
# make the seed, and not the program, decide the figures.  3_1+4_1 three
# times, in three mirror choices that cost the same, puts the median
# request in the middle of its rung.
SPLIT_ROUND = ((("3_1", "3_1"), (1, 1)), (("3_1", "4_1"), (1, 1)),
               (("3_1", "4_1"), (-1, 1)), (("3_1", "4_1"), (1, -1)),
               (("3_1", "torus_2_4"), (1, 1)), (("4_1", "4_1"), (1, 1)))


def split_union(name, pieces, mirrors):
    strands, letters = 0, ()
    for piece, sign in zip(pieces, mirrors):
        n, word = PIECES[piece]
        letters += tuple(sign * (abs(k) + strands) * (1 if k > 0 else -1)
                         for k in word)
        strands += n
    components = sum(closure_components(*PIECES[p]) for p in pieces)
    return Link(name, braid_spec(strands, letters), components, len(letters),
                ("split", tuple(pieces)))


def split_fallback(rng, root, seed):
    """
    compute --json on split unions placed on disjoint strand blocks: one
    round of the 6, 7 and 8-crossing ladder, in a seeded order.  Other
    diagrams of the same unions (rotated, flipped or reordered words)
    cost up to twice as much as each other.
    """
    requests, links = [], []
    for j, (pieces, mirrors) in enumerate(SPLIT_ROUND):
        link = split_union("sf_%d" % j, pieces, mirrors)
        requests.append(Request(("compute", "--json", link.spec), "compute", link))
        links.append(link)
    rng.shuffle(requests)
    sizes = ("one round of 6 split unions: 3_1+3_1 (6 crossings), 3_1+4_1 three "
             "times and 3_1+T(2,4) (7), 4_1+4_1 (8)")
    return Workload("split_fallback", seed, requests, 3.8, links,
                    sizes=sizes, command="compute --json <spec>")


def oracle_verify(rng, root, seed):
    """
    oracle-check --covers 2 3 5 on every other bundled knot and, for each
    of them, two random braid knots of 12-16 crossings, one on 3 and one
    on 4 strands, each strand count stepping through its possible
    crossing counts; the requests in a seeded order.
    """
    table = [link for link in bundled_links(root) if link.components == 1][::2]
    corpus, taken = random.Random("oracle_verify:corpus"), set()
    links = list(table)
    for strands in (3, 4):
        counts = crossing_counts(strands, 1, 12, 16)
        for r in range(len(table)):
            links.append(corpus_closure(corpus, taken, "ov%d_%d" % (strands, r),
                                        strands, counts[r % len(counts)], 1))
    rng.shuffle(links)
    requests = [Request(("oracle-check", link.spec, "--covers") + COVERS,
                        "oracle", link) for link in links]
    sizes = ("%d bundled knots + %d random knots (3 and 4 strands, 12-16 "
             "crossings)" % (len(table), 2 * len(table)))
    # oracle-check prints pass flags, not polynomials: no references needed
    return Workload("oracle_verify", seed, requests, 2.8, [], sizes=sizes,
                    command="oracle-check <spec> --covers 2 3 5")


def generate(name, seed, root):
    if name not in WORKLOADS:
        raise ValueError("unknown workload %r (choose from %s)"
                         % (name, ", ".join(WORKLOADS)))
    rng = random.Random("%s:%d" % (name, seed))
    workload = globals()[name](rng, root, seed)
    if len({r.argv for r in workload.requests}) != len(workload.requests):
        raise ValueError("%s: a request repeats in the sequence" % name)
    return workload

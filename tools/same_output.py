#!/usr/bin/env python3
"""
Check that two revisions of this repository print the same thing.

    python tools/same_output.py PARENT CHANGE

Both revisions are exported with tools/ab_bench.py's `exported` into a
temporary directory each.  Each side runs the whole corpus in one child
process, which calls `ribboncheck.cli.main` once per command with
standard output and standard error captured.  The corpus:
- `compute --json`, `validate`, `oracle-check` and `oracle-check
  --covers 2 3 ... 12` on every bundled diagram (knots.csv, links.csv);
- `oracle-check --covers 13 14 ... 19` and `oracle-check --covers 20 30
  45` on every bundled knot (knots.csv), and `oracle-check --covers 60
  100 150` on LARGE_COVER_KNOTS, whose Smith forms were the slowest
  at large degrees;
- every request of the four perfbench workloads at seeds 1-3, as
  perfbench/workloads.py builds them (its batch CSVs are written into
  both trees);
- `oracle-check --covers 2 3 ... 12` on the 36 random knots of
  oracle_verify's fixed corpus, the only knots besides the bundled ones
  that reach composite degrees;
- `batch --pairs` on both bundled tables, and on DUPLICATES_CSV, whose
  rows repeat polynomials and which holds a row that does not parse
  and names that JSON escapes;
- `batch --pairs` on screen_pairs_csv(): SHORTCUT_CLOSURES with the PD
  twin of each (two diagrams of one polynomial) and FALLBACK_CLOSURES,
  so that obstruct's integer screen is compared on 3 to 6 variables,
  and SCREEN_ROWS, connected sums whose gcd is neither 1 nor either
  polynomial;
- `batch --pairs` on TORUS_CSV, the torus knots T(2,k), k = 3, 5, ...,
  23: one-variable divisions and gcds of polynomials of degree up to 22;
- `batch --pairs` on RETRY_CSV, connected sums whose pair gcds fail
  GCDHEU's first point, one at one variable and one at two, and so run
  laurent's retry loop (the other commands fail 4 points in all);
- `batch --pairs` on families_csv(), built with tests/families.py: the
  85 rational knots through 9 crossings as 4-plat PD codes and the 20
  torus knots T(p, q) of up to 24 crossings as braids, 11,025 pair
  lines; PD knots beyond the bundled ones, and torus pairs whose
  verdicts their cyclotomic factors decide;
- `obstruct J L` with each of OBSTRUCT_FLAGS on each consecutive pair of
  SCREEN_ROWS, of the bundled knots and of the bundled links, on
  DIVIDING_J_PAIR and on the first bundled knot and link (a component
  mismatch): the one command that decides a single pair of
  polynomials, once, or twice with --both-directions, the second call
  reusing what the first kept on the two polynomials.  With and
  without --both-directions,
  its reports reach each gcd text that batch --pairs does: "1",
  Delta_L's, Delta_J's and another;
- `compute --json` on FALLBACK_CLOSURES, SPARE_ROW_CLOSURES and
  CENSUS_FALLBACKS, the only commands with a reduced block that has two
  or more spare rows or is not diagram-shaped: every other block above
  of nonzero rank is square, of rank one less than its size;
- `compute --json` on SLOW_SHORTCUT and SHORTCUT_CLOSURES, braid
  closures of 3 to 6 components whose one block is square and spans two
  or more components, so that the left kernel certificate's order
  divides its minor by a weight t_c - 1, and on LARGE_CELLS, whose
  block's eliminations divide the largest cells known;
- `compute --json` on the PD twin (tests/helpers.py's braid_to_pd) of
  every closure in the last two items that has one, 36 of them: PD
  codes of up to 8 components, which take module_rank and the row side
  where their braids take the certificate;
- ARGV_FORMS, each command with its options before and after its
  positionals, and USAGE_COMMANDS: each command's usage errors and
  --help, the bare command line, the top-level --help and an unknown
  command.

Each command's exit code, stdout and stderr are compared, with each
tree's own path replaced by "<tree>".  For every `compute` command the
child also records source["blocks"] of each polynomial that
`ribboncheck.cli.alexander_polynomial` returns, the rows, columns and
path of every reduced block, and those are compared too.  The exit
code is 0 when every command agrees, and 1 after naming the first
command that does not.
"""

import argparse
import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab_bench = _load("ab_bench", HERE / "ab_bench.py")
# the tests' braid -> PD converter and knot families, which import
# ribboncheck from src/
sys.path.insert(0, str(HERE.parent / "src"))
helpers = _load("helpers", HERE.parent / "tests" / "helpers.py")
families = _load("families", HERE.parent / "tests" / "families.py")
from ribboncheck.linkcodec import parse_braid  # noqa: E402
from ribboncheck.tables import batch_rows  # noqa: E402

COVERS = [str(k) for k in range(2, 13)]
OBSTRUCT_FLAGS = ([], ["--json"], ["--both-directions"],
                  ["--both-directions", "--json"])
KNOT_COVERS = [str(k) for k in range(13, 20)]
LARGE_COVERS = ["60", "100", "150"]
# 8_4, 8_8 and 9_6 met the cliff of the Smith form's extended-gcd dense
# phase at k = 60-100, and 9_35 was the slowest knot of the dense phase
# that replaced it, at k = 150 and 200
LARGE_COVER_KNOTS = ("8_4", "8_8", "9_6", "9_35")
SEEDS = (1, 2, 3)
TABLES = ("src/ribboncheck/data/knots.csv", "src/ribboncheck/data/links.csv")
# closures of 3 to 6 components whose blocks once took the full-minor
# fallback, each under 0.05 s of CPU on a 2-core Xeon VM: the first 12
# of random.Random(21)'s draws of 4-8 strands and 10-16 letters, each
# letter +-randint(1, strands - 1), then the next 7 whose torsion order
# enumerates the column side of the table of minors
FALLBACK_CLOSURES = (
    "braid:n=6:2 -3 -1 -4 1 -4 4 5 -2 4 -5 -4 1 -5 2 2",
    "braid:n=6:2 -2 -3 4 -1 -2 -2 -5 -1 -5 -2 -5 -5 -2 1 -4",
    "braid:n=7:4 2 1 1 -2 -2 -1 4 5 4 1 -3 -6 -3 2",
    "braid:n=7:5 -2 -6 -1 2 -3 -3 3 1 2 1",
    "braid:n=4:3 3 3 -3 -2 -3 2 3 2 1 3 -2 2",
    "braid:n=7:6 3 3 6 3 -4 -2 -1 -5 2 4 -3",
    "braid:n=7:-1 2 1 -5 -6 -6 -5 -2 -6 -1 -4 -2 3",
    "braid:n=7:-1 -6 2 1 4 -6 -2 -6 -1 -2 -3",
    "braid:n=8:6 6 -5 1 -4 3 -6 4 5 -2 -7 -2",
    "braid:n=7:4 -3 -6 -2 -3 -2 5 -3 2 3 1 1 3 -4",
    "braid:n=4:-1 3 3 1 -2 -1 -1 -1 1 2 3",
    "braid:n=7:-5 6 6 -4 -2 2 -3 -3 4 -2 -2",
    "braid:n=7:1 -5 4 4 -6 6 4 -3 -4 -1 5 -3 2 -6 -6 -3",
    "braid:n=6:-3 -3 -5 3 5 -3 -1 1 -1 1 -4 5 5 4 -3",
    "braid:n=5:1 2 -1 -4 -2 -1 2 -2 -4 -2 2 2 4 -3 -4",
    "braid:n=7:5 -4 -5 -5 6 -5 -6 1 -5 4 -5 -3 -2 1",
    "braid:n=5:4 4 1 1 3 -2 1 -3 -3 3",
    "braid:n=5:4 -4 4 -3 2 4 1 -4 4 4 1 2 -2 -4 1 -2",
    "braid:n=6:1 -2 -3 3 -5 -5 -2 3 -4 -5 2 4 1 4 3 -5")
# later draws of the same kind with a 5 x 4 block of rank 3: two spare
# rows, so C(5,3) row sets
SPARE_ROW_CLOSURES = (
    "braid:n=5:3 -3 1 3 -4 2 -2 -4 -3 1 2 2",
    "braid:n=8:5 3 3 2 -6 4 -3 -2 1 1 -6 -2 -6 -3 -2",
    "braid:n=8:2 -4 5 -1 -1 -1 -3 -3 2 4 5 2 7 -4")
# from a census of 68,073 random closures (ROADMAP item 6): the slowest
# input, 6 components, and an 8-component one, 16 and 6 s of CPU on the
# full-minor fallback, under 2 s on the table of minors' two sides
CENSUS_FALLBACKS = (
    "braid:n=10:1 -4 6 -9 -3 6 5 -9 8 9 7 -3 -2 4 6 -9 -4 -7 -5 8 -2 -2 1 6",
    "braid:n=10:7 8 -6 -4 -1 2 -9 -7 -1 2 -7 -8 -4 3 -1 5 9 -6 -2 -8 5 6 5 7")
# ROADMAP item 11's example, the slowest shortcut input known: 5
# components, one 6 x 6 block, 1.9-2.1 s of CPU on the row side of the
# table of minors and 0.3 s on the left kernel certificate
SLOW_SHORTCUT = ("braid:n=8:-5 -1 3 -4 -4 5 6 7 -4 -4 -3 -5 7 2 -1 -3 -3 -1 6 "
                 "6 7 2 -5")
# the largest cells known to the keyed division: a 2-component closure
# whose one 5 x 5 block's Bareiss steps divide numerators of 828 to
# 1,456 terms, which no workload holds (quadratic in them while each
# quotient term was found by a max over the remainder)
LARGE_CELLS = "braid:n=5:" + " ".join(["1 2 3 4 -1 2 -3 4 4"] * 8)
# the first 12 of random.Random(18)'s draws of 4-8 strands and 16-24
# letters, each letter +-randint(1, strands - 1), that close to 3-6
# components and reduce to one square block spanning two or more of
# them, each under 0.03 s of CPU on the row side of the table of minors
SHORTCUT_CLOSURES = (
    "braid:n=8:3 -5 4 2 6 -2 -5 -5 6 5 -5 -7 -1 -2 -2 -1 6 5 -2 -7",
    "braid:n=6:1 -5 5 2 -1 5 2 -1 -1 -3 5 -3 4 -5 -5 3 -1 -4 -1 3 3 4 1",
    "braid:n=6:-5 2 4 -2 2 -5 -5 -4 -4 5 2 1 -3 5 3 2 3 2 4 -1",
    "braid:n=8:4 3 7 4 -3 -2 7 -6 1 4 5 -1 -5 -1 -7 3 3 5 6 6 7 2",
    "braid:n=7:-5 -6 -5 2 6 -3 4 2 2 6 3 1 3 6 -2 -1 2 -4",
    "braid:n=8:-7 4 4 6 2 -4 7 1 2 6 6 -1 5 -7 5 6 7 -3 -7 -5 -3",
    "braid:n=5:-1 -3 -3 3 -4 -3 -2 -2 -1 1 -4 -3 1 1 2 1 -1 1",
    "braid:n=8:3 5 -1 -5 -6 5 -6 2 -4 -3 -1 -3 -5 -3 -7 -1 -2 5 1 1 -7",
    "braid:n=7:-3 1 5 6 -4 5 -3 5 6 -2 -5 3 -4 2 3 -3 2 -4 -1 -2 4 -3 4 3",
    "braid:n=4:-1 1 3 1 3 -1 -3 2 2 -2 -2 3 3 2 2 -1 3 1 -1 3 3 1 -1 -1",
    "braid:n=6:-3 -2 -2 -1 -2 -4 -2 4 -1 1 2 5 5 3 3 3 -4",
    "braid:n=5:-3 3 -4 4 -2 -4 -3 -4 3 -3 -1 4 -2 -3 4 4 -3 -2 -3 1 -1 4 "
    "-3 2")

# 3_1 as a braid, a PD code and its mirror, 4_1 and its mirror, two
# Hopf links and the 2-component unlink (Delta 1 all three), T(2,4) and
# its mirror, T(2,6), the unknot, 3_1 # 4_1, a row that does not parse,
# and names with a quote, a backslash and characters past ASCII
DUPLICATES_CSV = (
    'name,spec\n'
    '3_1,braid:n=2:1 1 1\n'
    '"say ""3_1""","pd:X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)"\n'
    'mirror 3_1,braid:n=2:-1 -1 -1\n'
    '4_1,braid:n=3:1 -2 1 -2\n'
    'hopf,braid:n=2:1 1\n'
    'bad,braid:n=2: 9\n'
    'back\\slash,braid:n=3:-1 2 -1 2\n'
    'hopf\u2603,braid:n=2:-1 -1\n'
    'unlink,braid:n=2:\n'
    'T24,braid:n=2:1 1 1 1\n'
    'caf\u00e9,braid:n=1:\n'
    'T24 mirror,braid:n=2:-1 -1 -1 -1\n'
    'T26,braid:n=2:1 1 1 1 1 1\n'
    'sum,braid:n=4:1 1 1 2 -3 2 -3\n')

# 3_1 # 3_1 and 3_1 # 4_1, which share the factor t^2 - t + 1, and the
# 3_1 and 4_1 that divide them
SCREEN_ROWS = (("3_1 # 3_1", "braid:n=3:1 1 1 2 2 2"),
               ("3_1 # 4_1", "braid:n=4:1 1 1 2 -3 2 -3"),
               ("3_1", "braid:n=2:1 1 1"), ("4_1", "braid:n=3:1 -2 1 -2"))

# 3_1 against 3_1 # 4_1: Delta_J divides Delta_L, so the gcd is Delta_J,
# which no consecutive pair of the chains gives in its first direction
DIVIDING_J_PAIR = (SCREEN_ROWS[2][1], SCREEN_ROWS[1][1])

# T(2,k) for odd k from 3 to 23, the closures of sigma_1^k: Deltas of
# degree up to 22, dividing pairs such as T(2,3) | T(2,9), and gcds that
# are neither 1 nor either polynomial, such as that of T(2,9) and T(2,15)
TORUS_CSV = "name,spec\n" + "".join(
    "T2_%d,braid:n=2:%s\n" % (k, " ".join(["1"] * k)) for k in range(3, 24, 2))

# connected sums, as braid words side by side (the second shifted past
# the first's last strand), of closures of distinct nontrivial Delta
# that random.Random(1) draws on 3-5 strands with 6-12 letters, each
# letter +-randint(1, strands - 1): two knots whose gcd t^4 - 2t^3 +
# 3t^2 - 2t + 1 fails GCDHEU's first point at one variable, and two
# 2-component links whose gcd fails it at two
RETRY_CSV = (
    "name,spec\n"
    "knot sum 1,braid:n=5:2 1 1 1 1 -1 1 -1 3 4 4 -4 4 3 4 4 -4 3 4 4\n"
    "knot sum 2,braid:n=6:2 1 1 1 1 -1 1 -1 -3 4 5 5 4 3 -4 -3 -5 4 4\n"
    "link sum 1,braid:n=6:3 1 2 1 3 -2 -3 1 1 1 -3 -3 4 5 5 -5 5 4 5 5 -5 "
    "4 5 5\n"
    "link sum 2,braid:n=7:3 1 2 1 3 -2 -3 1 1 1 -3 -3 -4 5 6 6 5 4 -5 -4 "
    "-6 5 5\n")

TREFOIL, HOPF = "braid:n=2:1 1 1", "braid:n=2:1 1"
# each command with its options before and after its positionals
ARGV_FORMS = (
    ["compute", TREFOIL, "--json"],
    ["obstruct", "--json", "--both-directions", TREFOIL, HOPF],
    ["obstruct", TREFOIL, "--both-directions", HOPF, "--json"],
    ["batch", TABLES[1], "--pairs", "--jobs", "2"],
    ["batch", "--jobs", "2", TABLES[1]],
    ["oracle-check", TREFOIL, "--covers", "3", "2"])
# usage errors and help; the last reads the spec as a cover degree, as
# argparse did, and so is an error too
USAGE_COMMANDS = (
    [], ["--help"], ["frobnicate", TREFOIL],
    ["compute", "--help"], ["compute"], ["compute", TREFOIL, TREFOIL],
    ["compute", TREFOIL, "--pairs"],
    ["obstruct", "--help"], ["obstruct", TREFOIL],
    ["obstruct", TREFOIL, HOPF, TREFOIL], ["obstruct", TREFOIL, HOPF, "-x"],
    ["batch", "--help"], ["batch"], ["batch", TABLES[1], TABLES[0]],
    ["batch", TABLES[1], "--jobs"], ["batch", TABLES[1], "--jobs", "x"],
    ["validate", "--help"], ["validate"], ["validate", TREFOIL, "--json"],
    ["oracle-check", "--help"], ["oracle-check"],
    ["oracle-check", TREFOIL, "--covers"],
    ["oracle-check", TREFOIL, "--covers", "2", "x"],
    ["oracle-check", "--covers", "3", "2", TREFOIL])

# runs in the child: argv lists on stdin, [exit, stdout, stderr, blocks]
# lists out, blocks None for a command other than compute
CHILD = r"""
import contextlib, io, json, sys
from ribboncheck import cli
compute, blocks = cli.alexander_polynomial, []

def recorded(diagram, *presentation):
    result = compute(diagram, *presentation)
    blocks.append(result.source["blocks"])
    return result

cli.alexander_polynomial = recorded
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    blocks.clear()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue(),
                    list(blocks) if argv[:1] == ["compute"] else None])
json.dump(results, sys.__stdout__)
"""


def corpus(tree, seeds):
    """The commands, and the files they read: {path relative to tree: text}."""
    commands, files, chains = [], {}, [[spec for _, spec in SCREEN_ROWS]]
    for table in TABLES:
        rows = batch_rows(tree / table)
        chains.append([spec for _, spec in rows])
        for name, spec in rows:
            commands += [["compute", "--json", spec], ["validate", spec],
                         ["oracle-check", spec],
                         ["oracle-check", spec, "--covers"] + COVERS]
            # knots: all 35 under 1 s of CPU on a 2-core Xeon VM
            if table == TABLES[0]:
                commands += [
                    ["oracle-check", spec, "--covers"] + KNOT_COVERS,
                    ["oracle-check", spec, "--covers", "20", "30", "45"]]
                if name in LARGE_COVER_KNOTS:
                    commands.append(
                        ["oracle-check", spec, "--covers"] + LARGE_COVERS)
    sys.path.insert(0, str(tree / "perfbench"))
    try:
        import workloads
        for name in workloads.WORKLOADS:
            for seed in seeds:
                workload = workloads.generate(name, seed, tree)
                files.update(workload.files)
                commands += [list(r.argv) for r in workload.requests]
        commands += [["oracle-check", r.link.spec, "--covers"] + COVERS
                     for r in workloads.generate("oracle_verify", SEEDS[0],
                                                 tree).requests
                     if r.link.ref[0] == "burau"]
    finally:
        sys.path.remove(str(tree / "perfbench"))
    commands += [["batch", table, "--pairs"] for table in TABLES]
    files["duplicates.csv"] = DUPLICATES_CSV
    files["screen_pairs.csv"] = screen_pairs_csv()
    files["torus_pairs.csv"] = TORUS_CSV
    files["retry_pairs.csv"] = RETRY_CSV
    files["families_pairs.csv"] = families_csv()
    commands += [["batch", name, "--pairs"] for name in
                 ("duplicates.csv", "screen_pairs.csv", "torus_pairs.csv",
                  "retry_pairs.csv", "families_pairs.csv")]
    pairs = [pair for chain in chains for pair in zip(chain, chain[1:])]
    pairs += [DIVIDING_J_PAIR, (chains[1][0], chains[2][0])]
    commands += [["obstruct", j, l] + flags
                 for j, l in pairs for flags in OBSTRUCT_FLAGS]
    closures = (FALLBACK_CLOSURES + SPARE_ROW_CLOSURES + CENSUS_FALLBACKS
                + (SLOW_SHORTCUT, LARGE_CELLS) + SHORTCUT_CLOSURES)
    commands += [["compute", "--json", spec]
                 for spec in closures + pd_twins(closures)]
    return commands, files


def screen_pairs_csv():
    """
    The batch CSV of SCREEN_ROWS, SHORTCUT_CLOSURES, their PD twins and
    FALLBACK_CLOSURES.
    """
    rows = (SCREEN_ROWS
            + tuple(("shortcut %d" % i, spec)
                    for i, spec in enumerate(SHORTCUT_CLOSURES, 1))
            + tuple(("twin %d" % i, spec)
                    for i, spec in enumerate(pd_twins(SHORTCUT_CLOSURES), 1))
            + tuple(("fallback %d" % i, spec)
                    for i, spec in enumerate(FALLBACK_CLOSURES, 1)))
    return batch_csv(rows)


def families_csv():
    """
    The batch CSV of the rational knots through 9 crossings, as PD codes,
    and the torus knots of up to 24 crossings, as braids.
    """
    return batch_csv(
        [("rational " + " ".join(map(str, partials)),
          families.rational_pd_spec(partials))
         for partials in families.rational_knot_partials(9)]
        + [("T(%d %d)" % pq, families.torus_braid_spec(*pq))
           for pq in families.torus_knot_pairs(24)])


def batch_csv(rows):
    """A batch CSV of (name, spec) rows."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([("name", "spec"), *rows])
    return out.getvalue()


def pd_twins(specs):
    """The PD twin of each braid closure that has one, as a spec."""
    twins = (helpers.braid_to_pd(parse_braid(spec[len("braid:"):]))
             for spec in specs)
    return tuple("pd:" + ";".join("X(%d,%d,%d,%d)" % x for x in pd.crossings)
                 for pd in twins if pd is not None)


def run_side(tree, commands):
    """[exit code, stdout, stderr, blocks] of every command, in one process."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run((sys.executable, "-c", CHILD), cwd=tree, env=env,
                          input=json.dumps(commands), capture_output=True,
                          text=True)
    if proc.returncode:
        raise SystemExit("the child in %s failed:\n%s" % (tree, proc.stderr))
    return [[code, out.replace(str(tree), "<tree>"),
             err.replace(str(tree), "<tree>"), blocks]
            for code, out, err, blocks in json.loads(proc.stdout)]


def first_difference(commands, parent, change):
    """None if every result agrees, else a message naming the first miss."""
    if len(parent) != len(change) or len(parent) != len(commands):
        return "result counts differ: %d commands, %d and %d results" % (
            len(commands), len(parent), len(change))
    for argv, a, b in zip(commands, parent, change):
        for name, x, y in zip(("exit code", "stdout", "stderr", "blocks"),
                              a, b):
            if x == y:
                continue
            if isinstance(x, str):
                lines = zip_longest(x.splitlines(True), y.splitlines(True),
                                    fillvalue="")
                n, (x, y) = next((n, pair) for n, pair in enumerate(lines, 1)
                                 if pair[0] != pair[1])
                name += " line %d" % n
            return "%s: %s differs: %r against %r" % (
                " ".join(argv)[:200], name, x, y)
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.strip().split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with ab_bench.exported(vars(args)) as trees:  # parent, change
        commands, files = corpus(trees["parent"], SEEDS)
        commands += ARGV_FORMS + USAGE_COMMANDS
        for tree in trees.values():
            for path, text in files.items():
                (tree / path).parent.mkdir(parents=True, exist_ok=True)
                (tree / path).write_text(text, encoding="utf-8")
        results = {side: run_side(tree, commands)
                   for side, tree in trees.items()}
    diff = first_difference(commands, results["parent"], results["change"])
    if diff:
        print(diff)
        return 1
    print("%d commands: identical exit codes, stdout, stderr and blocks"
          % len(commands))
    return 0


if __name__ == "__main__":
    sys.exit(main())

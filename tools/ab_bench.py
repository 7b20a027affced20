#!/usr/bin/env python3
"""
Interleaved A/B runs of perfbench on two revisions of this repository.

    python tools/ab_bench.py PARENT CHANGE --workloads large_single \\
        --seeds 1001-1010 [--seconds 20] [--trace 0|1] [--out FILE]

Each revision is exported with `git archive` into a temporary directory
of its own, so neither side runs with a `__pycache__` left by earlier
work, and both must hold the same `perfbench/` tree (the tool refuses
otherwise).  Runs go pair by pair: one pair is one seed of one workload,
run on both sides, and the side that runs first alternates from pair to
pair (PARENT first in the 1st, 3rd, ... pair), so that a machine that
speeds up or slows down over the session does not favour either side.
Every child runs with PYTHONDONTWRITEBYTECODE=1.

Output, to --out or standard output, one JSON object a line:
- one line per run: side, revision, workload, seed, trace, pair index,
  whether it ran first, and the last line perfbench printed (its result);
- then one summary line per workload: for every metric, each side's
  median and quartiles, the change's median over the parent's, and in
  how many pairs the change read better (ties count for neither), with
  "better" taken from BENCHMARK.json; each end-to-end metric also
  carries the verdicts the benchmark gate reaches on these runs:
  claim_met (the change read better in at least 9 of 10 pairs, and its
  median is better than the parent's by more than the parent's
  interquartile range), within_bound (the change's median is worse
  than the parent's by no more than the metric's relative bound) and
  unresolved (the parent's interquartile range is wider than the bound,
  relative to its median, and not every run of the change reads better
  than every run of the parent: the runs spread too widely to tell
  whether the metric moved, whatever within_bound says).
The exit code is 1 if any run failed or reported a wrong result.
"""

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(("git", "-C", str(ROOT)) + args, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, into):
    """Extract the tree of rev into the directory into."""
    archive = subprocess.Popen(("git", "-C", str(ROOT), "archive", rev),
                               stdout=subprocess.PIPE)
    subprocess.run(("tar", "-x", "-C", str(into)), stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit("git archive %s failed" % rev)


@contextlib.contextmanager
def exported(revs):
    """{side: temporary tree} of revs ({side: rev}), removed after the with."""
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in revs}
        for side, tree in trees.items():
            tree.mkdir()
            export(revs[side], tree)
        yield trees


def revisions(parent, change):
    """
    {"parent": hash, "change": hash} of the two revisions; refuses them
    unless they hold the same perfbench/ tree.
    """
    revs = {"parent": git("rev-parse", parent),
            "change": git("rev-parse", change)}
    if len({git("rev-parse", rev + ":perfbench")
            for rev in revs.values()}) > 1:
        raise SystemExit("the two revisions hold different perfbench/ trees")
    return revs


def seeds(text):
    """'5' -> [5]; '1001-1003' -> [1001, 1002, 1003]; commas join lists."""
    out = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        low, high = int(low), int(high or low)
        if high < low:
            raise ValueError("%s ends below its start" % part)
        out.extend(range(low, high + 1))
    return out


def run(tree, workload, seed, seconds, trace):
    cmd = (sys.executable, str(tree / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result, proc.stderr.strip()[-2000:]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarise(workload, trace, runs, better, bounds):
    """
    Per metric medians, quartiles and win counts over the pairs, and for
    the metrics in bounds (name -> relative bound) the gate's verdicts.
    """
    by_pair = {}
    for r in runs:
        if r["result"]:
            by_pair.setdefault(r["seed"], {})[r["side"]] = r["result"]
    pairs = [p for p in by_pair.values() if len(p) == 2]
    summary = {"workload": workload, "trace": trace, "pairs": len(pairs),
               "all_correct": all(r["result"] and r["result"]["correct"]
                                  for r in runs)}
    if not pairs:
        return summary
    for name in pairs[0]["parent"]["metrics"]:
        a = [p["parent"]["metrics"][name]["value"] for p in pairs]
        b = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = {"lower": -1, "higher": 1}.get(better.get(name), 0)
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        ma, mb = statistics.median(a), statistics.median(b)
        (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
        summary[name] = {
            "parent_median": ma, "change_median": mb,
            "change_over_parent": mb / ma if ma else None,
            "parent_quartiles": [a1, a3], "change_quartiles": [b1, b3],
            "parent_iqr": a3 - a1, "change_iqr": b3 - b1,
            "change_wins": "%d/%d" % (wins, len(pairs)) if sign else None,
        }
        if sign and name in bounds:
            summary[name]["claim_met"] = (10 * wins >= 9 * len(pairs) and
                                          sign * (mb - ma) > a3 - a1)
            summary[name]["within_bound"] = (sign * (mb - ma) >=
                                             -bounds[name] * abs(ma))
            separated = (min(sign * y for y in b) >
                         max(sign * x for x in a))
            summary[name]["unresolved"] = (
                a3 - a1 > bounds[name] * abs(ma) and not separated)
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.strip().split("\n\n")[0])
    parser.add_argument("parent",
                        help="the revision the change is measured against")
    parser.add_argument("change", help="the revision under test")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, required=True,
                        help="one pair per seed and workload: 5, 1-10, 1,4-6")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the JSON lines to this file")
    args = parser.parse_args(argv)

    revs = revisions(args.parent, args.change)
    spec = json.loads(git("show", revs["parent"] + ":BENCHMARK.json"))
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = open(args.out, "a") if args.out else sys.stdout
    ok = True
    with exported(revs) as trees:
        pair = 0
        for workload in args.workloads:
            runs = []
            for seed in args.seeds:
                order = ("parent", "change")[::1 if pair % 2 == 0 else -1]
                for k, side in enumerate(order):
                    code, result, err = run(trees[side], workload, seed,
                                            args.seconds, args.trace)
                    line = {"side": side, "rev": revs[side][:12],
                            "workload": workload, "seed": seed,
                            "trace": args.trace, "pair": pair, "first": k == 0,
                            "result": result}
                    if code or not result:
                        ok = False
                        line["exit"], line["stderr"] = code, err
                    runs.append(line)
                    print(json.dumps(line), file=out, flush=True)
                pair += 1
            print(json.dumps({"summary": summarise(workload, args.trace, runs,
                                                   better, bounds)}),
                  file=out, flush=True)
    if out is not sys.stdout:
        out.close()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

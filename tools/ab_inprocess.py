#!/usr/bin/env python3
"""
Alternating in-process passes of one perfbench workload on two revisions,
for sizing a change before measuring it.

    python tools/ab_inprocess.py PARENT CHANGE --workload large_single \\
        [--seed 1] [--passes 40]

Each revision is exported with `git archive` into a temporary directory
of its own (ab_bench.exported), and both must hold the same `perfbench/`
tree (ab_bench.revisions refuses otherwise); the workload's requests
are built from the parent's.  Each side's `src/ribboncheck` is imported
into this one process under a package name of its own (ab_parent,
ab_change), so that both run on the same interpreter, warmed the same
way.  Everything the run imports is dropped from sys.modules when it
ends.

Each pass is the whole request sequence through that side's cli.main,
run by `run_pass` of the parent's perfbench/client.py, the loop that the
benchmark times.  One pass runs on each side first, and the tool refuses
to time anything if a request raised on either side (exit code -1 from
run_pass) or the exit codes and standard outputs differ on a request.
Then it makes --passes pairs of passes; the side that runs first
alternates from pair to pair.  It prints one JSON object: each side's
median and quartiles of the pass times in ms, the change's median over
the parent's, and in how many pairs the change was faster.

This is a sizing tool: one process, CPU-bound passes, no fresh
interpreters, no set-up or memory metrics, no reference outputs.
Claims rest on `tools/ab_bench.py`, which runs perfbench itself.
"""

import argparse
import importlib.util
import json
import os
import statistics
import sys

from ab_bench import exported, quartiles, revisions

SIDES = ("parent", "change")


def load(tree, name):
    """tree's src/ribboncheck imported as the package name; its cli."""
    package = tree / "src" / "ribboncheck"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[
            str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".cli")


def check_same(mains, requests, run_pass):
    """Refuse if a request raises, or the exit codes or stdouts differ."""
    first = [run_pass(mains[side], requests)["results"] for side in SIDES]
    for argv, *pair in zip(requests, *first):
        for side, (_, code, _, _, err) in zip(SIDES, pair):
            if code == -1:
                raise SystemExit("the %s side raised on %s:\n%s" % (
                    side, " ".join(argv), err))
        (_, a, _, out_a, _), (_, b, _, out_b, _) = pair
        if (a, out_a) != (b, out_b):
            same = "the same" if out_a == out_b else "different"
            raise SystemExit("the sides differ on %s: exit %s and %s, "
                             "stdout %s" % (" ".join(argv), a, b, same))


def summarise(times):
    """Medians, quartiles (ms), the ratio of medians and the change's wins."""
    out = {}
    for side in SIDES:
        q1, q3 = quartiles(times[side])
        out[side] = {"median_ms": 1000 * statistics.median(times[side]),
                     "quartiles_ms": [1000 * q1, 1000 * q3]}
    out["change_over_parent"] = (out["change"]["median_ms"]
                                 / out["parent"]["median_ms"])
    out["change_faster"] = "%d/%d" % (sum(
        b < a for a, b in zip(times["parent"], times["change"])),
        len(times["parent"]))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.strip().split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=40,
                        help="pairs of passes, at least 2")
    args = parser.parse_args(argv)

    revs = revisions(args.parent, args.change)
    cwd, path, modules = os.getcwd(), list(sys.path), set(sys.modules)
    with exported(revs) as trees:
        parent = trees["parent"]
        sys.path.insert(0, str(parent / "perfbench"))
        try:
            import workloads
            from client import run_pass
            work = workloads.generate(args.workload, args.seed, parent)
            for rel, text in work.files.items():
                (parent / rel).parent.mkdir(parents=True, exist_ok=True)
                (parent / rel).write_text(text)
            os.chdir(parent)
            mains = {side: load(tree, "ab_" + side).main
                     for side, tree in trees.items()}
            requests = [r.argv for r in work.requests]
            check_same(mains, requests, run_pass)
            times = {side: [] for side in SIDES}
            for k in range(max(2, args.passes)):
                for side in SIDES[::1 if k % 2 == 0 else -1]:
                    times[side].append(
                        run_pass(mains[side], requests)["elapsed"])
        finally:
            os.chdir(cwd)
            sys.path[:] = path
            for name in set(sys.modules) - modules:
                del sys.modules[name]
    print(json.dumps(dict(summarise(times), workload=args.workload,
                          seed=args.seed, passes=len(times["parent"]),
                          revisions=[revs[side][:12] for side in SIDES])))
    return 0


if __name__ == "__main__":
    sys.exit(main())

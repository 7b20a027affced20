#!/usr/bin/env python3
"""
Alternating in-process passes of one perfbench workload on two revisions,
for sizing a change before measuring it.

    python tools/ab_inprocess.py PARENT CHANGE --workload W [--seed 1]

Each revision is exported into a temporary directory of its own
(ab_bench.exported), and both must hold the same `perfbench/` tree and
BENCHMARK.json (ab_bench.revisions refuses otherwise); the workload's
requests are built from the parent's.  Each side's `src/ribboncheck` is
imported into this one process under a package name of its own
(ab_parent, ab_change), so that both run on the same interpreter, warmed
the same way.  Everything the run imports is dropped from sys.modules
when it ends.

Each pass is the whole request sequence through that side's cli.main,
run by `run_pass` of the parent's perfbench/client.py, the loop that the
benchmark times.  One pass runs on each side first, and the tool refuses
to time anything if a request raised on either side (exit code -1 from
run_pass) or the exit codes and standard outputs differ on a request.
Then it makes pairs of passes, the side that runs first alternating,
until each side has spent SIZING_S seconds in timed passes over at
least MIN_PAIRS pairs.  A time budget reads steadily on every workload,
where the right pass count moved with the workload and the machine's
load (200 `table_pairs` passes, about 7 s a side, read 0.976-1.027x
against themselves); the gate's nine-in-ten rule needs ten pairs.  It
prints one JSON object: ab_bench.compare of the pass times in ms, with
workload, seed, passes (pairs made) and revisions.

This is a sizing tool: one process, CPU-bound passes, no fresh
interpreters, no set-up or memory metrics, no reference outputs.
Claims rest on `tools/ab_bench.py`, which runs perfbench itself.
"""

import argparse
import importlib.util
import json
import os
import sys

from ab_bench import compare, exported, revisions

SIDES = ("parent", "change")
SIZING_S, MIN_PAIRS = 7.0, 10  # s a side, pairs: see the docstring


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


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.strip().split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
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
            times = {side: [] for side in SIDES}  # ms
            while (len(times["parent"]) < MIN_PAIRS or
                   min(map(sum, times.values())) < 1000 * SIZING_S):
                for side in SIDES[::-1] if len(times["parent"]) % 2 else SIDES:
                    times[side].append(
                        1000 * run_pass(mains[side], requests)["elapsed"])
        finally:
            os.chdir(cwd)
            sys.path[:] = path
            for name in set(sys.modules) - modules:
                del sys.modules[name]
    print(json.dumps(dict(compare(times["parent"], times["change"], -1),
                          workload=args.workload, seed=args.seed,
                          passes=len(times["parent"]),
                          revisions=[revs[side][:12] for side in SIDES])))
    return 0


if __name__ == "__main__":
    sys.exit(main())

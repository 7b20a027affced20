"""
Fast self-test of the benchmark itself (about half a minute).

    python3 perfbench/selftest.py

Checks that input generation is deterministic in the seed, that the
checker accepts the program's real outputs and rejects a wrong
polynomial and a flipped verdict, that the published copy agrees with
the Burau reference on the bundled braid diagrams, and that every metric
a run prints is declared in BENCHMARK.json.  Exits non-zero on failure.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from reference import Checker, Link, Tally  # noqa: E402
from workloads import Request  # noqa: E402

FAILURES = []


def expect(condition, what):
    print("%s %s" % ("ok  " if condition else "FAIL", what))
    if not condition:
        FAILURES.append(what)


def program(argv):
    """Output of the real CLI, run in a fresh interpreter on src/."""
    code = ("import sys; sys.path.insert(0, 'src'); "
            "from ribboncheck.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", code] + argv, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


def test_generation():
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 7, ROOT).digest()
        b = workloads.generate(name, 7, ROOT).digest()
        c = workloads.generate(name, 8, ROOT).digest()
        expect(a == b and a != c,
               "%s: same seed, same inputs; other seed, other inputs" % name)


def test_published_against_burau():
    for link in workloads.bundled_links(ROOT):
        if not link.spec.startswith("braid:"):
            continue
        head, letters = link.spec[len("braid:n="):].split(":")
        strands, word = int(head), tuple(int(k) for k in letters.split())
        burau = reference.burau(strands, word)
        if link.components == 1:
            same = burau == reference.reference(link).poly
        else:
            ref = reference.reference(link)
            same = not burau or reference.agrees(
                reference.Reference(burau, False), ref.poly)
        expect(same, "published %s agrees with its Burau reference" % link.name)


def test_checker_on_compute():
    trefoil = Link("3_1", "braid:n=2:1 1 1", 1, 3, ("published", "3_1"))
    link2 = workloads.random_closure(random.Random(1), "l", 3, 11, 2)
    checker = Checker([trefoil, link2])
    for link in (trefoil, link2):
        request = Request(("compute", "--json", link.spec), "compute", link)
        code, out = program(list(request.argv))
        tally = Tally()
        checker.check(request, code, out, tally)
        expect(tally.wrong == 0 and tally.records == 1,
               "checker accepts the program's output for %s" % link.name)
        record = json.loads(out)
        record["alexander"] += " + 1"
        tally = Tally()
        checker.check(request, 0, json.dumps(record) + "\n", tally)
        expect(tally.wrong == 1,
               "checker rejects a wrong polynomial for %s" % link.name)


def test_checker_on_batch():
    rows = (Link("3_1", "braid:n=2:1 1 1", 1, 3, ("published", "3_1")),
            Link("4_1", "braid:n=3:1 -2 1 -2", 1, 4, ("published", "4_1")),
            Link("hopf", "braid:n=2:1 1", 2, 2, ("published", "hopf")),
            Link("sq", "braid:n=4:1 1 1 3 3 3", 2, 6, ("split", ("3_1", "3_1"))))
    csv_path = HERE / "out" / "selftest.csv"
    csv_path.parent.mkdir(exist_ok=True)
    csv_path.write_text("name,spec\n" + "".join(
        "%s,%s\n" % (r.name, r.spec) for r in rows))
    request = Request(("batch", str(csv_path), "--pairs"), "batch", rows=rows)
    checker = Checker(list(rows))
    code, out = program(list(request.argv))
    tally = Tally()
    checker.check(request, code, out, tally)
    expect(tally.wrong == 0 and tally.records == 4 + 16,
           "checker accepts the program's batch output")
    lines = out.splitlines()
    for k, line in enumerate(lines[4:], start=4):
        record = json.loads(line)
        if record.get("verdict") in ("obstructed", "not_obstructed"):
            flipped = "obstructed" if record["verdict"] == "not_obstructed" \
                else "not_obstructed"
            record["verdict"] = flipped
            lines[k] = json.dumps(record)
            break
    tally = Tally()
    Checker(list(rows)).check(request, 0, "\n".join(lines) + "\n", tally)
    expect(tally.wrong == 1, "checker rejects a flipped verdict")


def test_metric_names():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names = {m["name"]: m["unit"] for m in declared[key]}
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "oracle_verify",
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            expect(False, "run with --trace %d succeeds" % trace)
            continue
        result = json.loads(lines[-1])
        printed = {m: v["unit"] for m, v in result["metrics"].items()}
        text = {line.split()[0] for line in lines[:-1] if not line.startswith("#")}
        expect(printed == names,
               "--trace %d prints exactly the %s metrics, with their units"
               % (trace, key))
        expect(text <= set(names),
               "--trace %d report lines name only declared metrics" % trace)


if __name__ == "__main__":
    test_generation()
    test_published_against_burau()
    test_checker_on_compute()
    test_checker_on_batch()
    test_metric_names()
    print("%d failure(s)" % len(FAILURES))
    sys.exit(1 if FAILURES else 0)

"""
Benchmark for ribboncheck.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it works on the checkout that holds this directory and
imports ribboncheck from that checkout's src/.  Workloads: table_pairs,
large_single, split_fallback, oracle_verify (see perfbench/README.md).

Each run builds the workload's inputs from the seed and computes their
references (sympy, in this process).  It then makes several passes over
the same requests, each pass in a fresh client process that calls
ribboncheck.cli.main in a closed loop, with fresh interpreters timed for
set-up between the passes.  Repeating the same requests in fresh
processes, rather than sending more of them in one, keeps every run's
mix the same without sending a request twice to one process.  The
latency and rate are medians and totals over all passes.
Each pass sends the workload's whole request sequence; the number of
passes follows from S and the workload's pass_s, so that a run of the
commit the benchmark was defined on measures about S seconds.
After the clients have exited every output of every pass is checked.
The report goes to standard output, one metric a line with its unit, and
the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones from a traced pass, with the tracing overhead
measured against an untraced pass over the same requests.
The exit code is 0 only when every output matched its reference.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

PASSES = 3  # passes a run makes at least
OVERRUN = 1.25  # share of --seconds after which a slow run stops early
SETUP_RUNS = 9  # timed fresh interpreters per run, after one untimed
SETUP_CODE = ("import ribboncheck.cli\n"
              "from ribboncheck import tables\n"
              "tables.knot_table()\n"
              "tables.link_table()\n")
DEADLINE_S = 170  # the whole run, references and checks included


def fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    return 2


def commit_id():
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
        return head[:12]
    except OSError:
        return "unknown (no git metadata)"


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "ribboncheck").rglob("*")):
        if path.suffix in (".py", ".csv") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:12]


def time_setup(env):
    """Wall time of one fresh interpreter importing the CLI and the tables."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                          cwd=ROOT, capture_output=True, timeout=60)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("set-up failed: %s" % proc.stderr.decode()[-500:])
    return elapsed


def pass_count(workload, seconds):
    """Passes in a run of about `seconds` on the defining commit."""
    return max(PASSES, round(seconds / workload.pass_s))


def spans_path(workload):
    return OUT / ("spans-%s-%d.jsonl" % (workload.name, workload.seed))


def run_client(workload, trace, timeout):
    """One pass over the request sequence in a fresh client process."""
    job = {"src": str(SRC), "trace": trace, "spans": str(spans_path(workload)),
           "requests": [list(r.argv) for r in workload.requests]}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        job_path, result_path = Path(tmp) / "job.json", Path(tmp) / "result.json"
        job_path.write_text(json.dumps(job))
        proc = subprocess.Popen([sys.executable, str(HERE / "client.py"),
                                 str(job_path), str(result_path)], cwd=ROOT)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RuntimeError("client still running after %.0f s; killed" % timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            raise RuntimeError("client exited with code %d" % code)
        return json.loads(result_path.read_text())


def run_passes(workload, seconds, trace, started):
    """
    The run's passes, with set-up timed between them (not when tracing).
    Returns (client results, set-up times).  After PASSES passes, no new
    pass starts once the passes have taken OVERRUN times the seconds
    asked for, or when it could end past the deadline; the report says so.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # when tracing: untraced, then traced over the same requests
    passes = 2 if trace else pass_count(workload, seconds)
    setups, results = [], []
    if not trace:
        time_setup(env)  # untimed: fills the file cache
    for k in range(passes):
        if not trace:
            setups += [time_setup(env) for i in range(SETUP_RUNS)
                       if i * passes // SETUP_RUNS == k]
        budget = DEADLINE_S - (perf_counter() - started)
        longest = max((r["pass"]["elapsed"] for r in results), default=0)
        spent = sum(r["pass"]["elapsed"] for r in results)
        if results and (budget < 2 * longest + 20
                        or k >= PASSES and spent >= OVERRUN * seconds):
            print("# stopped after %d of %d passes: %.1f s spent, %.0f s left"
                  % (k, passes, spent, budget))
            break
        results.append(run_client(workload, trace and k == 1,
                                  timeout=budget - 15))
    return results, setups


def check(workload, checker, passes):
    from reference import Tally
    tally = Tally()
    for p in passes:
        for index, code, _, output, _ in p["pass"]["results"]:
            checker.check(workload.requests[index], code, output, tally)
    return tally


def p90_note(samples):
    """p90 and the number of samples beyond it."""
    if len(samples) < 2:
        return None, 0
    p90 = statistics.quantiles(samples, n=10)[8]
    return p90, sum(1 for s in samples if s > p90)


def end_to_end(workload, results, setups):
    samples = [row[2] for r in results for row in r["pass"]["results"]]
    walls = [r["pass"]["elapsed"] for r in results]
    n = len(samples)
    print("# %d passes over the same %d requests, %d samples; the passes took "
          "%s s" % (len(results), len(workload.requests), n,
                    " ".join("%.2f" % w for w in walls)))
    requests_per_s = n / sum(walls)
    if workload.name == "table_pairs":
        pairs = len(workload.requests[0].rows) ** 2
        print("# pairs_per_s %.4f 1/s (%d pairs per request x requests_per_s)"
              % (pairs * requests_per_s, pairs))
    p90, beyond = p90_note(samples)
    if beyond >= 10:
        print("# latency_p90_ms %.4f ms (%d samples, %d beyond it)"
              % (p90 * 1000, n, beyond))
    else:
        print("# latency_p90_ms not reported: %d samples leave %d beyond p90, "
              "fewer than 10" % (n, beyond))
    print("# setup_s: median of %d fresh interpreters" % len(setups))
    return {"setup_s": statistics.median(setups),
            "latency_p50_ms": statistics.median(samples) * 1000,
            "requests_per_s": requests_per_s,
            "peak_rss_mb": max(r["rss_kb"] for r in results) / 1024}


def per_layer(workload, results):
    import tracing
    untraced, traced = ([row[2] for row in r["pass"]["results"]] for r in results)
    metrics, base = tracing.layer_metrics(spans_path(workload), len(traced))
    metrics["tables.load_ms"] = results[1]["tables_load_ms"]
    overhead = statistics.mean(traced) - statistics.mean(untraced)
    metrics["trace.overhead_ms"] = overhead * 1000
    metrics["trace.overhead_pct"] = 100 * overhead / statistics.mean(untraced)
    print("# traced pass: %d requests, %d spans, after an untraced pass over the "
          "same requests in another process; obstruct.obstructed_share base: "
          "%d verdicts" % (len(traced), base["spans"], base["obstruct.verdicts"]))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    if not (SRC / "ribboncheck" / "cli.py").is_file():
        return fail("no ribboncheck sources at %s" % SRC)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"]
                 for m in declared["per_layer" if args.trace else "end_to_end"]}
    except (OSError, ValueError, KeyError) as exc:
        return fail("cannot read BENCHMARK.json: %s" % exc)
    sys.path.insert(0, str(HERE))
    try:
        import workloads
        from reference import Checker
    except ImportError as exc:
        return fail("cannot load the benchmark's references: %s" % exc)
    OUT.mkdir(exist_ok=True)

    try:
        workload = workloads.generate(args.workload, args.seed, ROOT)
        checker = Checker(workload.links)
        for rel, text in workload.files.items():
            (ROOT / rel).write_text(text)
        results, setups = run_passes(workload, args.seconds, args.trace, started)
        if args.trace and len(results) < 2:
            raise RuntimeError("no time was left for the traced pass")
    except (ValueError, RuntimeError, OSError, subprocess.SubprocessError) as exc:
        return fail(str(exc))
    tally = check(workload, checker, results)
    attempted = sum(len(r["pass"]["results"]) for r in results)

    print("# perfbench workload=%s seed=%d seconds=%g trace=%d"
          % (workload.name, workload.seed, args.seconds, args.trace))
    print("# nproc=%d python=%s commit=%s src=%s inputs=%s"
          % (os.cpu_count(), platform.python_version(), commit_id(),
             source_digest(), workload.digest()[:12]))
    print("# loop: closed, 1 client, in-process ribboncheck.cli.main(%s)"
          % workload.command)
    print("# inputs: %s" % workload.sizes)
    print("# wrong_results %d count (of %d outputs checked)"
          % (tally.wrong, tally.records))
    if tally.first_wrong:
        print("# first wrong output: %s" % tally.first_wrong)
    print("# failed_share %.6f ratio (%d of %d requests; %d of %d records)"
          % (tally.failed_requests / attempted, tally.failed_requests, attempted,
             tally.failed_records, tally.records))
    if args.trace:
        metrics = per_layer(workload, results)
    else:
        metrics = end_to_end(workload, results, setups)
    if set(metrics) != set(units):
        return fail("metrics %s differ from those BENCHMARK.json declares"
                    % sorted(set(metrics) ^ set(units)))
    for key, value in metrics.items():
        print("%s %.6g %s" % (key, value, units[key]))

    correct = tally.wrong == 0 and attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": tally.failed_requests,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""
The measured process: one pass of one closed-loop client calling
ribboncheck.cli.main in-process, sending the next request only when the
previous one has returned.

    python3 perfbench/client.py <job.json> <result.json>

The job names the checkout's src directory and the request sequence
(argv lists, none repeated, so no request is sent twice in one
process); the pass sends the whole sequence once.  With "trace" set the
pass runs under the tracer and writes its spans when it ends.
Nothing here checks outputs; the parent process does that after this
one has exited.
"""

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter


def run_pass(main, requests, tracer=None):
    results = []
    start = perf_counter()
    for i in range(len(requests)):
        out, err = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    return main(list(requests[i]))
                except SystemExit as exc:
                    return exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a crash is recorded as a failed request
                    traceback.print_exc()
                    return -1

        t0 = perf_counter()
        code = call() if tracer is None else tracer.run_request(i, call)
        elapsed = perf_counter() - t0
        results.append([i, code, elapsed, out.getvalue(), err.getvalue()[-2000:]])
    return {"elapsed": perf_counter() - start, "results": results}


def main(job_path, result_path):
    with open(job_path) as fh:
        job = json.load(fh)
    src = os.path.realpath(job["src"])
    sys.path.insert(0, src)
    import ribboncheck.cli as cli
    from ribboncheck import alexander, laurent, obstruct, oracles, tables
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit("ribboncheck imported from %s, not %s" % (cli.__file__, src))
    t0 = perf_counter()
    tables.knot_table()
    tables.link_table()
    load_ms = (perf_counter() - t0) * 1000

    tracer = None
    if job["trace"]:
        from tracing import Tracer, install
        tracer = Tracer()
        install(tracer, cli, alexander, obstruct, oracles, laurent)
    done = run_pass(cli.main, job["requests"], tracer=tracer)
    if tracer is not None:
        tracer.dump(job["spans"])
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump({"pass": done, "rss_kb": rss_kb, "tables_load_ms": load_ms}, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])

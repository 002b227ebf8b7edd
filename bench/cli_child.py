"""Fresh-interpreter entry point for one `nilcone` call (cli-cold workload).

    python3 cli_child.py ARG...

Behaves like the installed `nilcone` script: it calls `nilcone.cli.run` and
exits with its code, and an uncaught exception prints its traceback and exits
with 1.  The parent sets PYTHONPATH to the checkout's `src`.  When
BENCH_REPORT names a file, the child writes there its `import nilcone.cli`
time, the time spent in `nilcone.cli.run` and its peak RSS.  With
BENCH_TRACE=1 it first installs the layer wrappers and also reports
per-function aggregates, writing its spans to BENCH_SPANS.
"""

import os
import sys
from time import perf_counter

_start = perf_counter()
import nilcone.cli  # noqa: E402  (the import is what is timed)
_import_s = perf_counter() - _start


def _report(tracer, run_s):
    path = os.environ.get("BENCH_REPORT")
    if not path:
        return
    import json
    import resource
    report = {"import_s": _import_s, "run_s": run_s,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        report["layers"] = tracer.summary()
        spans = os.environ.get("BENCH_SPANS")
        if spans:
            tracer.write_spans(spans)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def main():
    tracer = None
    if os.environ.get("BENCH_TRACE") == "1":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    start = perf_counter()
    try:
        code = nilcone.cli.run(sys.argv[1:])
    finally:
        _report(tracer, perf_counter() - start)
    sys.exit(code)


if __name__ == "__main__":
    main()

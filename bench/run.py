#!/usr/bin/env python3
"""The nilcone benchmark: one closed-loop caller, every item checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

Run it from the root of a source checkout; it imports `nilcone` from the
checkout's `src` and exits with 2 when that is missing.  Workloads:

  filtration-sweep  item = one module V_nu: build_irrep (validate included),
                    then the kernel filtration of every weight space against
                    the q-analog prediction.  A1-sc, A2-sc, B2-sc.
  hom-routes        item = one summand pair: Kostant route == slice route,
                    and the tensor-Hom adjunction.  A1-adj, A2-sc.
  character-tables  item = a q = 1 check of a Lusztig q-analog against
                    Freudenthal, an A2-sc branching-is-a-ring-homomorphism
                    check, or a Hilbert series by the sum and product routes.
  cli-cold          item = one `nilcone` call in a fresh interpreter, checked
                    against golden stdout digests, exit codes and the
                    one-line error contract; the call list runs twice against
                    a fresh NILCONE_CACHE_DIR (write pass, then read pass).

A run measures in rounds.  A round of an in-process workload is a fresh
worker process that runs the seeded item list once, so in-memory memos start
cold as they do for every user process; a cli-cold round is a write pass and
a read pass over a fresh cache directory.  Rounds repeat, at least twice,
while the next one would end less than half a round past --seconds.  With
--trace 1 a run makes two untraced and two traced rounds instead, and
reports the per-layer metrics of the faster traced one and the tracing
overhead.

Compute times (in-process items and set-up, a cli-cold child's time inside
`nilcone.cli.run`) are scaled to a reference host speed by `gauge.py`, which
samples a fixed loop between items; the raw per-round throughput is printed
next to the scaled one.

Stdout ends with one JSON line {"correct", "attempted", "failed", "metrics"};
the lines before it name every metric with its unit, the environment and
the host-speed probe; failures go to stderr.  `correct` is false when any
item gave a wrong result (or, in-process, raised); `failed` also counts
items that broke only the CLI's stderr contract.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("filtration-sweep", "hom-routes", "character-tables", "cli-cold")
RUN_DIR = ROOT / ".bench_run"      # per-run scratch, deleted after the run
TRACE_DIR = ROOT / ".bench_trace"  # spans of traced runs, kept
DEADLINE_S = 170.0                 # a run must end within 180 s
SETUP_PROBES_PER_ROUND = 3
MIN_ROUNDS = 2

E2E_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms",
             "item_p90_ms": "ms", "peak_rss_mb": "MB"}
REPORT_UNITS = dict(E2E_UNITS, failed_frac="ratio", write_pass_s="s",
                    read_pass_s="s")


class BenchError(Exception):
    """The benchmark itself could not run (missing source, a hung child)."""


# -- environment ----------------------------------------------------------

def host_probe_ms():
    """The gauge's loop, 20,000 iterations: a host-speed diagnostic taken
    before and after each run; it scales nothing."""
    from gauge import chunk_ms
    return chunk_ms(20_000)


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "nilcone").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment():
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"python": platform.python_version(), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "commit": commit,
            "src_sha256": source_digest()}


def child_env(extra=None):
    """Environment of every child: the checkout's `src` on the path, no disk
    cache unless a workload sets one, and bytecode cached as it is for an
    installed package, so set-up time does not include compiling sources."""
    env = dict(os.environ)
    env.pop("NILCONE_CACHE_DIR", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env.update(extra or {})
    return env


@contextlib.contextmanager
def pinned_cpu():
    """Keep this process and its children on one CPU while measuring.

    The host speed can differ between CPUs at the same moment, and cli-cold
    scales each child's time by the gauge of this process.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("the run would exceed its %d s limit" % DEADLINE_S)
        return left


# -- rounds ----------------------------------------------------------------

def worker_round(workload, items, trace, deadline, spans=None):
    """One fresh worker process running `items` once."""
    from pools import PRESETS
    argv = [sys.executable, str(BENCH / "worker.py"), workload,
            "1" if trace else "0", *PRESETS[workload]]
    job = json.dumps({"items": items, "spans": str(spans) if spans else None})
    try:
        proc = subprocess.run(argv, input=job, capture_output=True,
                              text=True, env=child_env(), cwd=ROOT,
                              timeout=deadline.left())
    except subprocess.TimeoutExpired:
        raise BenchError("%s worker did not finish in time" % workload)
    if proc.returncode != 0:
        raise BenchError("%s worker exited with %d:\n%s"
                         % (workload, proc.returncode, proc.stderr[-2000:]))
    out = json.loads(proc.stdout.splitlines()[-1])
    # in-process, an exception is as wrong as a disagreement
    return {"items": len(items), "latencies": out["latencies"],
            "raw_s": sum(out["raw_latencies"]), "gauge_ms": out["gauge_ms"],
            "failed": out["failed"], "wrong": out["failed"],
            "errors": out["errors"], "maxrss_kb": out["maxrss_kb"],
            "setup": [out["setup_s"]], "layers": out.get("layers", {})}


def cli_round(calls, trace, deadline, work, spans_dir=None):
    """Write pass, then read pass, of the call list over a fresh cache dir.

    Only the time a child spends in `nilcone.cli.run` is scaled by the gauge,
    sampled in this process between calls on the same CPU (`pinned_cpu`):
    process start and imports run cold code, which the host's speed phases
    barely move (1.1x while the gauge's warm loop moved 1.5x), so that part
    is reported as measured.
    """
    from cli_calls import check, load_golden
    from gauge import Gauge
    golden = load_golden()
    gauge = Gauge()
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=work))
    report = work / "child-report.json"
    out = {"items": 0, "failed": 0, "wrong": 0, "errors": [], "maxrss_kb": 0,
           "passes": {}}
    marks = []    # (start, end, child import time, child run time) per call
    layers = []
    first_stdout = {}
    try:
        for pass_name in ("write_pass", "read_pass"):
            for n, (argv, exit_code, kind) in enumerate(calls):
                extra = {"NILCONE_CACHE_DIR": str(cache_dir),
                         "BENCH_REPORT": str(report)}
                if trace:
                    extra["BENCH_TRACE"] = "1"
                    extra["BENCH_SPANS"] = str(
                        spans_dir / ("%s-%02d.jsonl" % (pass_name, n)))
                if report.exists():
                    report.unlink()
                gauge.sample()
                start = time.perf_counter()
                try:
                    proc = subprocess.run(
                        [sys.executable, str(BENCH / "cli_child.py"), *argv],
                        capture_output=True, env=child_env(extra), cwd=ROOT,
                        timeout=deadline.left())
                except subprocess.TimeoutExpired:
                    raise BenchError("nilcone %s did not finish in time"
                                     % " ".join(argv))
                end = time.perf_counter()
                right, passed, reason = check(argv, exit_code, kind,
                                              proc.returncode, proc.stdout,
                                              proc.stderr, golden)
                if pass_name == "write_pass":
                    first_stdout[argv] = proc.stdout
                elif proc.stdout != first_stdout[argv]:
                    right = passed = False
                    reason = "read-pass stdout differs from the write pass"
                import_s = run_s = 0.0
                if report.exists():
                    child = json.loads(report.read_text())
                    import_s, run_s = child["import_s"], child["run_s"]
                    out["maxrss_kb"] = max(out["maxrss_kb"], child["maxrss_kb"])
                    if "layers" in child:
                        layers.append(child["layers"])
                else:
                    right = passed = False
                    reason = "the child wrote no report"
                marks.append((start, end, import_s, run_s))
                if not passed:
                    out["failed"] += 1
                    out["errors"].append("%s: nilcone %s: %s"
                                         % (pass_name, " ".join(argv), reason))
                if not right:
                    out["wrong"] += 1
            out["items"] += len(calls)
        gauge.sample()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    out["latencies"] = [end - start + run_s * (gauge.scale(start, end) - 1)
                        for start, end, _, run_s in marks]
    out["setup"] = [imp for _, _, imp, _ in marks if imp]
    out["passes"] = {"write_pass": out["latencies"][:len(calls)],
                     "read_pass": out["latencies"][len(calls):]}
    out["raw_s"] = sum(end - start for start, end, _, _ in marks)
    out["gauge_ms"] = gauge.median_ms()
    factor = sum(out["latencies"]) / out["raw_s"]
    out["layers"] = merge_layers(layers)
    for fields in out["layers"].values():
        fields["self_s"] *= factor
    return out


def merge_layers(summaries):
    """Sum per-function aggregates over the children of a cli-cold round."""
    total = {}
    for summary in summaries:
        for name, fields in summary.items():
            acc = total.setdefault(name, dict.fromkeys(fields, 0))
            for field, value in fields.items():
                acc[field] += value
    return total


def run_rounds(one_round, probe_setup, seconds, trace, deadline):
    """(untraced rounds, traced rounds).

    Untraced: at least MIN_ROUNDS rounds, repeated while the next one would
    end less than half a round past `seconds`; `probe_setup` runs before every round and once
    more at the end, so the set-up samples spread over the whole run.
    Traced: two untraced and two traced rounds, alternating; one of each
    when a second pair would not fit in the deadline.
    """
    if trace:
        untraced, traced = [], []
        start = time.monotonic()
        for _ in range(2):
            untraced.append(one_round(False))
            traced.append(one_round(True))
            per_pair = (time.monotonic() - start) / len(traced)
            if deadline.end - time.monotonic() < 1.5 * per_pair:
                break
        return untraced, traced
    rounds = []
    start = time.monotonic()
    while True:
        probe_setup()
        rounds.append(one_round(False))
        elapsed = time.monotonic() - start
        per_round = elapsed / len(rounds)
        if len(rounds) >= MIN_ROUNDS and elapsed + per_round / 2 > seconds:
            break
        if deadline.end - time.monotonic() < 2 * per_round:
            break
    probe_setup()
    return rounds, []


# -- metrics ---------------------------------------------------------------

def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def items_per_s(rounds):
    """Median over rounds of items per second of scaled item time."""
    return statistics.median(r["items"] / sum(r["latencies"]) for r in rounds)


def end_to_end(rounds, setup):
    """Every end-to-end metric of the report, from the untraced rounds."""
    latencies = [x for r in rounds for x in r["latencies"]]
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": items_per_s(rounds),
        "item_p50_ms": percentile(latencies, 50) * 1e3,
        "item_p90_ms": percentile(latencies, 90) * 1e3,
        "peak_rss_mb": max(r["maxrss_kb"] for r in rounds) / 1024.0,
        "failed_frac": (sum(r["failed"] for r in rounds)
                        / sum(r["items"] for r in rounds)),
    }
    if "passes" in rounds[0]:
        for name in ("write_pass", "read_pass"):
            metrics[name + "_s"] = statistics.median(
                sum(r["passes"][name]) for r in rounds)
    return metrics


def per_layer(workload, traced_rounds, untraced_rounds, probe_ms):
    """(every per-layer metric, traced functions that recorded no call on a
    workload they are mapped to).

    Call counts repeat exactly from round to round; times come from the
    faster of the traced rounds.
    """
    from tracing import TRACED
    traced = min(traced_rounds, key=lambda r: sum(r["latencies"]))
    empty = {"calls": 0, "self_s": 0.0, "repeats": 0, "hits": 0}
    metrics = {}
    missing = []
    for name, _, _, fields, workloads in TRACED:
        s = traced["layers"].get(name, empty)
        calls = s["calls"]
        if calls == 0 and workload in workloads:
            missing.append(name)
        ratio = {"repeat_frac": s["repeats"], "hit_frac": s["hits"]}
        for field in fields:
            if field in ratio:
                value = ratio[field] / calls if calls else 0.0
            else:
                value = s[field]
            metrics["%s.%s" % (name, field)] = value
    passes = traced.get("passes", {})
    metrics["cli.import_s"] = sum(traced["setup"]) if passes else 0.0
    metrics["cli.process_s"] = sum(traced["latencies"]) if passes else 0.0
    for name in ("write_pass", "read_pass"):
        latencies = passes.get(name, [0.0])
        metrics["cli.%s.call_p50_ms" % name] = (
            statistics.median(latencies) * 1e3)
        metrics["cli.%s_s" % name] = sum(latencies)
    metrics["trace.untraced_items_per_s"] = items_per_s(untraced_rounds)
    metrics["trace.traced_items_per_s"] = items_per_s(traced_rounds)
    metrics["host.probe_ms"] = probe_ms
    return metrics, missing


# -- one run ---------------------------------------------------------------

def measure(workload, seed, seconds, trace, tiny=False, out_dir=None):
    """Run one workload and return its result record.

    `tiny` shrinks every pool to a smoke-test size; `out_dir` replaces the
    checkout's scratch and span directories.
    """
    if not (SRC / "nilcone" / "__init__.py").is_file():
        raise BenchError("no nilcone source at %s; run from a checkout" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nilcone
    if SRC not in Path(nilcone.__file__).resolve().parents:
        raise BenchError("nilcone was imported from %s, not from %s"
                         % (nilcone.__file__, SRC))
    deadline = Deadline(DEADLINE_S)
    run_base = Path(out_dir) if out_dir else RUN_DIR
    run_base.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=workload + "-", dir=run_base))
    spans_dir = None
    if trace:
        spans_dir = (Path(out_dir) if out_dir else TRACE_DIR) / (
            "%s-seed%d" % (workload, seed))
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
    setup = []
    try:
        with pinned_cpu():
            subprocess.run([sys.executable, "-c", "import nilcone.cli, gauge"],
                           env=child_env(), cwd=BENCH, check=True,
                           timeout=deadline.left())  # writes the bytecode
            probe_before = host_probe_ms()
            if workload == "cli-cold":
                from cli_calls import CALLS, TINY
                items = [CALLS[i] for i in TINY] if tiny else list(CALLS)
                random.Random(seed).shuffle(items)

                def one_round(traced):
                    return cli_round(items, traced, deadline, work, spans_dir)

                def probe_setup():
                    pass  # the calls themselves time the child's import
            else:
                from pools import make_items
                items = make_items(workload, seed, tiny)

                def one_round(traced):
                    spans = spans_dir / "worker.jsonl" if traced else None
                    return worker_round(workload, items, traced, deadline,
                                        spans)

                def probe_setup():
                    for _ in range(SETUP_PROBES_PER_ROUND):
                        probe = worker_round(workload, [], False, deadline)
                        setup.extend(probe["setup"])
            rounds, traced_rounds = run_rounds(one_round, probe_setup, seconds,
                                               trace, deadline)
            probe_after = host_probe_ms()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if workload == "cli-cold" or not setup:
        setup = [s for r in rounds for s in r["setup"]]
    checked = rounds + traced_rounds
    result = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "rounds": len(rounds), "items_per_round": len(items),
        "rounds_items_per_s": {
            "scaled": [r["items"] / sum(r["latencies"]) for r in checked],
            "raw": [r["items"] / r["raw_s"] for r in checked]},
        "gauge_ms": [r["gauge_ms"] for r in checked],
        "environment": environment(),
        "host_probe_ms": {"before": probe_before, "after": probe_after},
        "report": end_to_end(rounds, setup),
        "attempted": sum(r["items"] for r in checked),
        "failed": sum(r["failed"] for r in checked),
        "errors": [e for r in checked for e in r["errors"]],
    }
    correct = not any(r["wrong"] for r in checked)
    if trace:
        result["per_layer"], missing = per_layer(
            workload, traced_rounds, rounds,
            statistics.median([probe_before, probe_after]))
        if missing:
            correct = False
            result["errors"].append("traced functions with no call on %s: %s"
                                    % (workload, ", ".join(missing)))
    result["correct"] = correct
    return result


def final_metrics(result):
    """The metrics of the closing JSON line: end-to-end ones with --trace 0,
    per-layer ones with --trace 1."""
    from tracing import per_layer_spec
    if result["trace"]:
        units = {name: unit for name, unit, _ in per_layer_spec()}
        values = result["per_layer"]
    else:
        units = E2E_UNITS
        values = result["report"]
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def print_result(result):
    print("# %s  seed %d  trace %d  rounds %d  items/round %d" % (
        result["workload"], result["seed"], result["trace"], result["rounds"],
        result["items_per_round"]))
    for name, value in result["report"].items():
        print("  %-16s %14.6g %s" % (name, value, REPORT_UNITS[name]))
    print("  attempted %d, failed %d, correct %s" % (
        result["attempted"], result["failed"], result["correct"]))
    print(json.dumps({key: result[key] for key in
                      ("environment", "host_probe_ms", "rounds_items_per_s",
                       "gauge_ms", "report")},
                     sort_keys=True))
    seen = set()
    for error in result["errors"]:
        if error not in seen:
            seen.add(error)
            print("failure: " + error, file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = measure(name, args.seed, args.seconds, bool(args.trace))
            print_result(result)
            results.append(result)
    except BenchError as exc:
        print("bench: error: %s" % exc, file=sys.stderr)
        return 2
    if len(results) == 1:
        metrics = final_metrics(results[0])
    else:
        metrics = {"%s.%s" % (r["workload"], name): m
                   for r in results for name, m in final_metrics(r).items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Fresh-process worker that runs one round of an in-process workload.

    python3 worker.py WORKLOAD TRACE PRESET...   (job JSON on stdin)

The parent sets PYTHONPATH to the checkout's `src`.  The worker times its
own set-up (`import nilcone` plus `build_datum` for PRESET...), reads the job
`{"items": [...], "spans": path or null}` from stdin, runs the items one
after another (a closed loop with a single caller) and prints one JSON line
with the set-up time, per-item latencies and failures.  Times are scaled to
the reference host speed by `gauge.Gauge`, sampled between items; the raw
latencies are reported too.  The set-up time is scaled by the sample taken
right after it: in fresh processes on the tuning VM, set-up slowed 1.7x
where the loop slowed 2.1x, and scaling cut its quartile spread from 46 %
to 14 %.
With TRACE = 1 the layer wrappers are installed before `build_datum`, and
the line also carries the per-function aggregates.

Every item is checked by comparing two independent routes; a failed check
or an exception counts as a failure and the round goes on.
"""

import sys
from time import perf_counter


def _filtration(nilcone, datums, item):
    """V_nu: build (validate included), filter every weight space by kernels
    of e powers, compare each with the q-analog prediction."""
    preset, nu = item
    datum = datums[preset]
    nu = tuple(nu)
    rep = nilcone.build_irrep(datum, nu)
    profiles = nilcone.reps.bk_profile_all_weights(rep)
    return all(profile.graded_poly() == nilcone.p_bk_polynomial(datum, nu, lam)
               for lam, profile in profiles.items())


def _hom(nilcone, datums, item):
    """One summand pair: Kostant route == slice route, and the adjunction."""
    preset, lam, mu = item
    datum = datums[preset]
    lam, mu = tuple(lam), tuple(mu)
    source = nilcone.free_object([(lam, 0)])
    target = nilcone.free_object([(mu, 0)])
    return (nilcone.hom_profile_kostant(datum, source, target)
            == nilcone.hom_profile_slice(datum, source, target)
            and nilcone.adjunction_check(datum, lam, mu))


def _character(nilcone, datums, item):
    from nilcone import characters, qanalog
    kind = item[0]
    if kind == "q":
        # q = 1 specialization of the q-analog against Freudenthal
        _, preset, lam, mu = item
        datum = datums[preset]
        lam, mu = tuple(lam), tuple(mu)
        return (nilcone.lusztig_q_analog(datum, lam, mu).at_one()
                == nilcone.weight_multiplicity(datum, lam, mu))
    if kind == "t":
        # branching to both Levis and the torus is a ring homomorphism
        _, lam, mu = item
        datum = datums["A2-sc"]
        lam, mu = tuple(lam), tuple(mu)
        product = nilcone.tensor_decompose(datum, lam, mu)
        for subset in ((), (0,), (1,)):
            lhs = characters.restrict_decomposition(datum, subset, product)
            rhs = characters.tensor_decompose_on(
                datum.levi(subset),
                nilcone.restrict_to_levi(datum, subset, lam),
                nilcone.restrict_to_levi(datum, subset, mu))
            if lhs != rhs:
                return False
        return True
    # Hilbert series: sum route against the complete-intersection product
    _, preset, truncation = item
    datum = datums[preset]
    _, exponents = nilcone.centralizer_and_exponents(datum)
    dim_g = datum.rank + 2 * len(datum.positive_roots())
    return (nilcone.hilbert_series_nilcone(datum, truncation)
            == qanalog.hilbert_series_complete_intersection(
                exponents, dim_g, truncation))


RUNNERS = {"filtration-sweep": _filtration, "hom-routes": _hom,
           "character-tables": _character}


def main(argv):
    workload, trace, presets = argv[0], argv[1] == "1", argv[2:]
    runner = RUNNERS[workload]
    start = perf_counter()
    import nilcone
    import_s = perf_counter() - start
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    begin = perf_counter()
    datums = {preset: nilcone.build_datum(preset) for preset in presets}
    end = perf_counter()
    setup_s = import_s + end - begin

    import json
    import resource
    from gauge import Gauge
    gauge = Gauge()
    gauge.sample()
    setup_s *= gauge.scale(end, end)
    job = json.loads(sys.stdin.read())
    marks = []
    failed = 0
    errors = []
    for index, item in enumerate(job["items"]):
        if tracer is not None:
            tracer.item = index
        t0 = perf_counter()
        try:
            ok = runner(nilcone, datums, item)
        except Exception as exc:  # counted as a failure; the round goes on
            ok = None
            errors.append("%r raised %s: %s" % (item, type(exc).__name__, exc))
        t1 = perf_counter()
        marks.append((t0, t1))
        if ok is not True:
            failed += 1
            if ok is False:
                errors.append("%r: the two routes disagree" % (item,))
        if gauge.due():
            gauge.sample()
    gauge.sample()
    result = {
        "setup_s": setup_s,
        "raw_latencies": [t1 - t0 for t0, t1 in marks],
        "latencies": [(t1 - t0) * gauge.scale(t0, t1) for t0, t1 in marks],
        "gauge_ms": gauge.median_ms(),
        "failed": failed, "errors": errors[:5],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        raw = sum(result["raw_latencies"])
        factor = sum(result["latencies"]) / raw if raw else 1.0
        layers = tracer.summary()
        for fields in layers.values():
            fields["self_s"] *= factor
        result["layers"] = layers
        if job.get("spans"):
            tracer.write_spans(job["spans"])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])

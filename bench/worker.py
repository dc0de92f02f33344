"""Workload process: runs one workload as a closed loop with one client.

Started by ``run.py`` with the thread-count variables pinned and
``src`` on the path.  Each request is one in-process call of
``barrierwaves.cli.main(argv)``; the next request starts only after the
previous one returns.  Output checks run after the timed loop.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --outdir DIR

Prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np
import scipy

from barrierwaves.cli import main as cli_main
from barrierwaves.operator import N_CAP

import workloads as wl
from probe import SpeedProbe, pin_to_one_core
from tracing import SUM_TARGETS, TARGETS, Tracer

#: per workload: request generator and the mean request time used to size
#: the traced run (a fixed request count, so its counts and means repeat)
WORKLOADS = {
    "field-quadrature": dict(make=lambda seed: wl.field_requests(seed, "quadrature", 3),
                             method="quadrature", request_s=0.21),
    "field-operator": dict(make=lambda seed: wl.field_requests(seed, "operator", 2),
                           method="operator", request_s=0.33),
    "supershift": dict(make=wl.supershift_requests, method=None, request_s=1.45),
}

#: seed of the warm-up stream, never used for measured requests
WARMUP_SEED = -1

SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import barrierwaves.cli; "
    "print(repr(t0), repr(time.perf_counter() - t0))"
)


def call(argv) -> tuple:
    """Run one request; returns (start, latency in s, exit status or 'raised')."""
    start = perf_counter()
    try:
        status = cli_main(argv)
    except SystemExit as exc:
        status = exc.code
    except Exception as exc:  # a request that raises is a failed request
        print(f"request raised {type(exc).__name__}: {exc}", file=sys.stderr)
        status = "raised"
    return start, perf_counter() - start, status


def run_requests(requests, outdir, tag, deadline=None):
    """Closed loop over ``requests``; stops at ``deadline`` if one is given.

    Returns (done, (start, latency) per request, statuses, paths).
    """
    done, timings, statuses, paths = [], [], [], []
    for i, req in enumerate(requests):
        if deadline is not None and perf_counter() >= deadline:
            break
        path = os.path.join(outdir, f"{tag}-{i}.csv")
        start, latency, status = call(req.argv + ["--out", path])
        done.append(req)
        timings.append((start, latency))
        statuses.append(status)
        paths.append(path)
    return done, timings, statuses, paths


def reference_latencies(probe, timings) -> list:
    """Latencies scaled to the reference speed by the probe samples around each."""
    return [lat / probe.slowdown(start, start + lat) for start, lat in timings]


def check_all(done, statuses, paths, method):
    """Check every request's output.

    Returns (results, ok flag per request, worst gated error, worst target error).
    """
    results, ok, worst, target_worst = 0, [], 0.0, 0.0
    for req, status, path in zip(done, statuses, paths):
        ok.append(False)
        if status != 0:
            continue
        try:
            if method is None:
                n, err, target_err = wl.check_supershift(req, path)
                target_worst = max(target_worst, target_err)
            else:
                n, err = wl.check_field(req, path, method)
        except (wl.CheckFailed, ArithmeticError, ValueError, OSError) as exc:
            print(f"output check failed: {exc}", file=sys.stderr)
            continue
        ok[-1] = True
        results += n
        worst = max(worst, err)
    return results, ok, worst, target_worst


def latency_summary(latencies, ok):
    """Median and tail latency; a failed request counts as infinitely slow.

    The tail is the order statistic with exactly ten samples beyond it,
    i.e. the highest percentile that has at least ten samples beyond it.
    """
    lat = sorted(l if good else math.inf for l, good in zip(latencies, ok))
    n = len(lat)
    idx = max(0, n - 11)
    return {
        "p50": statistics.median(lat),
        "tail": lat[idx],
        "tail_percentile": 100.0 * idx / (n - 1) if n > 1 else 100.0,
        "samples": n,
    }


def measure_setup() -> tuple:
    """Median import time of ``barrierwaves.cli`` over fresh interpreters.

    Returns (time at reference speed, raw time).  One untimed import first
    writes the bytecode caches, which an installed copy already has.  The
    interpreters inherit this process's core, so the probe sees their speed.
    """
    timings = []
    with SpeedProbe() as probe:
        for i in range(SETUP_REPEATS + 1):
            out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                                 capture_output=True, text=True, timeout=60)
            if i:
                start, took = (float(v) for v in out.stdout.split())
                timings.append((start, took))
    return (statistics.median(reference_latencies(probe, timings)),
            statistics.median(took for _, took in timings))


def warm_up(spec, outdir) -> None:
    """Fill lazy caches (Gauss panels, imports) outside the timed region."""
    gen = spec["make"](WARMUP_SEED)
    count = 1 if spec["method"] is None else 4   # one block covers both data types
    for i in range(count):
        call(next(gen).argv + ["--out", os.path.join(outdir, f"warm-{i}.csv")])


def environment(seed) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": seed,
    }


def untraced(spec, seed, seconds, outdir) -> dict:
    setup_s, raw_setup_s = measure_setup()
    warm_up(spec, outdir)
    gen = spec["make"](seed)
    deadline = perf_counter() + seconds
    with SpeedProbe() as probe:
        done, timings, statuses, paths = run_requests(gen, outdir, "req", deadline)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    results, ok, worst, target_err = check_all(done, statuses, paths, spec["method"])
    failed = ok.count(False)
    raw = [lat for _, lat in timings]
    scaled = reference_latencies(probe, timings)
    lat = latency_summary(scaled, ok)
    raw_lat = latency_summary(raw, ok)
    return {
        "attempted": len(done),
        "failed": failed,
        "metrics": {
            "results_per_s": results / sum(scaled),
            "latency_p50_s": lat["p50"],
            "latency_tail_s": lat["tail"],
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        },
        "details": {
            "results": results,
            "busy_s": sum(raw),
            "mean_slowdown": sum(raw) / sum(scaled),
            "raw_results_per_s": results / sum(raw),
            "raw_latency_p50_s": raw_lat["p50"],
            "raw_latency_tail_s": raw_lat["tail"],
            "raw_setup_s": raw_setup_s,
            "failed_fraction": failed / max(1, len(done)),
            "latency_tail_percentile": lat["tail_percentile"],
            "latency_samples": lat["samples"],
            "check_rel_err_max": worst,
            "target_rel_err_max": target_err,
        },
    }


def traced(spec, seed, seconds, outdir) -> dict:
    """A fixed request list, each request run once untraced and once traced.

    Pairing the two runs of every request keeps machine-speed drift out of
    the tracing overhead.
    """
    warm_up(spec, outdir)
    count = max(4, round(seconds / (2.0 * spec["request_s"])))
    gen = spec["make"](seed)
    requests = [next(gen) for _ in range(count)]
    tracer = Tracer(n_cap=N_CAP)
    plain_timings, plain_status, plain_paths = [], [], []
    timings, statuses, paths = [], [], []
    with SpeedProbe() as probe:
        for i, req in enumerate(requests):
            # alternate which run goes first, so the warm caches the second
            # run finds do not bias the overhead
            for traced_run in ((False, True) if i % 2 == 0 else (True, False)):
                if not traced_run:
                    _, tm, st, path = run_requests([req], outdir, f"plain-{i}")
                    plain_timings += tm
                    plain_status += st
                    plain_paths += path
                    continue
                tracer.request = i
                tracer.install()
                try:
                    _, tm, st, path = run_requests([req], outdir, f"traced-{i}")
                finally:
                    tracer.uninstall()
                timings += tm
                statuses += st
                paths += path
    results, ok, worst, target_err = check_all(requests, statuses, paths, spec["method"])
    for i, (a, b, status) in enumerate(zip(plain_paths, paths, plain_status)):
        if ok[i] and (status != 0 or not _same_bytes(a, b)):
            print(f"traced output {b} differs from untraced {a}", file=sys.stderr)
            ok[i] = False
    failed = ok.count(False)
    traced_raw = sum(lat for _, lat in timings)
    traced_ref = sum(reference_latencies(probe, timings))
    plain_ref = sum(reference_latencies(probe, plain_timings))
    metrics = layer_metrics(tracer, results, count, traced_ref / traced_raw)
    metrics["trace.overhead_fraction"] = 1.0 - plain_ref / traced_ref
    metrics["superosc.target_rel_err_max"] = target_err
    metrics["check.rel_err_max"] = worst
    return {
        "attempted": count,
        "failed": failed,
        "metrics": metrics,
        "details": {
            "results": results,
            "requests": count,
            "traced_busy_s": traced_raw,
            "mean_slowdown": traced_raw / traced_ref,
            "missing_targets": tracer.missing,
            "self_s_total": _self_split(tracer),
        },
        "spans": tracer.spans(),
    }


def _same_bytes(a, b) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def _self_split(tracer) -> dict:
    stats, _, _ = tracer.totals()
    return {name: s.self_time for name, s in sorted(stats.items())}


def layer_metrics(tracer, results, requests, f) -> dict:
    """Per-layer metrics from the traced pass; per result unless noted.

    Times are scaled to the reference speed by the factor ``f``.

    A metric whose wrap target does not exist is left out (absent); a
    layer that exists but did no work on this workload reports 0.
    """
    stats, counters, maxima = tracer.totals()
    missing_spans = {name for mod, attr, name, _ in TARGETS
                     if f"{mod}.{attr}" in tracer.missing}
    if any(f"{mod}.{attr}" in tracer.missing for mod, attr in SUM_TARGETS):
        missing_spans.add("summation.add")
    per = 1.0 / max(1, results)

    def self_s(name):
        return stats[name].self_time * f * per if name in stats else 0.0

    def calls(name):
        return stats[name].calls if name in stats else 0

    def ratio(a, b):
        return a / b if b else 0.0

    wofz_points = counters["complexfn.wofz.points"]
    table = {
        "complexfn.wofz.points_per_result": ("complexfn.wofz", wofz_points * per),
        "complexfn.wofz.self_s": ("complexfn.wofz", self_s("complexfn.wofz")),
        "complexfn.wofz.ns_per_point": (
            "complexfn.wofz",
            ratio(stats["complexfn.wofz"].self_time * f * 1e9, wofz_points)
            if "complexfn.wofz" in stats else 0.0),
        "greens.kernel_grid.values_per_result": (
            "greens.kernel_grid", counters["greens.kernel_grid.values"] * per),
        "greens.kernel_grid.self_s": ("greens.kernel_grid", self_s("greens.kernel_grid")),
        "greens.reflected_fraction": (
            "greens.stable_scaled_erfcx",
            ratio(counters["greens.reflected_points"], counters["greens.erfcx_points"])),
        "evolve.psi_fresnel.self_s": ("evolve.psi_fresnel", self_s("evolve.psi_fresnel")),
        "evolve.eval_datum.self_s": ("evolve.eval_datum", self_s("evolve.eval_datum")),
        "evolve.eval_datum.points_per_result": (
            "evolve.eval_datum", counters["evolve.eval_datum.points"] * per),
        "evolve.rho_max_mean": (
            "evolve.psi_fresnel", ratio(counters["evolve.rho_max_sum"], counters["evolve.samples"])),
        "evolve.est_error_max": ("evolve.psi_fresnel", maxima.get("evolve.est_error", 0.0)),
        "operator.build_table.self_s": ("operator.build_table", self_s("operator.build_table")),
        "operator.table_order_mean": (
            "operator.build_table",
            ratio(counters["operator.table_order_sum"], counters["operator.tables"])),
        "operator.truncation_order.self_s": (
            "operator.truncation_order", self_s("operator.truncation_order")),
        "operator.truncation_order.uncertified_fraction": (
            "operator.truncation_order",
            ratio(stats["operator.truncation_order"].errors, calls("operator.truncation_order"))
            if "operator.truncation_order" in stats else 0.0),
        "operator.log_majorant_terms.self_s": (
            "operator.log_majorant_terms", self_s("operator.log_majorant_terms")),
        "operator.coeff_bound.self_s": ("operator.coeff_bound", self_s("operator.coeff_bound")),
        "operator.apply_plane_wave.calls_per_result": (
            "operator.apply_plane_wave", calls("operator.apply_plane_wave") * per),
        "operator.apply_plane_wave.self_s": (
            "operator.apply_plane_wave", self_s("operator.apply_plane_wave")),
        "operator.apply_taylor.self_s": ("operator.apply_taylor", self_s("operator.apply_taylor")),
        "summation.compensated_adds_per_result": ("summation.add", calls("summation.add") * per),
        "summation.compensated_adds_per_request": (
            "summation.add", ratio(calls("summation.add"), requests)),
        "summation.adds_per_capped_plane_wave_apply": (
            "summation.add",
            ratio(counters["summation.capped_apply_adds"], counters["summation.capped_applies"])),
        "summation.add.self_s": ("summation.add", self_s("summation.add")),
        "superosc.supershift_experiment.self_s": (
            "superosc.supershift_experiment", self_s("superosc.supershift_experiment")),
        "superosc.a1_distance.self_s": ("superosc.a1_distance", self_s("superosc.a1_distance")),
        "cli.parse_config.self_s": ("cli.parse_config", self_s("cli.parse_config")),
        "cli.write_csv.self_s": ("cli.write_csv", self_s("cli.write_csv")),
        "cli.write_csv.bytes": ("cli.write_csv", ratio(counters["cli.write_csv.bytes"], requests)),
    }
    return {name: value for name, (span, value) in table.items()
            if span not in missing_spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", required=True)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    core = pin_to_one_core()
    os.makedirs(args.outdir, exist_ok=True)
    run = traced if args.trace else untraced
    out = run(spec, args.seed, args.seconds, args.outdir)
    out["env"] = {**environment(args.seed), "pinned_core": core}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

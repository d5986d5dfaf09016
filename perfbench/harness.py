"""Run loop, operation accounting, metrics and machine description.

A run has two phases. The set-up generates the seeded inputs and fits the
models the workload consumes; it is repeated ``sizes.setups`` times and its
median wall time is ``setup_s``. The timed phase is a closed loop with one
caller: cycles of library calls, each call starting when the previous one
returns, until ``seconds`` of cycle time have passed. Correctness checks run
between cycles, outside the clock.

With tracing on, the run records spans instead: one traced set-up, then
untraced and traced cycles in turn (their median wall times give
``trace.overhead_pct``), then the fixed-size autodiff and optimiser probes.
"""

import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import workloads
from ops import LAYERS, Run
from spans import NullTracer, Tracer, self_times

OUT_DIR = Path(__file__).resolve().parent / "out"

# Calibration kernel: small matrix products and elementwise ops in a Python
# loop, the same mix of interpreter and numpy work as the library's
# autodiff. On a 2-vCPU Intel Xeon VM (Python 3.11.7, numpy 2.4.6, OpenBLAS
# 0.3.31) it took 3.5 ms in fast spells and 5.5 ms in slow ones;
# KERNEL_REFERENCE_S, between the two, is the speed times are reported at.
KERNEL_REFERENCE_S = 0.004
_KERNEL_RNG = np.random.default_rng(0)
_KERNEL_A = _KERNEL_RNG.normal(size=(32, 16))
_KERNEL_B = _KERNEL_RNG.normal(size=(16, 16))


def kernel():
    """Wall time of one pass of the calibration kernel."""
    start = time.perf_counter()
    for _ in range(400):
        h = np.maximum(_KERNEL_A @ _KERNEL_B, 0.0)
        _KERNEL_A.T @ ((h > 0) * 1.0)
        h.sum(axis=0)
    return time.perf_counter() - start


# name, unit, direction; every workload emits every one of them
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("target_acc", "fraction", "higher"),
)

# per-layer metrics taken from spans: metric -> (span name, count or None);
# a value is seconds (or the count) per traced set-up plus per timed cycle
SPAN_METRICS = {
    "data.s": ("data", None),
    "models.fit_s": ("models.fit", None),
    "models.fit_steps": ("models.fit", "steps"),
    "estimator.fit_s": ("estimator.fit", None),
    "estimator.fit_steps": ("estimator.fit", "steps"),
    "defense.train_filter_s": ("defense.train_filter", None),
    "models.infer_s": ("models.infer", None),
    "models.infer_rows": ("models.infer", "rows"),
    "energy.measure_many_s": ("energy.measure_many", None),
    "energy.samples": ("energy.measure_many", "samples"),
    "attacks.input_based_s": ("attacks.input_based", None),
    "attacks.input_based_iters": ("attacks.input_based", "iters"),
    "attacks.universal_s": ("attacks.universal", None),
    "attacks.universal_iters": ("attacks.universal", "iters"),
    "attacks.ilfo_s": ("attacks.ilfo", None),
    "attacks.ilfo_iters": ("attacks.ilfo", "iters"),
    "attacks.surrogate_s": ("attacks.surrogate", None),
    "defense.gradient_feature_s": ("defense.gradient_feature", None),
    "defense.gradient_feature_calls": ("defense.gradient_feature", "calls"),
    "defense.train_svm_s": ("defense.train_svm", None),
    "defense.evaluate_defense_s": ("defense.evaluate_defense", None),
    "estimator.predict_s": ("estimator.predict", None),
    "metrics.pearson_s": ("metrics.pearson", None),
    "metrics.robustness_scores_s": ("metrics.robustness_scores", None),
    "serialize.roundtrip_s": ("serialize.roundtrip", None),
}


def per_layer_units():
    """Every per-layer metric and its unit, in the order they are reported."""
    units = dict(workloads.PROBE_METRICS)
    units.update((name, "count" if count else "s")
                 for name, (_, count) in SPAN_METRICS.items())
    units.update(workloads.SUMMARY_METRICS)
    units.update(("%s.failed" % layer, "count") for layer in LAYERS)
    units["trace.overhead_pct"] = "%"
    return units


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _scaled(run):
    return run.scaled_durations(KERNEL_REFERENCE_S)


def _setups(spec, seed, sizes):
    """Run the set-up ``sizes.setups`` times; keep the last one's state.

    A set-up's time is the sum of its library calls' times at the
    reference speed; the benchmark's own glue between them is negligible.
    """
    times = []
    for _ in range(sizes.setups):
        run = Run(kernel=kernel)
        state = spec.setup(run, seed, sizes)
        times.append(sum(took for _, took in _scaled(run)))
    run.kernel = None
    return run, state, times


def _timed(spec, run, state, seconds, sizes):
    """Closed-loop cycles until ``seconds`` of cycle time have passed.

    Returns the cycle wall times and the cycle's units of work per second.
    The rate divides the units of one cycle by a median cycle: the sum,
    over the calls of a cycle, of each call's median time across cycles,
    at the reference speed. A burst of a shared machine then moves one
    call's sample, not a whole cycle's time.
    """
    walls, samples, ops = [], {}, []
    run.kernel = kernel
    while sum(walls) < seconds or len(walls) < sizes.min_cycles:
        run.durations = []
        start = time.perf_counter()
        out = spec.cycle(run, state, sizes)
        calls = _scaled(run)
        walls.append(time.perf_counter() - start)
        spec.verify(run, state, out)
        # the k-th call of every cycle is the same call on the same inputs
        for k, (name, took) in enumerate(calls):
            samples.setdefault((k, name), []).append(took)
        ops.append(out["ops"])
        state["last"] = out
    run.kernel = None
    median_cycle = sum(statistics.median(samples[(k, name)])
                       for k, (name, _) in enumerate(calls))
    return walls, statistics.median(ops) / median_cycle


def _span_metrics(tracer, traced_cycles):
    totals = dict.fromkeys(SPAN_METRICS, 0.0)
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        # set-up spans count once, cycle spans as a per-cycle mean
        weight = 1.0 if span["run"] == "setup" else 1.0 / traced_cycles
        for metric, (name, count) in SPAN_METRICS.items():
            if span["name"] != name or span["run"] == "probe":
                continue
            value = self_s if count is None else span["counts"].get(count, 0)
            totals[metric] += weight * value
    return totals


def run_benchmark(workload, seed, seconds, trace, sizes=None, out_dir=OUT_DIR):
    """Run one workload; return (result line, record of what ran)."""
    spec = workloads.WORKLOADS[workload]
    sizes = sizes or workloads.Sizes()
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": bool(trace), "machine": machine(),
              "loadavg_start": os.getloadavg()}
    if not trace:
        run, state, setup_times = _setups(spec, seed, sizes)
        walls, rate = _timed(spec, run, state, seconds, sizes)
        summary = spec.summarize(run, state)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": rate,
            "peak_rss_mb": peak_rss_mb(),
            "target_acc": summary["target_acc"],
        }
        record.update(setup_times=setup_times, cycle_walls=walls,
                      summary=summary)
    else:
        tracer = Tracer()
        run = Run(tracer)
        tracer.begin_run("setup")
        with tracer.span("bench.setup"):
            state = spec.setup(run, seed, sizes)
        plain, traced = [], []
        while (sum(plain) + sum(traced) < seconds
               or len(traced) < max(1, sizes.min_cycles)):
            for walls, tr in ((plain, NullTracer()), (traced, tracer)):
                run.tracer = tr
                tracer.begin_run("cycle-%d" % len(traced))
                start = time.perf_counter()
                with tr.span("bench.cycle"):
                    out = spec.cycle(run, state, sizes)
                walls.append(time.perf_counter() - start)
                spec.verify(run, state, out)
                state["last"] = out
        run.tracer = tracer
        tracer.begin_run("probe")
        with tracer.span("bench.probe"):
            metrics = workloads.probes(tracer, state, sizes)
        metrics.update(_span_metrics(tracer, len(traced)))
        summary = spec.summarize(run, state)
        metrics.update({k: summary[k] for k in workloads.SUMMARY_METRICS})
        metrics.update({"%s.failed" % k: v for k, v in run.failed.items()})
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced) / statistics.median(plain) - 1.0)
        record.update(plain_walls=plain, traced_walls=traced, summary=summary)
    record["loadavg_end"] = os.getloadavg()
    record["fail_rate"] = run.failed_total / max(run.attempted, 1)
    record["errors"] = run.errors
    units = dict((name, unit) for name, unit, _ in END_TO_END)
    units.update(per_layer_units())
    result = {
        "correct": run.failed_total == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed_total,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    if trace:
        tracer.write(out_dir / ("trace-%s-seed%d.json" % (workload, seed)),
                     {"record": record})
    return result, record

"""One measuring process of the benchmark; started by ``run.py``, not by hand.

Imports effham from the checkout's ``src/``, builds the workload, warms
up and prints ``READY`` just before the first timed call, so the parent
can time set-up from process start. Unless ``--setup-only`` is given it
then runs whole passes over the case list until ``--seconds`` have gone
(half untraced and half traced with ``--trace 1``), checks every output
outside the timed calls, runs the workload's once-per-process gate, and
prints one JSON line with its figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import effham  # noqa: E402  (must come from the checkout's src/)

import tracing  # noqa: E402
from reference import SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_passes(workload, budget_s: float, tracer=None, sizes=None, probe=None):
    """Whole passes while the next one is expected to end within
    ``budget_s`` (at least one).

    Returns (pass times, per-case call times, attempted, failures, span
    totals). A pass time is the sum of its timed calls; the output checks
    and the ``probe`` kernels run between calls are not in it.
    """
    pass_times: list[float] = []
    calls: dict[str, list[float]] = {case.label: [] for case in workload.cases}
    attempted = 0
    failures: list[str] = []
    totals = None
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        total = 0.0
        for case in workload.cases:
            if tracer is not None:
                tracer.case = f"{len(pass_times)}:{case.label}"
            attempted += 1
            t0 = time.perf_counter()
            error = None
            try:
                out = case.run()
            except Exception:  # a failed operation is counted, not fatal
                error = f"{case.label}: {traceback.format_exc(limit=3)}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.case = None
            total += dt
            calls[case.label].append(dt)
            if probe is not None:
                probe.after_call(dt)
            if error is None:
                error = case.check(out)
            if error:
                failures.append(error)
            elif sizes is not None and case.label not in sizes:
                sizes[case.label] = case.size(out)
        if tracer is not None:
            totals = tracing.merge(totals, tracing.summarize(tracer.take()))
        pass_times.append(total)
        now = time.perf_counter()
        if now - start + (now - pass_start) > budget_s:
            return pass_times, calls, attempted, failures, totals


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "effham": effham.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.quick)
    workload.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    sizes: dict[str, dict] = {}
    budget = args.seconds / 2 if args.trace else args.seconds
    probe = SpeedProbe()
    pass_times, calls, attempted, failures, _ = run_passes(workload, budget, sizes=sizes,
                                                           probe=probe)
    result: dict = {"passes": len(pass_times), "calls": sum(len(v) for v in calls.values())}
    speed = probe.factor()
    result["speed"] = {"factor": speed, "kernel_medians_s": probe.medians(),
                       "kernel_rounds": len(probe.samples["rk4"])}
    pass_s = statistics.median(pass_times)

    if args.trace:
        tracer = tracing.Tracer()
        traced_probe = SpeedProbe()
        result["patched_bindings"] = tracer.install()
        try:
            t_times, _, t_attempted, t_failures, totals = run_passes(workload, budget, tracer,
                                                                     probe=traced_probe)
            tracer.case = "gate"
            gate = workload.gate()
            gate_totals = tracing.summarize(tracer.take())
        finally:
            tracer.uninstall()
        attempted += t_attempted
        failures += t_failures
        metrics = tracing.layer_metrics(totals, len(t_times), gate_totals, traced_probe.factor(),
                                        statistics.median(t_times), pass_s / speed)
        missing = tracing.missing_layers(workload.name, metrics)
        if missing:
            failures.append(f"trace: layers with zero counts: {', '.join(missing)}")
        attempted += 1
        result["traced_passes"] = len(t_times)
        result["metrics"] = metrics
    else:
        gate = workload.gate()
        durations = [d for v in calls.values() for d in v]
        raw = {"pass_s": pass_s, "call_p50_s": percentile(durations, 0.5),
               "call_p90_s": percentile(durations, 0.9)}
        result["metrics"] = {name: {"value": value / speed, "unit": "s"}
                             for name, value in raw.items()}
        result["metrics"]["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
        result["raw_s"] = raw
        # per-second rates scale the other way from times
        result["extras"] = {
            name: {"value": m["value"] * speed if m["unit"] == "1/s" else m["value"] / speed,
                   "unit": m["unit"]}
            for name, m in workload.extras(calls, sizes).items()
        }
    attempted += len(gate)
    failures += [f"gate {label}: {error}" for label, error in gate if error]

    result.update(attempted=attempted, failed=len(failures), failures=failures)
    result["record"] = {
        "workload": workload.name, "seed": args.seed, "quick": args.quick,
        "model_digests": workload.models, "case_sizes": sizes,
        "environment": environment(),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

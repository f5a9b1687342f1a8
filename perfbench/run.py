"""Benchmark entry point for effham.

    python3 perfbench/run.py --workload {closed_form,report,oracle} \\
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke

Each run starts fresh worker processes (``worker.py``) with BLAS threads
pinned to 1. ``SETUP_SAMPLES - 1`` of them only set up, and the last one
also measures; ``setup_s`` is the median, over all of them, of the time
from process start to the worker's ``READY`` line. With ``--trace 0`` the
last line of output is a JSON object with the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it has the per-layer metrics of a
traced run. Lines before it give every figure by name, unit and sample
count, the recorded inputs and the environment. ``--smoke`` runs every
workload on a tiny case list in both modes and checks the output shape.

The program is imported from ``src/`` of the checkout this file sits in;
without it the run fails with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("closed_form", "report", "oracle")
SETUP_SAMPLES = 5
QUICK_SETUP_SAMPLES = 2

#: Every run must end within this many seconds; workers are killed after it.
DEADLINE_S = 170.0

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
                  "NUMEXPR_NUM_THREADS": "1"}


class RunError(Exception):
    """A worker failed to start, crashed or ran out of time."""


def source_digest() -> str:
    """SHA-256 over the program's source files, to tell commits apart
    where the checkout is not a git repository."""
    hasher = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        hasher.update(str(path.relative_to(ROOT)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def start_worker(argv: list[str], deadline: float) -> tuple[float, list[str]]:
    """Run one worker; return (seconds from spawn to READY, later stdout lines)."""
    env = {**os.environ, **PINNED_THREADS, "PYTHONHASHSEED": "0"}
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("no time left to start a worker")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif ready is not None:
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None:
        raise RunError(f"worker {' '.join(argv)} exited with code {code}")
    return ready, lines


def measure(workload: str, seed: int, seconds: float, trace: int, quick: bool = False) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)] + (["--quick"] if quick else [])
    samples = []
    for _ in range((QUICK_SETUP_SAMPLES if quick else SETUP_SAMPLES) - 1):
        ready, _ = start_worker(base + ["--setup-only"], deadline)
        samples.append(ready)
    ready, lines = start_worker(base + ["--seconds", str(seconds), "--trace", str(trace)],
                                deadline)
    samples.append(ready)
    if not lines:
        raise RunError("worker printed no result")
    result = json.loads(lines[-1])
    result["setup_samples"] = samples
    if not trace:
        result["raw_s"]["setup_s"] = statistics.median(samples)
        result["metrics"]["setup_s"] = {
            "value": result["raw_s"]["setup_s"] / result["speed"]["factor"], "unit": "s"}
    result["record"]["environment"]["git_commit"] = git_commit()
    result["record"]["environment"]["source_sha256"] = source_digest()
    return result


def print_result(result: dict, trace: int) -> dict:
    """Print the figures by name, unit and sample count; return the final object."""
    record = result["record"]
    passes, calls = result["passes"], result["calls"]
    print(f"workload {record['workload']} seed {record['seed']}: {passes} untraced passes, "
          f"{calls} timed calls" + (f", {result['traced_passes']} traced passes" if trace else ""))
    counts = {"setup_s": f"median of {len(result['setup_samples'])} fresh processes",
              "pass_s": f"median of {passes} passes",
              "call_p50_s": f"{calls} calls", "call_p90_s": f"{calls} calls",
              "peak_rss_mb": "1 process"}
    shown = dict(result["metrics"])
    shown.update(result.get("extras", {}))
    for name, m in shown.items():
        note = counts.get(name, f"per traced pass, {result.get('traced_passes')} passes"
                          if trace else f"median of {passes} passes")
        if name in result.get("raw_s", {}):
            note += f"; raw {result['raw_s'][name]:.6g} s"
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}  ({note})")
    speed = result["speed"]
    print(f"  times are at nominal machine speed: raw / speed factor {speed['factor']:.4f} "
          f"({speed['kernel_rounds']} reference-kernel rounds"
          + (", untraced half; traced figures use the traced half's factor)" if trace else ")"))
    attempted, failed = result["attempted"], result["failed"]
    print(f"  fail_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    record["speed"] = result.get("speed")
    print("record " + json.dumps(record, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": result["metrics"]}


def smoke() -> int:
    """Tiny case lists, both modes, every workload; checks the output shape."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            final = print_result(measure(workload, 1, 0.5, trace, quick=True), trace)
            key = "per_layer" if trace else "end_to_end"
            expected = {m["name"] for m in spec[key]}
            if set(final["metrics"]) != expected:
                problems.append(f"{workload} trace {trace}: metrics differ from BENCHMARK.json "
                                f"by {sorted(set(final['metrics']) ^ expected)}")
            if not final["correct"]:
                problems.append(f"{workload} trace {trace}: {final['failed']} failures")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "effham" / "__init__.py").is_file():
        print(f"perfbench: no src/effham under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        final = print_result(measure(args.workload, args.seed, args.seconds, args.trace), args.trace)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / ".perfbench_work", ignore_errors=True)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

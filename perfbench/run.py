"""algwatch benchmark: three workloads, end-to-end metrics and a traced run.

Run from the root of an algwatch checkout:

    python3 perfbench/run.py --workload padv-sweep --seed 1 --seconds 30 --trace 0

``--workload`` names one workload of ``workloads.WORKLOADS``, or ``all`` to
run each in turn in this one process. Every workload call is a closed loop
with one caller and one worker; its inputs come from ``--seed``.

With ``--trace 0`` a workload reports, with tracing off:

- ``wall_s``: median time of one warm call; call k of the run uses seed
  1000 * SEED + k, and calls repeat until ``--seconds`` have passed;
- ``setup_s``: median, over three fresh processes, of the time from start
  to exit of a process that imports algwatch and makes the workload's first
  call (at the reference seed);
- ``peak_rss_mb``: those processes' median peak resident set size, in MiB.

Every time is taken between two runs of a fixed calibration kernel and
reported at reference machine speed (see ``speed``); the times as measured
are printed beside them.

With ``--trace 1`` every workload is traced, whatever ``--workload`` says,
so that each per-layer metric is measured on the workloads whose path it
lies on; metrics are named ``<workload>.<metric>``. Each traced call is
paired with an untraced call on the same inputs: their outputs must be
equal, and the difference of their median times is reported as
``<workload>.trace.overhead.ms``. Exact counts must repeat across traced
calls. The spans of the last traced call of each workload are written to
``.perfbench/spans-<workload>-seed<SEED>.jsonl``.

Every call's output is checked (see ``workloads``); a call that raises or
fails a check counts as failed. Lines before the last describe the run and
its environment; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from speed import at_reference, calibration_s

ROOT = Path.cwd()
WORK_ROOT = ROOT / ".perfbench"
PROBE = Path(__file__).with_name("probe.py")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
MIN_TIMED_CALLS = 3
MIN_TRACED_CALLS = 2
FIELD_BUILDS = 7


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _call_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


def _distribution(times: list[float]) -> str:
    """Median, quartiles and, given enough calls, the highest percentile
    with at least ten calls above it."""
    q1, q2, q3 = statistics.quantiles(times, n=4)
    text = f"median {q2:.6f} s, quartiles {q1:.6f} / {q3:.6f} s"
    if len(times) > 10:
        k = len(times) - 10
        text += f", p{100 * k // len(times)} {sorted(times)[k - 1]:.6f} s"
    return text + f" over {len(times)}"


class Tally:
    """Attempted and failed workload calls, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAIL {message}", file=sys.stderr)

    def record(self, workload, seed: int, output) -> None:
        self.attempted += 1
        try:
            problems = workload.check(output, seed)
        except Exception:  # a malformed output is a failed call, not a crash
            problems = [traceback.format_exc()]
        if problems:
            self.fail(f"{workload.name} seed {seed}: {'; '.join(problems)}")

    def run(self, workload, seed: int, workdir: str):
        """One timed in-process call; returns (seconds, output or None)."""
        gc.collect()
        start = time.perf_counter()
        try:
            output = workload.call(seed, workdir)
        except Exception:  # keep measuring; the failure is counted and shown
            wall = time.perf_counter() - start
            self.attempted += 1
            self.fail(f"{workload.name} seed {seed}: {traceback.format_exc()}")
            return wall, None
        wall = time.perf_counter() - start
        self.record(workload, seed, output)
        return wall, output


def _probe(workload, workdir: str, tally: Tally, reference_seed: int):
    """Set-up time and peak RSS of one fresh process making one call."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(PROBE), workload.name, str(reference_seed), workdir],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        tally.attempted += 1
        tally.fail(f"{workload.name} set-up probe ran over {PROBE_TIMEOUT_S} s")
        return time.perf_counter() - start, None
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        tally.attempted += 1
        tally.fail(f"{workload.name} set-up probe exited {proc.returncode}: {proc.stderr[-2000:]}")
        return elapsed, None
    result = json.loads(proc.stdout.splitlines()[-1])
    tally.record(workload, reference_seed, result["output"])
    return elapsed, result["peak_rss_mb"]


def measure(workload, seed: int, seconds: float, workdir: str, tally: Tally) -> dict:
    """End-to-end metrics of one workload, tracing off."""
    from workloads import REFERENCE_SEED

    setups, raw_setups, rss = [], [], []
    for _ in range(SETUP_PROBES):
        before = calibration_s()
        elapsed, peak = _probe(workload, workdir, tally, REFERENCE_SEED)
        setups.append(at_reference(elapsed, before, calibration_s()))
        raw_setups.append(elapsed)
        if peak is not None:
            rss.append(peak)
    tally.run(workload, REFERENCE_SEED, workdir)  # warm-up, checked against the reference

    walls, raw_walls = [], []
    before = calibration_s()
    start = time.perf_counter()
    while len(walls) < MIN_TIMED_CALLS or time.perf_counter() - start < seconds:
        wall, _ = tally.run(workload, _call_seed(seed, len(walls) + 1), workdir)
        after = calibration_s()
        walls.append(at_reference(wall, before, after))
        raw_walls.append(wall)
        before = after

    name = workload.name
    print(f"{name}: wall_s {_distribution(walls)}; as measured {_distribution(raw_walls)}")
    print(f"{name}: setup_s {_distribution(setups)}; as measured {_distribution(raw_setups)}")
    print(f"{name}: peak_rss_mb median {_median(rss):.3f} MiB over {len(rss)} fresh processes")
    print(f"{name}: fail_ratio {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted}")
    return {
        "wall_s": (_median(walls), "s"),
        "setup_s": (_median(setups), "s"),
        "peak_rss_mb": (_median(rss), "MiB"),
    }


def _unit(metric: str) -> str:
    if metric.endswith(".ms"):
        return "ms"
    if metric.endswith(".us_per_call"):
        return "us"
    return "ratio" if metric.endswith("_ratio") else "count"


def trace(workload, seed: int, seconds: float, workdir: str, tally: Tally) -> dict:
    """Per-layer metrics of one workload from paired traced and untraced calls."""
    from tracing import Tracer, layer_metrics
    from workloads import REFERENCE_SEED

    tally.run(workload, REFERENCE_SEED, workdir)  # warm-up, checked against the reference
    call_seed = _call_seed(seed, 1)
    plain_walls, traced_walls, timings = [], [], []
    expected = counts = tracer = None
    before = calibration_s()
    start = time.perf_counter()
    while len(traced_walls) < MIN_TRACED_CALLS or time.perf_counter() - start < seconds:
        wall, output = tally.run(workload, call_seed, workdir)
        between = calibration_s()
        plain_walls.append(at_reference(wall, before, between))
        if expected is None:
            expected = output
        elif output != expected:
            tally.fail(f"{workload.name}: repeated call on seed {call_seed} gave another output")
        tracer = Tracer()
        with tracer.installed():
            wall, output = tally.run(workload, call_seed, workdir)
        before = calibration_s()
        traced_walls.append(at_reference(wall, between, before))
        if output != expected:
            tally.fail(f"{workload.name}: traced call on seed {call_seed} gave another output")
        call_timings, call_counts = layer_metrics(tracer.spans)
        timings.append({k: at_reference(v, between, before) for k, v in call_timings.items()})
        if counts is None:
            counts = call_counts
        elif call_counts != counts:
            tally.fail(f"{workload.name}: exact counts differ between traced calls: "
                       f"{counts} vs {call_counts}")
    WORK_ROOT.mkdir(exist_ok=True)
    tracer.write_spans(WORK_ROOT / f"spans-{workload.name}-seed{seed}.jsonl")

    values = dict(counts)
    values.update({name: _median([t[name] for t in timings]) for name in timings[0]})
    values["trace.overhead.ms"] = (_median(traced_walls) - _median(plain_walls)) * 1e3
    names = workload.layers + ("trace.overhead.ms",)
    print(f"{workload.name}: {len(traced_walls)} traced and {len(plain_walls)} untraced calls "
          f"on seed {call_seed}, untraced median {_median(plain_walls):.6f} s")
    return {name: (values[name], _unit(name)) for name in names}


def _field_build_ms() -> float:
    """Median time to build the GF(2^10) tables, as a default_field cache miss does."""
    from algwatch.gfield import default_field

    builds = []
    before = calibration_s()
    for _ in range(FIELD_BUILDS):
        start = time.perf_counter()
        default_field.__wrapped__(10)
        builds.append((time.perf_counter() - start) * 1e3)
    return at_reference(_median(builds), before, calibration_s())


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    if not (ROOT / "src" / "algwatch" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/algwatch; run from the root of an algwatch checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import algwatch
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    print("env " + json.dumps({
        "python": platform.python_version(), "numpy": numpy.__version__,
        "algwatch": algwatch.__version__, "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
        "commit": _git_commit(), "seed": args.seed, "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace,
    }))
    if args.trace:
        chosen = list(WORKLOADS.values())
        seconds = args.seconds / len(chosen)
    else:
        chosen = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
        seconds = args.seconds
    namespaced = len(chosen) > 1

    metrics, attempted, failed = {}, 0, 0
    if args.trace:
        metrics["gfield.default_field.ms"] = (_field_build_ms(), "ms")
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as workdir:
        for workload in chosen:
            tally = Tally()
            run = trace if args.trace else measure
            found = run(workload, args.seed, seconds, workdir, tally)
            attempted += tally.attempted
            failed += tally.failed
            prefix = f"{workload.name}." if namespaced else ""
            metrics.update({prefix + name: value for name, value in found.items()})
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

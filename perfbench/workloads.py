"""The benchmark's workloads: one call of each, and the checks on its output.

Each workload is one closed-loop call into algwatch's public API, run in
the calling process with one worker. Sizes are cut down from the program's
defaults so that one call takes one to two seconds and a run holds several
calls; the mix of work inside a call is that of the full-size run:

- ``padv-sweep``: ``algwatch two-hop --sweep p_adv --workers 1`` on the
  default grid (m=3, n=10, delta=2, p_s=p_relay=0.1, affine hash, p_adv in
  0..0.5), with 25 trials per arm and point instead of 1000.
- ``matched-count``: ``sim.mean_matched_count`` at the criterion-08 point
  (n=10, three peers, delta=2, p=0.1, poly hash, median-ball pruning) with
  the criterion's 1000 trials.
- ``one-honest-path``: ``multihop.mincut_scenario("one-honest-path")`` with
  its defaults except 4 instances instead of 40 and 400 calibration trials
  instead of 4000, which keeps calibration about 85% of the call.

Outputs are JSON-able so a fresh-process probe can hand them back intact.
At the reference seed an output must equal ``reference.json`` exactly
(written by these calls at seed 0 when the benchmark was added); at any
seed it must satisfy the seed-independent invariants in the ``_check_*``
functions.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from algwatch import cli, multihop, sim

REFERENCE_SEED = 0
REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())

PADV_ITERATIONS = 25
PADV_VALUES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
MATCHED = {"n": 10, "peer_count": 3, "delta": 2, "p": 0.1, "trials": 1000}
OHP_INSTANCES = 4
OHP_CALIBRATION = 400
OHP_WINDOW = 25


def _padv_sweep(seed: int, workdir: str) -> str:
    out = os.path.join(workdir, f"padv-{seed}.csv")
    argv = [
        "two-hop", "--sweep", "p_adv", "--workers", "1",
        "--iterations", str(PADV_ITERATIONS), "--seed", str(seed), "--out", out,
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"algwatch two-hop exited with {code}")
    with open(out, newline="") as fh:
        return fh.read()


def _check_padv(text: str, seed: int) -> list[str]:
    problems = []
    if seed == REFERENCE_SEED and text != REFERENCE["padv-sweep"]:
        problems.append("CSV differs from the reference byte for byte")
    rows = list(csv.DictReader(io.StringIO(text, newline="")))
    if [float(r["value"]) for r in rows] != list(PADV_VALUES):
        return problems + [f"unexpected sweep values {[r['value'] for r in rows]}"]
    for r in rows:
        if r["seed"] != str(seed) or r["iterations"] != str(PADV_ITERATIONS):
            problems.append(f"row {r['value']} echoes the wrong seed or iteration count")
        for arm in ("relay", "adv"):
            mean = float(r[f"mean_p_{arm}"])
            var = float(r[f"var_{arm}"])
            # Every p* in [0, 1] bounds the mean to [0, 1] and the population
            # variance to mean * (1 - mean).
            if not 0.0 <= mean <= 1.0:
                problems.append(f"mean p* of arm {arm} at {r['value']} is outside [0, 1]")
            if not 0.0 <= var <= mean * (1.0 - mean) + 1e-12:
                problems.append(f"variance of arm {arm} at {r['value']} is impossible")
    null = rows[0]
    if (null["mean_p_adv"], null["var_adv"]) != (null["mean_p_relay"], null["var_relay"]):
        problems.append("arms differ at p_adv=0")
    if len({(r["mean_p_relay"], r["var_relay"]) for r in rows}) != 1:
        problems.append("honest arm changes with p_adv")
    return problems


def _matched_count(seed: int, workdir: str) -> float:
    return sim.mean_matched_count(seed=seed, **MATCHED)


def _check_matched(mean: float, seed: int) -> list[str]:
    problems = []
    if seed == REFERENCE_SEED and mean != REFERENCE["matched-count"]:
        problems.append(f"mean {mean!r} differs from the reference")
    total = mean * MATCHED["trials"]
    if not (math.isfinite(total) and total >= 0 and abs(total - round(total)) <= 1e-6):
        problems.append(f"mean {mean!r} is not a mean of non-negative integer counts")
    return problems


def _one_honest_path(seed: int, workdir: str) -> dict:
    report = multihop.mincut_scenario(
        "one-honest-path", seed=seed, instances=OHP_INSTANCES,
        calibration_iterations=OHP_CALIBRATION,
    )
    return dataclasses.asdict(report)


def _check_ohp(report: dict, seed: int) -> list[str]:
    problems = []
    details = report["details"]
    freq = report["detection_frequency"]
    if seed == REFERENCE_SEED:
        ref = REFERENCE["one-honest-path"]
        if (details["threshold"], freq) != (ref["threshold"], ref["detection_frequency"]):
            problems.append("threshold or detection frequency differs from the reference")
    if report["kind"] != "one-honest-path" or not report["honest_watcher_exists"]:
        problems.append("report describes another scenario")
    if (details["instances"], details["window"]) != (OHP_INSTANCES, OHP_WINDOW):
        problems.append("report echoes the wrong instance count or window")
    if not 0.0 <= details["threshold"] <= 1.0:
        problems.append(f"threshold {details['threshold']!r} is outside [0, 1]")
    caught = freq * OHP_INSTANCES
    if not (0 <= caught <= OHP_INSTANCES and caught == round(caught)):
        problems.append(f"detection frequency {freq!r} is not a share of {OHP_INSTANCES}")
    if report["detected"] != (freq > 0.9):
        problems.append("detected flag disagrees with the detection frequency")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    call: Callable[[int, str], object]
    check: Callable[[object, int], list[str]]
    # Per-layer metrics (see tracing.layer_metrics) on this workload's path.
    layers: tuple[str, ...]


_SHARED_LAYERS = (
    "inference.build_and_run_trellis.ms",
    "inference.forward_kernel.ms",
    "inference.transition_row.ms",
    "inference.row_size.mean",
    "inference.row_size.max",
    "inference.support.mean",
    "inference.matched.mean",
    "inference.fallbacks",
    "sim.simulate_observation.ms",
    "sim.unique_arm_ratio",
    "hashing.collision_class.us_per_call",
    "hashing.collision_class.calls",
    "channel.hamming_vec.us_per_call",
    "channel.log_likelihood_vec.us_per_call",
    "gfield.mul_vec.us_per_call",
    "packet.make_packet.us_per_call",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("padv-sweep", _padv_sweep, _check_padv, _SHARED_LAYERS + (
            "inference.consistency_probability.ms",
            "cli.overhead.ms",
        )),
        Workload("matched-count", _matched_count, _check_matched, _SHARED_LAYERS + (
            "inference.matched_codewords.ms",
            "gfield.mul_elementwise.us_per_call",
        )),
        Workload("one-honest-path", _one_honest_path, _check_ohp, _SHARED_LAYERS + (
            "inference.consistency_probability.ms",
            "sim.calibrate_threshold.ms",
            "multihop.run_round.ms",
            "multihop.can_police.ms",
            "multihop.build_observation.ms",
            "multihop.police.calls",
            "multihop.rounds_to_verdict.mean",
        )),
    )
}

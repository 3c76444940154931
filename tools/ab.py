"""Alternating A/B timing of a parent commit against the working tree.

Run from the root of an algwatch checkout:

    python3 tools/ab.py process --parent REV --pairs 10 --seconds 30
    python3 tools/ab.py footprint --parent REV --pairs 11
    python3 tools/ab.py inprocess --parent REV --pairs 20 --call scenario

Every mode exports both trees into a temporary directory, REV with ``git
archive`` and the working tree as a copy of its tracked and untracked, not
ignored, files, and measures the two copies in the same alternating pairs:
pair k measures the parent first when k is even and the working tree first
when k is odd. So both sides run from a fresh directory of the same kind;
the checkout itself is read only for git and ``BENCHMARK.json``. Each
reading is judged by one rule, ``_verdict``: each side's runs, median and
quartiles, the pairs in which the working tree reads better, the relative
change of the medians, the median per-pair ratio of the working tree's
reading to the parent's, the parent's interquartile range over its median,
the exact two-sided sign-test p-value of the pairs (ties dropped), the
``BENCHMARK.json`` bound and a verdict: ``unresolved`` when that spread
exceeds the bound and not every run of the working tree reads better than
every run of the parent, else ``beyond`` when the change is worse by more
than the bound, else ``within``.

Every mode prints one JSON object with the same head, ``mode``, ``parent``,
``pairs``, ``seed`` and ``metrics`` (reading name -> verdict), plus its own
extras:

- ``process`` runs ``perfbench/run.py --workload W --seed 1 --seconds S
  --trace 0`` for every workload of ``BENCHMARK.json`` from each root, and
  reads its end-to-end metrics as ``W.metric``. Extras: ``seconds`` and
  ``failed_calls``, each side's failed calls.
- ``footprint`` runs each root's set-up probe, ``perfbench/probe.py W 0
  DIR``, for every workload, from this process, which imports no algwatch
  and stays small. A process's peak resident set starts at its spawner's,
  so ``run.py``'s ``peak_rss_mb`` never reads below ``run.py``'s own; here
  ``W.peak_rss_mb`` is each probe's own peak, and ``W.probe_s`` its wall
  time (set-up time as measured, no speed scaling, against ``setup_s``'s
  bound). Extra: ``outputs_differ``, the workloads whose probe output
  differs between the roots.
- ``inprocess`` imports both trees into this one process under two package
  names, checks that both sides return equal results, and reads the
  seconds one call takes as ``CALL.s``, against ``wall_s``'s bound. Extra:
  ``call``, one of

  - ``calibrate``: ``calibrate_threshold`` at the ``one-honest-path``
    workload's calibration point (m = 3, n = 10, delta = 2, p = 0.1, 400
    trials, window 25);
  - ``pair``: ``consistency_probability(build_and_run_trellis(obs), obs)``
    over every observation that workload's call polices at seed 1;
  - ``scenario``: that workload's call, ``mincut_scenario("one-honest-path",
    instances=4, calibration_iterations=400)``.

  Two calls at seeds 1 and 2 check the results and warm both sides; pair k
  then calls at seed k + 3.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
SEED = 1


def _export(rev: str | None, into: Path) -> Path:
    """The tree of rev, unpacked under into; with rev None, the working tree's tracked and
    untracked, not ignored, files, copied there."""
    if rev is not None:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True,
                                 check=True)
        subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
        return into
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, check=True, text=True).stdout
    for name in filter(None, listed.split("\0")):
        if (ROOT / name).is_file():  # a tracked file deleted in the working tree is skipped
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, into / name)
    return into


def _trees(parent: str, tmp: str) -> dict:
    """Each side's measured root, exported under tmp: parent's tree, then the working tree's."""
    roots = {}
    for side, rev in (("parent", parent), ("change", None)):
        (Path(tmp) / side).mkdir()
        roots[side] = _export(rev, Path(tmp) / side)
    return roots


def _bench() -> tuple[list[str], dict]:
    """BENCHMARK.json's workload names, and each end-to-end metric's (better, bound)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([w["name"] for w in bench["workloads"]],
            {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]})


def _quartiles(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _sign_test(better: int, worse: int) -> float:
    """Exact two-sided sign-test p-value of better against worse pairs (ties already dropped)."""
    total = better + worse
    tail = sum(math.comb(total, j) for j in range(min(better, worse) + 1))
    return min(1.0, 2 * tail / 2**total)


def _verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1 if better == "lower" else -1
    steps = [sign * (b - a) for a, b in zip(parent, change)]  # below 0: the change reads better
    p, c = _quartiles(parent), _quartiles(change)
    spread = (p["q3"] - p["q1"]) / p["median"]
    worse = sign * (c["median"] - p["median"]) / p["median"]
    every_run_better = max(sign * v for v in change) < min(sign * v for v in parent)
    if spread > bound and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "beyond" if worse > bound else "within"
    return {
        "parent": p, "change": c,
        "change_better_in_pairs": f"{sum(d < 0 for d in steps)}/{len(parent)}",
        "sign_test_p": _sign_test(sum(d < 0 for d in steps), sum(d > 0 for d in steps)),
        "relative_change": (c["median"] - p["median"]) / p["median"],
        "median_pair_ratio": statistics.median(b / a for a, b in zip(parent, change)),
        "parent_iqr_relative": spread, "bound": bound, "verdict": verdict,
        "runs": {"parent": parent, "change": change},
    }


def _alternate(pairs: int, measure, rules: dict) -> dict:
    """Every reading of measure(side, k) over pairs alternating pairs, judged by _verdict.

    measure returns {reading name: value}; rules maps the name's last dotted
    part to its (better, bound).
    """
    runs = {}  # name -> side -> values
    for k in range(pairs):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            for name, value in measure(side, k).items():
                runs.setdefault(name, {"parent": [], "change": []})[side].append(value)
    return {name: _verdict(got["parent"], got["change"], *rules[name.rpartition(".")[2]])
            for name, got in runs.items()}


def _run(root: Path, workload: str, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def process(parent: str, pairs: int, seconds: float) -> dict:
    workloads, rules = _bench()
    failed = {"parent": 0, "change": 0}
    with tempfile.TemporaryDirectory() as tmp:
        roots = _trees(parent, tmp)

        def measure(side, k):
            readings = {}
            for workload in workloads:
                got = _run(roots[side], workload, seconds)
                failed[side] += got["failed"]
                readings.update({f"{workload}.{metric}": got["metrics"][metric]["value"]
                                 for metric in rules})
            return readings

        metrics = _alternate(pairs, measure, rules)
    return {"mode": "process", "parent": parent, "pairs": pairs, "seed": SEED,
            "seconds": seconds, "failed_calls": failed, "metrics": metrics}


def _probe(root: Path, workload: str, workdir: str) -> tuple[float, float, object]:
    """One fresh set-up probe of root: (its peak_rss_mb, its wall time in s, its output)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/probe.py", workload, "0", workdir],
        cwd=root, capture_output=True, text=True, check=True,
    )
    elapsed = time.perf_counter() - start
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    return got["peak_rss_mb"], elapsed, got["output"]


def footprint(parent: str, pairs: int) -> dict:
    workloads, rules = _bench()
    outputs = {}  # (workload, side) -> outputs
    with tempfile.TemporaryDirectory() as tmp:
        roots = _trees(parent, tmp)
        (Path(tmp) / "work").mkdir()

        def measure(side, k):
            readings = {}
            for workload in workloads:
                peak, wall, output = _probe(roots[side], workload, str(Path(tmp) / "work"))
                readings.update({f"{workload}.peak_rss_mb": peak, f"{workload}.probe_s": wall})
                outputs.setdefault((workload, side), []).append(output)
            return readings

        metrics = _alternate(pairs, measure,
                             {"peak_rss_mb": rules["peak_rss_mb"], "probe_s": rules["setup_s"]})
    differ = [w for w in workloads if outputs[w, "parent"] != outputs[w, "change"]]
    return {"mode": "footprint", "parent": parent, "pairs": pairs, "seed": 0,
            "outputs_differ": differ, "metrics": metrics}


def _load(name: str, root: Path):
    """root's algwatch package, imported as name."""
    package = root / "src" / "algwatch"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("channel", "hashing", "inference", "multihop", "sim"):
        importlib.import_module(f"{name}.{sub}")
    return module


def _policed(aw) -> list:
    """Every observation the one-honest-path workload's call polices at SEED."""
    got, build = [], aw.multihop.build_observation

    def recorded(*args):
        got.append(build(*args))
        return got[-1]

    aw.multihop.build_observation = recorded
    try:
        aw.multihop.mincut_scenario("one-honest-path", seed=SEED, instances=4,
                                    calibration_iterations=400)
    finally:
        aw.multihop.build_observation = build
    return got


def _as(aw, obs):
    """obs rebuilt from aw's own classes."""
    inf = aw.inference

    def heard(o):
        return inf.Overheard(o.symbol, o.hash_value, aw.channel.Bsc(o.channel.p))

    spec = aw.hashing.HashSpec(obs.hash_spec.family, obs.hash_spec.n, obs.hash_spec.delta,
                               obs.hash_spec.coefficients)
    return inf.WatchdogObservation(obs.own_symbol, obs.coeffs, tuple(map(heard, obs.overheard)),
                                   heard(obs.relay_overheard), spec, obs.prune_eps)


def _call(aw, what: str, policed: list):
    """The timed call of aw for what: a function of the seed."""
    if what == "calibrate":
        def call(seed):
            cfg = aw.sim.TwoHopConfig(m=3, n=10, delta=2, p_s=0.1, p_relay=0.1, p_adv=0.0,
                                      iterations=400, seed=seed)
            return aw.sim.calibrate_threshold(cfg, 0.05, window=25)
    elif what == "pair":
        observations = [_as(aw, obs) for obs in policed]
        inf = aw.inference

        def call(seed):
            return [inf.consistency_probability(inf.build_and_run_trellis(o), o)
                    for o in observations]
    else:
        def call(seed):
            report = aw.multihop.mincut_scenario("one-honest-path", seed=seed, instances=4,
                                                 calibration_iterations=400)
            return report.details, report.detection_frequency
    return call


def inprocess(parent: str, pairs: int, what: str) -> dict:
    _, rules = _bench()
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: _load(f"algwatch_{side}", root)
                 for side, root in _trees(parent, tmp).items()}
        policed = _policed(trees["parent"]) if what == "pair" else []
        calls = {side: _call(aw, what, policed) for side, aw in trees.items()}
        for seed in (SEED, SEED + 1):  # equal results, and warm caches on both sides
            assert calls["parent"](seed) == calls["change"](seed), "the trees disagree"

        def measure(side, k):
            start = time.perf_counter()
            calls[side](SEED + 2 + k)
            return {f"{what}.s": time.perf_counter() - start}

        metrics = _alternate(pairs, measure, {"s": rules["wall_s"]})
    return {"mode": "inprocess", "parent": parent, "pairs": pairs, "seed": SEED,
            "call": what, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    modes = {}
    for mode, pairs in (("process", 10), ("footprint", 11), ("inprocess", 20)):
        modes[mode] = sub.add_parser(mode)
        modes[mode].add_argument("--parent", required=True)
        modes[mode].add_argument("--pairs", type=int, default=pairs)
    modes["process"].add_argument("--seconds", type=float, default=30)
    modes["inprocess"].add_argument("--call", required=True,
                                    choices=("calibrate", "pair", "scenario"))
    args = parser.parse_args(argv)
    if args.pairs < 2:  # quartiles need two runs a side
        parser.error(f"--pairs must be at least 2, got {args.pairs}")
    if args.mode == "process":
        result = process(args.parent, args.pairs, args.seconds)
    elif args.mode == "footprint":
        result = footprint(args.parent, args.pairs)
    else:
        result = inprocess(args.parent, args.pairs, args.call)
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

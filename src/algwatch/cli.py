"""Experiment runner CLI.

Subcommands:
  two-hop   sweep one config axis (p_adv, delta, p_s, m) of the two-hop
            Monte Carlo experiment and emit per-point statistics
  multihop  run a built-in min-cut scenario or a custom topology file
  analysis  tabulate the closed-form evaluators
  oracle    check the trellis against brute-force enumeration at n <= 6

Every run emits CSV rows plus a JSON summary echoing the full config and
seed, so any plot-reproducing run is a single command. A flat INI config
file (one section per subcommand) can predefine values; explicit CLI flags
override it. Exit codes: 0 success, 1 usage error, 2 internal fault.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import json
import os
import sys
import traceback

from .analysis import (
    TwoHopGeometry,
    matched_count_expected,
    misdetection_probability,
    undetected_prob_peer,
    undetected_prob_watchdog,
)
from .multihop import (
    SCENARIOS,
    TrustLedger,
    load_topology,
    mincut_scenario,
    run_protocol,
    write_trace,
)
from .gfield import default_field
from .hashing import sample_hash
from .inference import build_and_run_trellis, consistency_probability
from .sim import (
    SWEEP_AXES,
    TwoHopConfig,
    brute_force_consistency,
    run_sweep,
    simulate_observation,
)

USAGE_ERROR, INTERNAL_ERROR = 1, 2

TWO_HOP_COLUMNS = [
    "sweep", "value", "m", "n", "delta", "p_s", "p_relay", "p_adv",
    "iterations", "seed", "pruning_eps", "hash_family",
    "mean_p_relay", "var_relay", "mean_p_adv", "var_adv",
]

DEFAULT_SWEEP_VALUES = {
    "p_adv": "0,0.1,0.2,0.3,0.4,0.5",
    "delta": "0,1,2,4",
    "p_s": "0.05,0.1,0.2,0.3,0.4",
    "m": "2,3,4,5",
}


class CliError(Exception):
    pass


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return "" if x is None else str(x)


def _write_csv(path, columns, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_summary(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _summary_path(out_path: str) -> str:
    root, _ = os.path.splitext(out_path)
    return root + ".json"


def _parse_values(text: str, cast):
    try:
        return [cast(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise CliError(f"bad sweep values {text!r}: {exc}") from None


def _load_config_section(path: str | None, section: str) -> dict:
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise CliError(f"config file not found: {path}")
    if not parser.has_section(section):
        return {}
    return dict(parser.items(section))


def _merged(args, config: dict, key: str, default, cast):
    """Effective option value: CLI flag beats config file beats default."""
    cli_value = getattr(args, key.replace("-", "_"), None)
    if cli_value is not None:
        return cli_value
    if key in config:
        try:
            return cast(config[key])
        except ValueError as exc:
            raise CliError(f"config field {key!r}: {exc}") from None
    return default


def _cmd_two_hop(args) -> int:
    section = _load_config_section(args.config, "two-hop")

    def opt(key, default, cast):
        return _merged(args, section, key, default, cast)

    axis = opt("sweep", "p_adv", str)
    if axis not in SWEEP_AXES:
        raise CliError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    raw_values = opt("values", DEFAULT_SWEEP_VALUES[axis], str)
    cast = int if axis in ("delta", "m") else float
    values = _parse_values(raw_values, cast)
    eps = opt("pruning_eps", None, float)
    cfg = TwoHopConfig(
        m=opt("m", 3, int),
        n=opt("n", 10, int),
        delta=opt("delta", 2, int),
        p_s=opt("p_s", 0.1, float),
        p_relay=opt("p_relay", 0.1, float),
        p_adv=opt("p_adv", 0.1, float),
        iterations=opt("iterations", 1000, int),
        seed=opt("seed", 0, int),
        pruning_eps=eps,
        hash_family=opt("hash_family", "affine", str),
    )
    workers = opt("workers", os.cpu_count() or 1, int)
    results = run_sweep(cfg, axis, values, workers=workers)
    rows = []
    for value, stats in results:
        point = dataclasses.replace(cfg, **{axis: value})
        rows.append([
            axis, value, point.m, point.n, point.delta, point.p_s, point.p_relay,
            point.p_adv, point.iterations, point.seed, point.pruning_eps,
            point.hash_family, stats.mean_p_relay, stats.var_relay,
            stats.mean_p_adv, stats.var_adv,
        ])
    _write_csv(args.out, TWO_HOP_COLUMNS, rows)
    _write_summary(_summary_path(args.out), {
        "command": "two-hop",
        "config": dataclasses.asdict(cfg),
        "sweep": axis,
        "values": values,
        "workers": workers,
        "rows": [dict(zip(TWO_HOP_COLUMNS, row)) for row in rows],
    })
    print(f"two-hop sweep over {axis}: {len(rows)} rows -> {args.out}")
    return 0


def _cmd_analysis(args) -> int:
    section = _load_config_section(args.config, "analysis")

    def opt(key, default, cast):
        return _merged(args, section, key, default, cast)

    table = opt("table", "misdetection", str)
    n = opt("n", 10, int)
    out = args.out
    if table == "misdetection":
        h = opt("h", 2, int)
        columns = ["n", "h", "radius", "undetected_watchdog", "undetected_peer", "misdetection"]
        rows = []
        for r in range(n + 1):
            g = TwoHopGeometry(n, h, r, r, r, r)
            rows.append([
                n, h, r,
                undetected_prob_watchdog(g), undetected_prob_peer(g),
                misdetection_probability(g),
            ])
        _write_csv(out, columns, rows)
    elif table == "matched-count":
        m = opt("m", 3, int)
        p = opt("p", 0.1, float)
        deltas = _parse_values(opt("deltas", "0,1,2,4", str), int)
        columns = ["n", "m", "delta", "p", "expected_matched"]
        rows = [
            [n, m, d, p, matched_count_expected(n, m, d, [p] * (m + 1))]
            for d in deltas
        ]
        _write_csv(out, columns, rows)
    else:
        raise CliError(
            f"unknown table {table!r}; choose misdetection or matched-count"
        )
    _write_summary(_summary_path(out), {
        "command": "analysis", "table": table, "n": n,
        "rows_file": out,
    })
    print(f"analysis table {table} -> {out}")
    return 0


def _cmd_oracle(args) -> int:
    section = _load_config_section(args.config, "oracle")

    def opt(key, default, cast):
        return _merged(args, section, key, default, cast)

    cfg = TwoHopConfig(
        m=opt("m", 3, int),
        n=opt("n", 4, int),
        delta=opt("delta", 1, int),
        p_s=opt("p", 0.1, float),
        p_relay=opt("p", 0.1, float),
        p_adv=0.3,
        iterations=1,
        seed=opt("seed", 0, int),
    )
    if cfg.n > 6:
        raise CliError("oracle checks require n <= 6")
    trials = opt("trials", 100, int)
    max_err = 0.0
    for trial in range(trials):
        for adversarial in (False, True):
            obs = simulate_observation(cfg, adversarial, trial)
            trellis_p = consistency_probability(build_and_run_trellis(obs), obs)
            brute_p = brute_force_consistency(obs)
            scale = max(abs(brute_p), 1e-300)
            max_err = max(max_err, abs(trellis_p - brute_p) / scale)
    _write_csv(args.out, ["n", "m", "delta", "p", "trials", "seed", "max_rel_err"],
               [[cfg.n, cfg.m, cfg.delta, cfg.p_s, trials, cfg.seed, max_err]])
    _write_summary(_summary_path(args.out), {
        "command": "oracle", "config": dataclasses.asdict(cfg),
        "trials": trials, "max_rel_err": max_err,
    })
    print(f"oracle check: max relative error {max_err:.3e} over {trials} trials")
    if max_err > 1e-9:
        print("oracle mismatch beyond tolerance", file=sys.stderr)
        return INTERNAL_ERROR
    return 0


def _cmd_multihop(args) -> int:
    section = _load_config_section(args.config, "multihop")

    def opt(key, default, cast):
        return _merged(args, section, key, default, cast)

    seed = opt("seed", 0, int)
    scenario = opt("scenario", None, str)
    topology = opt("topology", None, str)
    if (scenario is None) == (topology is None):
        raise CliError("multihop needs exactly one of --scenario or --topology")
    if scenario is not None:
        if scenario not in SCENARIOS:
            raise CliError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
        report = mincut_scenario(scenario, seed=seed)
        payload = dataclasses.asdict(report)
        _write_summary(args.out, {"command": "multihop", "seed": seed, "report": payload})
        print(f"scenario {scenario}: corrupted_delivered={report.corrupted_delivered} "
              f"detected={report.detected} freq={report.detection_frequency}")
        return 0
    g, behaviors, schedule, source_symbols = load_topology(topology)
    field = default_field(opt("n", 10, int))
    import numpy as np

    spec = sample_hash(np.random.default_rng(seed), "affine", field.n, opt("delta", 2, int))
    ledger = TrustLedger(opt("threshold", 0.005, float), window=opt("window", 25, int))
    transcript = run_protocol(g, behaviors, schedule, spec, field, seed, ledger,
                              source_symbols or None)
    trace = opt("trace", None, str)
    if trace:
        write_trace(transcript, trace)
    verdicts = {
        f"{watcher}->{watched}": ledger.verdict(watcher, watched).value
        for watcher, watched in ledger.pairs()
    }
    _write_summary(args.out, {
        "command": "multihop", "seed": seed, "topology": topology,
        "rounds": len(schedule), "verdicts": verdicts,
        "policed_pairs": {f"{w}->{v}": len(ledger.samples(w, v)) for w, v in ledger.pairs()},
    })
    print(f"multihop run: {len(schedule)} rounds, {len(verdicts)} policed pairs -> {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algwatch",
        description="Algebraic watchdog experiments: trellis inference over overheard "
                    "network-coded transmissions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file; flags override it")
        p.add_argument("--seed", type=int, help="root seed (default 0)")
        p.add_argument("--out", default="out.csv", help="output CSV/JSON path")

    p = sub.add_parser("two-hop", help="Monte Carlo sweep of the two-hop experiment")
    common(p)
    p.add_argument("--sweep", choices=SWEEP_AXES, help="axis to sweep (default p_adv)")
    p.add_argument("--values", help="comma-separated, strictly increasing axis values")
    p.add_argument("--m", type=int, help="source count (default 3)")
    p.add_argument("--n", type=int, help="symbol width in bits (default 10)")
    p.add_argument("--delta", type=int, help="hash width in bits (default 2)")
    p.add_argument("--p-s", dest="p_s", type=float, help="peer overhearing rate (default 0.1)")
    p.add_argument("--p-relay", dest="p_relay", type=float,
                   help="relay overhearing rate (default 0.1)")
    p.add_argument("--p-adv", dest="p_adv", type=float,
                   help="adversarial injection rate (default 0.1)")
    p.add_argument("--iterations", type=int, help="trials per point (default 1000)")
    p.add_argument("--pruning-eps", dest="pruning_eps", type=float,
                   help="ball-prune candidate sets at this eps (default off)")
    p.add_argument("--hash-family", dest="hash_family", choices=("affine", "poly"),
                   help="hash family for the experiment (default affine)")
    p.add_argument("--workers", type=int, help="parallel workers (default: cpu count)")

    p = sub.add_parser("multihop", help="run a min-cut scenario or topology file")
    common(p)
    p.add_argument("--scenario", choices=SCENARIOS)
    p.add_argument("--topology", help="JSON topology document")
    p.add_argument("--trace", help="write line-delimited transcript here")
    p.add_argument("--threshold", type=float, help="ledger threshold for custom topologies")
    p.add_argument("--window", type=int, help="rolling verdict window (default 25)")
    p.add_argument("--n", type=int, help="symbol width for custom topologies (default 10)")
    p.add_argument("--delta", type=int, help="hash width for custom topologies (default 2)")

    p = sub.add_parser("analysis", help="tabulate the closed-form evaluators")
    common(p)
    p.add_argument("--table", choices=("misdetection", "matched-count"))
    p.add_argument("--n", type=int, help="symbol width (default 10)")
    p.add_argument("--h", type=int, help="hash bits for the misdetection table")
    p.add_argument("--m", type=int, help="peer count for the matched-count table")
    p.add_argument("--p", type=float, help="overhearing rate for the matched-count table")
    p.add_argument("--deltas", help="comma-separated hash widths for matched-count")

    p = sub.add_parser("oracle", help="trellis vs brute-force enumeration check")
    common(p)
    p.add_argument("--n", type=int, help="symbol width <= 6 (default 4)")
    p.add_argument("--m", type=int, help="source count (default 3)")
    p.add_argument("--delta", type=int, help="hash width (default 1)")
    p.add_argument("--p", type=float, help="overhearing rate (default 0.1)")
    p.add_argument("--trials", type=int, help="instances to check (default 100)")
    return parser


_COMMANDS = {
    "two-hop": _cmd_two_hop,
    "multihop": _cmd_multihop,
    "analysis": _cmd_analysis,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else USAGE_ERROR
    try:
        return _COMMANDS[args.command](args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Experiment runner CLI.

Subcommands:
  two-hop   sweep one config axis (p_adv, delta, p_s, m) of the two-hop
            Monte Carlo experiment and emit per-point statistics
  multihop  run a built-in min-cut scenario or a custom topology file
  analysis  tabulate the closed-form evaluators
  oracle    check the trellis against brute-force enumeration at n <= 6

Every run emits CSV rows plus a JSON summary echoing the full config and
seed, and the algwatch, numpy and Python versions, so any plot-reproducing
run is a single command. A flat INI config file (one section per
subcommand) can predefine values; explicit CLI flags override it. Exit
codes: 0 success, 1 usage error, 2 internal fault.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import inspect
import json
import os
import platform
import sys
import traceback

import numpy as np

from . import __version__
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
    unpoliced_pairs,
    write_trace,
)
from .gfield import default_field
from .hashing import sample_hash
from .inference import _pstar
from .sim import (
    SWEEP_AXES,
    TwoHopConfig,
    brute_force_consistency,
    collect_diagnostics,
    run_sweep,
    simulate_observation,
)

USAGE_ERROR, INTERNAL_ERROR = 1, 2

TWO_HOP_COLUMNS = [
    "sweep", "value", *(f.name for f in dataclasses.fields(TwoHopConfig)),
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
    versions = {
        "algwatch": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    with open(path, "w") as fh:
        json.dump({**payload, "versions": versions}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _summary_path(out_path: str) -> str:
    root, _ = os.path.splitext(out_path)
    return root + ".json"


def _parse_values(key: str, text: str, cast):
    try:
        return [cast(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise CliError(f"bad {key} {text!r}: {exc}") from None


def _options(args):
    """Option lookup for ``args.command``: CLI flag beats config file beats default.

    The config file's section is the one named after the command.
    """
    section = {}
    if args.config is not None:
        parser = configparser.ConfigParser()
        if not parser.read(args.config):
            raise CliError(f"config file not found: {args.config}")
        if parser.has_section(args.command):
            section = dict(parser.items(args.command))

    def opt(key, default, cast):
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            return cli_value
        if key in section:
            try:
                return cast(section[key])
            except ValueError as exc:
                raise CliError(f"config field {key!r}: {exc}") from None
        return default

    return opt


def _rate(opt, key: str) -> float:
    """The overhearing rate given as ``--key``, checked here so that an error names the flag."""
    value = opt(key, 0.1, float)
    if not 0.0 <= value <= 0.5:
        raise CliError(f"{key} must be in [0, 0.5], got {value}")
    return value


def _cmd_two_hop(args) -> int:
    opt = _options(args)
    axis = opt("sweep", "p_adv", str)
    if axis not in SWEEP_AXES:
        raise CliError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    raw_values = opt("values", DEFAULT_SWEEP_VALUES[axis], str)
    cast = int if axis in ("delta", "m") else float
    values = _parse_values("values", raw_values, cast)
    # Every config field has a flag of the same name; its default is the library's.
    cfg = TwoHopConfig(**{
        f.name: opt(f.name, f.default, float if f.name == "pruning_eps" else type(f.default))
        for f in dataclasses.fields(TwoHopConfig)
    })
    workers = opt("workers", os.cpu_count() or 1, int)
    with collect_diagnostics() as diagnostics:
        results = run_sweep(cfg, axis, values, workers=workers)
    rows = [
        [axis, value, *dataclasses.astuple(dataclasses.replace(cfg, **{axis: value})),
         stats.mean_p_relay, stats.var_relay, stats.mean_p_adv, stats.var_adv]
        for value, stats in results
    ]
    _write_csv(args.out, TWO_HOP_COLUMNS, rows)
    _write_summary(_summary_path(args.out), {
        "command": "two-hop",
        "config": dataclasses.asdict(cfg),
        "sweep": axis,
        "values": values,
        "workers": workers,
        "rows": [dict(zip(TWO_HOP_COLUMNS, row)) for row in rows],
        # fallbacks: trials whose trellis, and arms whose scoring, raised InferenceError
        # and were scored p* = 0; row_size and support: over the trellises built
        "diagnostics": diagnostics.summary(),
    })
    print(f"two-hop sweep over {axis}: {len(rows)} rows -> {args.out}")
    return 0


def _cmd_analysis(args) -> int:
    opt = _options(args)
    table = opt("table", "misdetection", str)
    n = opt("n", 10, int)
    out = args.out
    if table == "misdetection":
        h = opt("h", 2, int)
        if h < 0:
            raise CliError(f"h must be >= 0, got {h}")
        params = {"h": h}
        columns = ["n", "h", "radius", "undetected_watchdog", "undetected_peer", "misdetection"]
        rows = []
        for r in range(max(n, 0) + 1):  # radius 0 always: TwoHopGeometry checks n and h
            g = TwoHopGeometry(n, h, r, r, r, r)
            rows.append([
                n, h, r,
                undetected_prob_watchdog(g), undetected_prob_peer(g),
                misdetection_probability(g),
            ])
        _write_csv(out, columns, rows)
    elif table == "matched-count":
        m = opt("m", 3, int)
        p = _rate(opt, "p")
        deltas = _parse_values("deltas", opt("deltas", "0,1,2,4", str), int)
        if not deltas:
            raise CliError("deltas must not be empty")
        if min(deltas) < 0:
            raise CliError(f"deltas must be >= 0, got {min(deltas)}")
        params = {"m": m, "p": p, "deltas": deltas}
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
        "command": "analysis", "table": table, "n": n, **params,
        "rows_file": out,
    })
    print(f"analysis table {table} -> {out}")
    return 0


def _cmd_oracle(args) -> int:
    opt = _options(args)
    p = _rate(opt, "p")
    cfg = TwoHopConfig(
        m=opt("m", 3, int),
        n=opt("n", 4, int),
        delta=opt("delta", 1, int),
        p_s=p,
        p_relay=p,
        p_adv=0.3,
        iterations=1,
        seed=opt("seed", 0, int),
    )
    if cfg.n > 6:
        raise CliError("oracle checks require n <= 6")
    trials = opt("trials", 100, int)
    if trials < 1:
        raise CliError(f"trials must be >= 1, got {trials}")
    max_err = 0.0
    for trial in range(trials):
        for adversarial in (False, True):
            obs = simulate_observation(cfg, adversarial, trial)
            trellis_p = _pstar(obs)
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
    opt = _options(args)
    seed = opt("seed", 0, int)
    scenario = opt("scenario", None, str)
    topology = opt("topology", None, str)
    if (scenario is None) == (topology is None):
        raise CliError("multihop needs exactly one of --scenario or --topology")
    if scenario is not None:
        if scenario not in SCENARIOS:
            raise CliError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
        for key in ("threshold", "window", "n", "delta", "trace"):  # read by topology runs only
            if opt(key, None, str) is not None:
                raise CliError(f"--{key} applies only to --topology runs")
        params = {
            name: p.default for name, p in inspect.signature(mincut_scenario).parameters.items()
            if name not in ("kind", "seed")
        }
        with collect_diagnostics() as diagnostics:
            report = mincut_scenario(scenario, seed=seed, **params)
        payload = dataclasses.asdict(report)
        _write_summary(args.out, {
            "command": "multihop", "scenario": scenario, "seed": seed, **params, "report": payload,
            # the threshold calibration's trials; the structural scenarios run none
            "diagnostics": diagnostics.summary(),
        })
        print(f"scenario {scenario}: corrupted_delivered={report.corrupted_delivered} "
              f"detected={report.detected} freq={report.detection_frequency}")
        return 0
    g, behaviors, schedule, source_symbols = load_topology(topology)
    if seed < 0:  # the hash spec is drawn before run_protocol checks it
        raise CliError(f"seed must be >= 0, got {seed}")
    field = default_field(opt("n", 10, int))
    for name, symbol in source_symbols.items():
        if not 0 <= symbol < field.order:
            raise CliError(f"topology field 'source_symbols.{name}': "
                           f"{symbol} is not a GF(2^{field.n}) element")
    spec = sample_hash(np.random.default_rng(seed), "affine", field.n, opt("delta", 2, int))
    ledger = TrustLedger(opt("threshold", 0.005, float), window=opt("window", 25, int))
    transcript = run_protocol(g, behaviors, schedule, spec, seed, ledger, source_symbols or None)
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
        "unpoliced": {
            f"{w}->{v}": reason
            for (w, v), reason in unpoliced_pairs(g, behaviors, transcript, ledger).items()
        },
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

    d = TwoHopConfig()
    p = sub.add_parser("two-hop", help="Monte Carlo sweep of the two-hop experiment")
    common(p)
    p.add_argument("--sweep", choices=SWEEP_AXES, help="axis to sweep (default p_adv)")
    p.add_argument("--values", help="comma-separated, strictly increasing axis values")
    p.add_argument("--m", type=int, help=f"source count (default {d.m})")
    p.add_argument("--n", type=int, help=f"symbol width in bits (default {d.n})")
    p.add_argument("--delta", type=int, help=f"hash width in bits (default {d.delta})")
    p.add_argument("--p-s", dest="p_s", type=float,
                   help=f"peer overhearing rate (default {d.p_s})")
    p.add_argument("--p-relay", dest="p_relay", type=float,
                   help=f"relay overhearing rate (default {d.p_relay})")
    p.add_argument("--p-adv", dest="p_adv", type=float,
                   help=f"adversarial injection rate (default {d.p_adv})")
    p.add_argument("--iterations", type=int, help=f"trials per point (default {d.iterations})")
    p.add_argument("--pruning-eps", dest="pruning_eps", type=float,
                   help="ball-prune candidate sets at this eps (default off)")
    p.add_argument("--hash-family", dest="hash_family", choices=("affine", "poly"),
                   help=f"hash family for the experiment (default {d.hash_family})")
    p.add_argument("--workers", type=int, help="parallel workers (default: cpu count)")

    p = sub.add_parser("multihop", help="run a min-cut scenario or topology file")
    common(p)
    p.add_argument("--scenario", choices=SCENARIOS)
    p.add_argument("--topology", help="JSON topology document")
    p.add_argument("--trace", help="write a topology run's line-delimited transcript here")
    p.add_argument("--threshold", type=float, help="ledger threshold for custom topologies")
    p.add_argument("--window", type=int,
                   help="rolling verdict window for custom topologies (default 25)")
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

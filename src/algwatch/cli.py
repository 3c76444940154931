"""Experiment runner CLI.

Subcommands:
  two-hop   sweep one config axis (p_adv, delta, p_s, m) of the two-hop
            Monte Carlo experiment and emit per-point statistics
  multihop  run a built-in min-cut scenario or a custom topology file
  analysis  tabulate the closed-form evaluators
  oracle    check the trellis against brute-force enumeration at n <= 6

Every run emits CSV rows plus a JSON summary echoing the full config and
seed, and the algwatch, numpy and Python versions, so any plot-reproducing
run is a single command. A flat INI config file's section named after
the subcommand sets its flags' defaults; explicit flags override it. Exit
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
from .hashing import FAMILIES, sample_hash
from .sim import (
    SWEEP_AXES,
    TwoHopConfig,
    brute_force_consistency,
    collect_diagnostics,
    run_experiment,
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

# The flags only a --topology run reads: (type, default there, help). Each is
# None on the parser, so a --scenario run can reject any that is set.
TOPOLOGY_FLAGS = {
    "threshold": (float, 0.005, "ledger verdict threshold"),
    "window": (int, 25, "rolling verdict window"),
    "n": (int, 10, "symbol width in bits"),
    "delta": (int, 2, "hash width in bits"),
    "trace": (str, None, "write the line-delimited transcript here"),
}


# The largest misdetection --n and --h: time grows as about n^2.4, memory with 3h + 2n.
MISDETECTION_MAX = 2048

# log2 of the most peer tuples the oracle enumerates an observation, (2^(n - delta))^(m - 1),
# a count each further source multiplies by 2^(n - delta): m = 4 at n = 6, delta = 0.
ORACLE_BUDGET_BITS = 18


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


def _check_outputs(args) -> None:
    """Refuse, before anything runs, an output path that is another output's or an input's.

    Paths are compared as resolved, so two spellings of one file collide.
    """
    if args.command == "multihop":
        outputs = [("out", args.out, "JSON summary"), ("trace", args.trace, "trace")]
    else:
        outputs = [("out", args.out, "CSV"), ("out", _summary_path(args.out), "JSON summary")]
    taken = {  # each resolved path in use, as the error names it
        os.path.realpath(path): f"--{key} file" for key in ("config", "topology")
        if (path := getattr(args, key, None))
    }
    for flag, path, what in outputs:
        if path:
            real = os.path.realpath(path)
            if real in taken:
                raise CliError(f"{flag}: the {what} {path!r} would be written over the {taken[real]}")
            taken[real] = what


def _parse_values(key: str, text: str, cast):
    try:
        return [cast(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise CliError(f"bad {key} {text!r}: {exc}") from None


def _rate(args, key: str) -> float:
    """The overhearing rate given as ``--key``, checked here so that an error names the flag."""
    value = getattr(args, key)
    if not 0.0 <= value <= 0.5:
        raise CliError(f"{key} must be in [0, 0.5], got {value}")
    return value


def _cmd_two_hop(args) -> int:
    axis = args.sweep
    if axis not in SWEEP_AXES:  # a config value skips argparse's choices check
        raise CliError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    raw_values = DEFAULT_SWEEP_VALUES[axis] if args.values is None else args.values
    values = _parse_values("values", raw_values, int if axis in ("delta", "m") else float)
    # Every config field has a flag of the same name; its default is the library's.
    cfg = TwoHopConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(TwoHopConfig)})
    with collect_diagnostics() as diagnostics:
        results = run_sweep(cfg, axis, values, workers=args.workers)
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
        "workers": args.workers,
        "rows": [dict(zip(TWO_HOP_COLUMNS, row)) for row in rows],
        # fallbacks: trials whose trellis, and arms whose scoring, raised InferenceError
        # and were scored p* = 0; row_size, announced_support and forward: over trellises built
        "diagnostics": diagnostics.summary(),
    })
    print(f"two-hop sweep over {axis}: {len(rows)} rows -> {args.out}")
    return 0


def _cmd_analysis(args) -> int:
    table, n, out = args.table, args.n, args.out
    if table == "misdetection":
        h = args.h
        if h < 0:
            raise CliError(f"h must be >= 0, got {h}")
        for name, value in (("n", n), ("h", h)):
            if value > MISDETECTION_MAX:
                raise CliError(f"{name} must be <= {MISDETECTION_MAX}, got {value}")
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
        m = args.m
        p = _rate(args, "p")
        deltas = _parse_values("deltas", args.deltas, int)
        if not deltas:
            raise CliError("deltas must not be empty")
        if min(deltas) < 0 or max(deltas) > n >= 1:  # an n below 1 is the evaluator's to name
            raise CliError(f"deltas must be in [0, n] at n = {n}, got {args.deltas}")
        params = {"m": m, "p": p, "deltas": deltas}
        columns = ["n", "m", "delta", "p", "expected_matched"]
        rows = [
            [n, m, d, p, matched_count_expected(n, m, d, [p] * (m + 1))]
            for d in deltas
        ]
        _write_csv(out, columns, rows)
    else:
        raise CliError(f"unknown table {table!r}; choose misdetection or matched-count")
    _write_summary(_summary_path(out), {
        "command": "analysis", "table": table, "n": n, **params,
        "rows_file": out,
    })
    print(f"analysis table {table} -> {out}")
    return 0


def _cmd_oracle(args) -> int:
    p = _rate(args, "p")
    cfg = TwoHopConfig(
        m=args.m, n=args.n, delta=args.delta, p_s=p, p_relay=p, p_adv=0.3, iterations=1,
        seed=args.seed,
    )
    if cfg.n > 6:
        raise CliError("oracle checks require n <= 6")
    if (cfg.n - cfg.delta) * (cfg.m - 1) > ORACLE_BUDGET_BITS:
        raise CliError(
            f"m must be <= {1 + ORACLE_BUDGET_BITS // (cfg.n - cfg.delta)} at n - delta = "
            f"{cfg.n - cfg.delta}, got {cfg.m}: the oracle enumerates 2^((n - delta)(m - 1)) "
            f"peer tuples an observation, at most 2^{ORACLE_BUDGET_BITS}"
        )
    trials = args.trials
    if trials < 1:
        raise CliError(f"trials must be >= 1, got {trials}")
    stats = run_experiment(dataclasses.replace(cfg, iterations=trials))  # as experiments score
    max_err = 0.0
    for adversarial, samples in ((False, stats.relay_samples), (True, stats.adv_samples)):
        for trial, trellis_p in enumerate(samples.tolist()):
            brute_p = brute_force_consistency(simulate_observation(cfg, adversarial, trial))
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
    seed, scenario, topology = args.seed, args.scenario, args.topology
    if (scenario is None) == (topology is None):
        raise CliError("multihop needs exactly one of --scenario or --topology")
    for key, (_, default, _) in TOPOLOGY_FLAGS.items():
        if getattr(args, key) is None:
            setattr(args, key, default)
        elif scenario is not None:
            raise CliError(f"--{key} applies only to --topology runs")
    if scenario is not None:
        if scenario not in SCENARIOS:
            raise CliError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
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
    field = default_field(args.n)
    for name, symbol in source_symbols.items():
        if not 0 <= symbol < field.order:
            raise CliError(f"topology field 'source_symbols.{name}': "
                           f"{symbol} is not a GF(2^{field.n}) element")
    # Not run_protocol's stream, SeedSequence((seed,)); (seed, 0) would equal it (zero padding).
    spec = sample_hash(np.random.default_rng(np.random.SeedSequence((seed, 1))), "affine",
                       field.n, args.delta)
    ledger = TrustLedger(args.threshold, window=args.window)
    transcript = run_protocol(g, behaviors, schedule, spec, seed, ledger, source_symbols or None)
    if args.trace:
        write_trace(transcript, args.trace)
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


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The CLI's parser, and each subcommand's parser by name; help shows every default."""
    parser = argparse.ArgumentParser(
        prog="algwatch",
        description="Algebraic watchdog experiments: trellis inference over overheard "
                    "network-coded transmissions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.add_argument("--config", help=f"INI config file; its [{name}] section sets defaults")
        p.add_argument("--seed", type=int, default=0, help="root seed")
        p.add_argument("--out", default="out.csv", help="output CSV/JSON path")
        return p

    d = TwoHopConfig()
    p = command("two-hop", "Monte Carlo sweep of the two-hop experiment")
    p.add_argument("--sweep", choices=SWEEP_AXES, default="p_adv", help="axis to sweep")
    p.add_argument("--values", help="comma-separated, strictly increasing axis values; unset, by "
                   "axis: " + "; ".join(f"{k} {v}" for k, v in DEFAULT_SWEEP_VALUES.items()))
    p.add_argument("--m", type=int, default=d.m, help="source count")
    p.add_argument("--n", type=int, default=d.n, help="symbol width in bits")
    p.add_argument("--delta", type=int, default=d.delta, help="hash width in bits")
    p.add_argument("--p-s", dest="p_s", type=float, default=d.p_s, help="peer overhearing rate")
    p.add_argument("--p-relay", dest="p_relay", type=float, default=d.p_relay,
                   help="relay overhearing rate")
    p.add_argument("--p-adv", dest="p_adv", type=float, default=d.p_adv,
                   help="adversarial injection rate")
    p.add_argument("--iterations", type=int, default=d.iterations, help="trials per point")
    p.add_argument("--pruning-eps", dest="pruning_eps", type=float, default=d.pruning_eps,
                   help="ball-prune candidate sets at this eps, if set")
    p.add_argument("--hash-family", dest="hash_family", choices=FAMILIES,
                   default=d.hash_family, help="hash family for the experiment")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                   help="parallel workers; the cpu count unless set")

    p = command("multihop", "run a min-cut scenario or topology file")
    p.add_argument("--scenario", choices=SCENARIOS)
    p.add_argument("--topology", help="JSON topology document")
    for key, (kind, default, text) in TOPOLOGY_FLAGS.items():
        p.add_argument(f"--{key}", type=kind, help=f"{text} (--topology only; unset: {default})")

    p = command("analysis", "tabulate the closed-form evaluators")
    p.add_argument("--table", choices=("misdetection", "matched-count"), default="misdetection",
                   help="table to write")
    p.add_argument("--n", type=int, default=10, help="symbol width")
    p.add_argument("--h", type=int, default=2, help="hash bits for the misdetection table")
    p.add_argument("--m", type=int, default=3, help="peer count for the matched-count table")
    p.add_argument("--p", type=float, default=0.1,
                   help="overhearing rate for the matched-count table")
    p.add_argument("--deltas", default="0,1,2,4",
                   help="comma-separated hash widths for matched-count")

    p = command("oracle", "trellis vs brute-force enumeration check")
    p.add_argument("--n", type=int, default=4, help="symbol width <= 6")
    p.add_argument("--m", type=int, default=3, help="source count")
    p.add_argument("--delta", type=int, default=1, help="hash width")
    p.add_argument("--p", type=float, default=0.1, help="overhearing rate")
    p.add_argument("--trials", type=int, default=100, help="instances to check")
    return parser, sub.choices


def _parse_args(argv) -> argparse.Namespace:
    """argv's options: each from its flag, else the --config section, else its default.

    The section named after the command becomes that command's parser
    defaults and argv is parsed again, so argparse converts each config
    value with its flag's own type and names the flag when that fails. A
    key that names none of the command's destinations is an error.
    """
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    config = configparser.ConfigParser()
    try:
        if not config.read(args.config):
            raise CliError(f"config file not found: {args.config}")
        section = config.items(args.command) if config.has_section(args.command) else []
    except configparser.Error as exc:
        raise CliError(f"config file {args.config}: {exc}") from None
    own = vars(args).keys() - {"command", "config"}  # the command's option destinations
    for key, _ in section:
        if key not in own:
            meant = key.replace("-", "_")
            hint = f" (did you mean {meant}?)" if meant in own else ""
            raise CliError(
                f"config file {args.config}: [{args.command}] has no option {key!r}{hint}"
            )
    commands[args.command].set_defaults(**dict(section))
    return parser.parse_args(argv)


_COMMANDS = {
    "two-hop": _cmd_two_hop,
    "multihop": _cmd_multihop,
    "analysis": _cmd_analysis,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        _check_outputs(args)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse's, after --help or a usage message
        return 0 if exc.code == 0 else USAGE_ERROR
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())

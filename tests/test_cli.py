import copy
import csv
import hashlib
import json
import platform
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import algwatch
from algwatch import cli
from algwatch.cli import main
from algwatch.hashing import hash_eval_vec, sample_hash
from algwatch.inference import (
    InferenceError, build_and_run_trellis, consistency_probability, transition_row,
)
from algwatch.sim import TwoHopConfig, brute_force_consistency, simulate_observation


def _read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_two_hop_sweep_csv_and_summary(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = [
        "two-hop", "--sweep", "p_adv", "--values", "0.1,0.3",
        "--m", "2", "--n", "6", "--delta", "1", "--iterations", "20",
        "--seed", "5", "--workers", "1", "--out", str(out),
    ]
    assert main(argv) == 0
    rows = _read_csv(out)
    assert rows[0][:2] == ["sweep", "value"]
    assert len(rows) == 3
    assert [r[1] for r in rows[1:]] == ["0.1", "0.3"]
    summary = json.loads((tmp_path / "sweep.json").read_text())
    assert summary["config"]["seed"] == 5
    assert len(summary["rows"]) == 2

    # byte-identical on identical invocation
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


def _two_hop_diagnostics(tmp_path, *flags):
    out = tmp_path / "diag.csv"
    assert main(["two-hop", "--iterations", "40", "--out", str(out), *flags]) == 0
    return json.loads((tmp_path / "diag.json").read_text())["diagnostics"]


def test_two_hop_summary_counts_fallbacks(tmp_path):
    default = _two_hop_diagnostics(tmp_path, "--workers", "1")
    assert {key: default[key] for key in ("trials", "fallbacks")} == {
        "trials": 40, "fallbacks": {"trellis": 0, "scoring": 0},
    }
    one = _two_hop_diagnostics(tmp_path, "--pruning-eps", "0.9", "--workers", "1")
    two = _two_hop_diagnostics(tmp_path, "--pruning-eps", "0.9", "--workers", "2")
    assert one["fallbacks"]["trellis"] > 0 and one == two


def test_two_hop_summary_reports_row_sizes_and_supports(tmp_path):
    # eps = 0.5 at n = 8, p_s = 0.2 prunes rows to mixed sizes and empties a trellis
    cfg = TwoHopConfig(n=8, p_s=0.2, iterations=12, seed=5, pruning_eps=0.5)
    rows, supports, failed = [], [], 0
    for trial in range(cfg.iterations):
        obs = simulate_observation(cfg, False, trial)
        try:
            trellis = build_and_run_trellis(obs)
        except InferenceError:
            failed += 1
            continue
        rows += [
            len(transition_row(o.symbol, o.hash_value, o.channel, obs.hash_spec, 0.5).candidates)
            for o in obs.overheard
        ]
        # the final states p* reads: positive weight, hashing to a value some arm announced
        announced = [obs.relay_overheard.hash_value] + [
            simulate_observation(replace(cfg, p_adv=p_adv), True, trial).relay_overheard.hash_value
            for p_adv in (0.1, 0.4)
        ]
        weights = trellis.final_weights
        hashed = hash_eval_vec(obs.hash_spec, np.arange(len(weights)))
        supports.append(int(np.count_nonzero((weights > 0.0) & np.isin(hashed, announced))))
    assert 0 < failed < cfg.iterations and len(set(rows)) > 1
    flags = ["two-hop", "--n", "8", "--p-s", "0.2", "--iterations", "12", "--seed", "5",
             "--pruning-eps", "0.5", "--values", "0.1,0.4"]
    runs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.csv"
        assert main([*flags, "--workers", workers, "--out", str(out)]) == 0
        runs.append((out.read_bytes(), json.loads(out.with_suffix(".json").read_text())))
    (csv_one, one), (csv_two, two) = runs
    assert csv_one == csv_two and one["diagnostics"] == two["diagnostics"]
    assert one["diagnostics"]["fallbacks"]["trellis"] == failed
    assert one["diagnostics"]["row_size"] == {"mean": float(np.mean(rows)), "max": max(rows)}
    assert one["diagnostics"]["announced_support"] == {
        "mean": float(np.mean(supports)), "max": max(supports),
    }


@pytest.mark.parametrize("command", ["two-hop", "oracle", "multihop-scenario", "multihop-topology"])
def test_negative_seed_names_the_field(tmp_path, capsys, command):
    topology = tmp_path / "topo.json"
    topology.write_text(json.dumps(_GHOST_BASE))
    argv = {
        "two-hop": ["two-hop", "--iterations", "4", "--workers", "1"],
        "oracle": ["oracle", "--trials", "2"],
        "multihop-scenario": ["multihop", "--scenario", "one-honest-path"],
        "multihop-topology": ["multihop", "--topology", str(topology)],
    }[command]
    assert main([*argv, "--seed", "-1", "--out", str(tmp_path / "x.csv")]) == 1
    assert "seed must be >= 0" in capsys.readouterr().err


def test_two_hop_rejects_bad_values(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["two-hop", "--values", "0.3,0.1", "--iterations", "2",
                 "--n", "6", "--delta", "1", "--workers", "1", "--out", str(out)]) == 1
    assert main(["two-hop", "--sweep", "bogus", "--out", str(out)]) == 1


@pytest.mark.parametrize("argv, message", [
    (["two-hop", "--iterations", "8", "--workers", "0"], "workers must be >= 1, got 0"),
    (["two-hop", "--iterations", "8", "--workers", "-3"], "workers must be >= 1, got -3"),
    (["oracle", "--trials", "0"], "trials must be >= 1, got 0"),
    (["oracle", "--n", "0"], "n must be in [1, 16], got 0"),
    (["analysis", "--table", "misdetection", "--n", "0"], "n must be >= 1, got 0"),
    (["analysis", "--table", "matched-count", "--m", "0"], "m must be >= 1, got 0"),
    (["analysis", "--table", "matched-count", "--p", "0.7"], "must be in [0, 0.5], got 0.7"),
    (["analysis", "--table", "misdetection", "--n", "-1"], "n must be >= 1, got -1"),
    (["analysis", "--table", "matched-count", "--deltas", ","], "deltas must not be empty"),
    (["two-hop", "--p-s", "0.7"], "p_s must be in [0, 0.5], got 0.7"),
    (["two-hop", "--p-relay", "-1"], "p_relay must be in [0, 0.5], got -1.0"),
    (["two-hop", "--m", "0"], "m must be >= 1, got 0"),
    (["two-hop", "--pruning-eps", "2"], "pruning_eps must be in (0, 1), got 2.0"),
    (["analysis", "--h", "-1"], "h must be >= 0, got -1"),
    (["oracle", "--p", "0.7"], "p must be in [0, 0.5], got 0.7"),
    (["multihop", "--scenario", "one-honest-path", "--window", "0"],
     "--window applies only to --topology runs"),
    (["multihop", "--scenario", "all-parents-malicious", "--n", "6"],
     "--n applies only to --topology runs"),
    (["analysis", "--table", "misdetection", "--n", "2049"], "n must be <= 2048, got 2049"),
    (["analysis", "--table", "misdetection", "--h", "30000000"], "h must be <= 2048, got 30000000"),
    (["oracle", "--n", "6", "--delta", "0", "--m", "5", "--trials", "1"],
     "m must be <= 4 at n - delta = 6, got 5"),
    (["analysis", "--table", "matched-count", "--n", "0"], "n must be >= 1, got 0"),
    (["analysis", "--table", "matched-count", "--n", "-3"], "n must be >= 1, got -3"),
    (["analysis", "--table", "matched-count", "--deltas", "20"],
     "deltas must be in [0, n] at n = 10, got 20"),
    (["analysis", "--table", "matched-count", "--n", "4", "--deltas", "0,5"],
     "deltas must be in [0, n] at n = 4, got 0,5"),
])
def test_out_of_range_input_exits_one_naming_the_field(tmp_path, capsys, argv, message):
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag, kept", [
    (["oracle", "--trials", "3", "--out", "t.json"], "out", "t.json"),
    (["two-hop", "--iterations", "4", "--workers", "1", "--out", "th.json"], "out", "th.json"),
    (["multihop", "--topology", "topo.json", "--trace", "same.json", "--out", "same.json"],
     "trace", "same.json"),
    (["multihop", "--topology", "topo2.json", "--out", "./topo2.json"], "out", "topo2.json"),
    (["oracle", "--config", "run.json", "--out", "run.csv"], "out", "run.json"),
], ids=["oracle-summary", "two-hop-summary", "trace", "topology", "config"])
def test_output_over_an_output_or_input_exits_one(tmp_path, monkeypatch, capsys, argv, flag, kept):
    # the colliding file exists beforehand, and the refused run leaves it as it was
    monkeypatch.chdir(tmp_path)
    for name in ("topo.json", "topo2.json"):
        Path(name).write_text(json.dumps(_SMALL_TOPOLOGY))
    Path("run.json").write_text("[oracle]\ntrials = 1\n")
    if not Path(kept).exists():
        Path(kept).write_text("kept\n")
    before = Path(kept).read_bytes()
    assert main(argv) == 1
    assert re.search(rf"(?<!\w){flag}(?!\w)", capsys.readouterr().err)
    assert Path(kept).read_bytes() == before


def test_two_hop_summary_counts_forward_paths(tmp_path):
    # full 256-candidate rows run dense; median-ball pruned poly rows mostly keyed
    default = _two_hop_diagnostics(tmp_path, "--workers", "1")
    assert default["forward"] == {"dense": 40, "keyed": 0}
    pruned = ["--n", "10", "--delta", "2", "--pruning-eps", "0.5", "--hash-family", "poly"]
    one = _two_hop_diagnostics(tmp_path, *pruned, "--workers", "1")
    two = _two_hop_diagnostics(tmp_path, *pruned, "--workers", "2")
    assert one["forward"]["keyed"] > 0 and one == two
    assert sum(one["forward"].values()) == one["trials"] - one["fallbacks"]["trellis"]


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[two-hop]\nn = 6\ndelta = 1\nm = 2\niterations = 10\nvalues = 0.1,0.2\nworkers = 1\n"
    )
    out = tmp_path / "merged.csv"
    assert main(["two-hop", "--config", str(cfg), "--out", str(out),
                 "--iterations", "4"]) == 0
    rows = _read_csv(out)
    header, first = rows[0], rows[1]
    row = dict(zip(header, first))
    assert row["n"] == "6"            # from config
    assert row["iterations"] == "4"   # flag overrides config


def test_malformed_config_names_field(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[two-hop]\niterations = soon\n")
    out = tmp_path / "x.csv"
    assert main(["two-hop", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "iterations" in err
    cfg.write_text("[two-hop]\np_s = high\n")
    assert main(["two-hop", "--config", str(cfg), "--out", str(out)]) == 1
    assert "--p-s" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value, message", [
    ("two-hop", "sweep", "bogus", "sweep axis must be one of"),
    ("analysis", "table", "bogus", "unknown table 'bogus'"),
    ("multihop", "scenario", "bogus", "scenario must be one of"),
])
def test_config_value_outside_its_choices_exits_one(tmp_path, capsys, command, key, value,
                                                    message):
    # argparse checks a flag's choices, not a config value's: the command names the field
    ini = tmp_path / "choice.ini"
    ini.write_text(f"[{command}]\n{key} = {value}\n")
    out = tmp_path / "choice.csv"
    assert main([command, "--config", str(ini), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, key, hint", [
    ("analysis", "tabel", None), ("two-hop", "p-s", "p_s"), ("analysis", "p-s", None),
    ("analysis", "sweep", None), ("oracle", "config", None),
])
def test_config_key_naming_no_option_exits_one(tmp_path, capsys, command, key, hint):
    """A section key that is not one of the command's destinations is an error, not ignored."""
    ini = tmp_path / "typo.ini"
    ini.write_text(f"[{command}]\nseed = 3\n{key} = 0.3\n")
    out = tmp_path / "typo.csv"
    assert main([command, "--config", str(ini), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert repr(key) in err and str(ini) in err
    assert (f"did you mean {hint}?" in err) == (hint is not None)
    assert not out.exists()


@pytest.mark.parametrize("command, options", [
    ("two-hop", {
        "sweep": "m", "values": "2,3", "n": "6", "delta": "1", "p_s": "0.2", "p_relay": "0.15",
        "p_adv": "0.4", "iterations": "12", "seed": "3", "pruning_eps": "0.3",
        "hash_family": "poly", "workers": "1",
    }),
    ("oracle", {"n": "3", "m": "2", "delta": "2", "p": "0.2", "trials": "3", "seed": "5"}),
    ("analysis", {"table": "misdetection", "n": "6", "h": "1"}),
    ("analysis", {"table": "matched-count", "n": "12", "m": "2", "p": "0.2", "deltas": "1,3"}),
    ("multihop", {"threshold": "0.01", "window": "2", "n": "6", "delta": "1", "seed": "4"}),
], ids=["two-hop", "oracle", "misdetection", "matched-count", "multihop-topology"])
def test_config_section_equals_its_flags(tmp_path, command, options):
    """One run given by flags, one by the same options and its out path in a config section."""
    topology = tmp_path / "topo.json"
    topology.write_text(json.dumps(_SMALL_TOPOLOGY))
    written = {}
    for how in ("flags", "config"):
        run = tmp_path / how
        run.mkdir()
        out = run / ("run.json" if command == "multihop" else "run.csv")
        given = dict(options)
        if command == "multihop":
            given.update(topology=str(topology), trace=str(run / "trace.jsonl"))
        if how == "flags":
            flags = (token for key, value in given.items()
                     for token in (f"--{key.replace('_', '-')}", value))
            argv = [command, *flags, "--out", str(out)]
        else:
            ini = run / "run.ini"
            ini.write_text(f"[{command}]\n" + "".join(
                f"{key} = {value}\n" for key, value in {**given, "out": str(out)}.items()
            ))
            argv = [command, "--config", str(ini)]
        assert main(argv) == 0
        summary = json.loads(out.with_suffix(".json").read_text())
        assert summary.pop("rows_file", str(out)) == str(out)  # analysis echoes its output path
        files = [out, run / "trace.jsonl"] if command == "multihop" else [out]
        written[how] = summary, [path.read_bytes() for path in files]
    assert written["config"] == written["flags"]


def test_topology_hash_is_not_drawn_from_the_protocol_stream(tmp_path, monkeypatch):
    first_words = []

    def spy(rng, *args):
        first_words.append(int(copy.deepcopy(rng).bit_generator.random_raw()))
        return sample_hash(rng, *args)

    monkeypatch.setattr(cli, "sample_hash", spy)
    topology = tmp_path / "topo.json"
    topology.write_text(json.dumps(_SMALL_TOPOLOGY))
    for seed in range(3):
        assert main(["multihop", "--topology", str(topology), "--seed", str(seed),
                     "--out", str(tmp_path / "run.json")]) == 0
        # run_protocol's own generator for the same seed
        protocol = np.random.default_rng(np.random.SeedSequence((seed,)))
        assert first_words[-1] != int(protocol.bit_generator.random_raw())


def test_analysis_misdetection_table(tmp_path):
    out = tmp_path / "beta.csv"
    assert main(["analysis", "--table", "misdetection",
                 "--n", "4", "--h", "2", "--out", str(out)]) == 0
    rows = _read_csv(out)
    by_radius = {r[2]: r for r in rows[1:]}
    assert float(by_radius["4"][5]) == pytest.approx(0.25)


def test_analysis_matched_count_table(tmp_path):
    out = tmp_path / "counts.csv"
    assert main(["analysis", "--table", "matched-count", "--n", "10", "--m", "3",
                 "--p", "0.1", "--deltas", "2", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert float(rows[1][4]) == pytest.approx(6.77, abs=0.01)


def test_analysis_summary_echoes_resolved_parameters(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["analysis", "--table", "misdetection", "--n", "4", "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "t.json").read_text())
    assert (summary["n"], summary["h"]) == (4, 2)
    assert main(["analysis", "--table", "matched-count", "--p", "0.2", "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "t.json").read_text())
    assert {k: summary[k] for k in ("n", "m", "p", "deltas")} == {
        "n": 10, "m": 3, "p": 0.2, "deltas": [0, 1, 2, 4],
    }


def test_oracle_subcommand(tmp_path):
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--n", "4", "--trials", "25", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert float(rows[1][-1]) <= 1e-9
    assert main(["oracle", "--n", "8", "--out", str(tmp_path / "y.csv")]) == 1


@pytest.mark.parametrize("flags, cfg", [
    ([], TwoHopConfig(m=3, n=4, delta=1, p_s=0.1, p_relay=0.1, p_adv=0.3)),
    (["--n", "6", "--delta", "0", "--m", "3", "--p", "0"],
     TwoHopConfig(m=3, n=6, delta=0, p_s=0.0, p_relay=0.0, p_adv=0.3)),
], ids=["default", "n6-delta0-p0"])
def test_oracle_reports_the_public_pairs_error(tmp_path, flags, cfg):
    # the CLI scores its trials as a run does; its error is the public pair's, to the bit
    out = tmp_path / "oracle.csv"
    assert main(["oracle", *flags, "--trials", "20", "--out", str(out)]) == 0
    expect = 0.0
    for trial in range(20):
        for adversarial in (False, True):
            obs = simulate_observation(cfg, adversarial, trial)
            brute = brute_force_consistency(obs)
            err = abs(consistency_probability(build_and_run_trellis(obs), obs) - brute)
            expect = max(expect, err / max(abs(brute), 1e-300))
    assert _read_csv(out)[1][-1] == cli._fmt(expect)
    assert json.loads(out.with_suffix(".json").read_text())["max_rel_err"] == expect


def test_oracle_mismatch_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "brute_force_consistency", lambda obs: 0.5)
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--trials", "2", "--out", str(out)]) == cli.INTERNAL_ERROR == 2
    assert "oracle mismatch beyond tolerance" in capsys.readouterr().err
    assert float(_read_csv(out)[1][-1]) > 1e-9  # the error is still written


def test_multihop_scenario_subcommand(tmp_path):
    out = tmp_path / "scenario.json"
    assert main(["multihop", "--scenario", "all-parents-malicious",
                 "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    report = summary["report"]
    assert report["corrupted_delivered"] and not report["detected"]
    # every parameter the scenario ran with, resolved from mincut_scenario's defaults
    assert {k: summary[k] for k in (
        "scenario", "seed", "instances", "policed_samples", "p_adv", "p_overhear", "gamma",
        "window", "calibration_iterations",
    )} == {
        "scenario": "all-parents-malicious", "seed": 0, "instances": 40, "policed_samples": 50,
        "p_adv": 0.5, "p_overhear": 0.1, "gamma": 0.05, "window": 25,
        "calibration_iterations": 4000,
    }
    assert summary["diagnostics"] == {  # a structural scenario calibrates nothing
        "trials": 0, "fallbacks": {"trellis": 0, "scoring": 0},
        "row_size": {"mean": 0.0, "max": 0}, "announced_support": {"mean": 0.0, "max": 0},
        "forward": {"dense": 0, "keyed": 0},
    }
    assert main(["multihop", "--out", str(out)]) == 1  # neither scenario nor topology


# w polices an injecting relay r over three rounds of two slots
_WATCHED_RELAY = {
    "nodes": ["w", "s2", "r", "d"],
    "links": [["w", "r"], ["s2", "r"], ["r", "d"]],
    "interference": [["s2", "w", 0.1], ["r", "w", 0.1]],
    "behaviors": {
        "w": {"role": "honest", "check_probability": 1.0},
        "r": {"role": "adversarial", "p_adv": 0.5},
    },
    "schedule": [["s2", "w"], ["r"]] * 3,
}
_WIDTHS = pytest.mark.parametrize("width", [["--n", "10"], ["--n", "6", "--delta", "1"]],
                                  ids=["n10", "n6-delta1"])


@_WIDTHS
def test_multihop_topology_subcommand(tmp_path, width):
    tpath = tmp_path / "topo.json"
    tpath.write_text(json.dumps(_WATCHED_RELAY))
    out = tmp_path / "run.json"
    trace = tmp_path / "trace.jsonl"
    assert main(["multihop", "--topology", str(tpath), "--trace", str(trace),
                 "--window", "2", "--out", str(out), *width]) == 0
    summary = json.loads(out.read_text())
    assert summary["policed_pairs"] == {"w->r": 3}
    assert summary["unpoliced"] == {}
    assert trace.exists() and len(trace.read_text().splitlines()) == 9


@_WIDTHS
def test_multihop_trace_bytes_are_pinned(tmp_path, width):
    """The trace of the watched-relay run, byte for byte: one JSON object a transmission,
    its round, sender, packet fields, deliveries and overheard copies, keys sorted."""
    expect = {  # sha256 and length of the trace as first written, field by field
        "10": ("3c87cea334984ddd211ff9c27289941abdde608fbf5aae146dd92b05f04fa3fb", 1441),
        "6": ("03774983b4dd287809121099a42aabe9d00224fee8b1cb2f2cb21fd4e007755e", 1411),
    }
    tpath, trace = tmp_path / "topo.json", tmp_path / "trace.jsonl"
    tpath.write_text(json.dumps(_WATCHED_RELAY))
    assert main(["multihop", "--topology", str(tpath), "--trace", str(trace), "--window", "2",
                 "--out", str(tmp_path / "run.json"), *width]) == 0
    data = trace.read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == expect[width[1]]
    if width[1] == "6":
        assert data.splitlines()[0] == (
            b'{"coeffs": {"s2": 1}, "delivered": {"r": 54}, "input_hashes": {"s2": 1}, '
            b'"overheard": {"w": 48}, "own_hash": 1, "payload": 54, "round": 0, "sender": "s2"}'
        )


def test_multihop_topology_says_why_a_pair_went_unpoliced(tmp_path):
    # w feeds r but has no overhearing edge from it: w can never police r
    topo = {
        "nodes": ["w", "s2", "r", "d"],
        "links": [["w", "r"], ["s2", "r"], ["r", "d"]],
        "interference": [["s2", "w", 0.1]],
        "behaviors": {
            "w": {"role": "honest", "check_probability": 1.0},
            "r": {"role": "adversarial", "p_adv": 0.5},
        },
        "schedule": [["w", "s2"], ["r"]] * 2,
    }
    tpath = tmp_path / "topo.json"
    tpath.write_text(json.dumps(topo))
    out = tmp_path / "run.json"
    assert main(["multihop", "--topology", str(tpath), "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["policed_pairs"] == {}
    assert summary["unpoliced"] == {"w->r": "w has no overhearing edge from r"}


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["unknown-command"]) == 1
    assert main(["two-hop", "--config", str(tmp_path / "missing.ini"),
                 "--out", str(tmp_path / "o.csv")]) == 1
    bad = tmp_path / "bad.ini"
    for text in ("n = 6\n", "[two-hop]\nn = 6\nn = 7\n"):  # no section header; a duplicate key
        bad.write_text(text)
        capsys.readouterr()
        assert main(["two-hop", "--config", str(bad), "--out", str(tmp_path / "o.csv")]) == 1
        assert str(bad) in capsys.readouterr().err
    for values in ("", ","):
        assert main(["two-hop", "--values", values, "--out", str(tmp_path / "o.csv")]) == 1
    assert not (tmp_path / "o.csv").exists()


_GHOST_BASE = {"nodes": ["a", "b"], "links": [["a", "b"]], "schedule": [["a"], ["b"]]}


@pytest.mark.parametrize("change, field", [
    ({"schedule": [["a"], ["zzz"]]}, "schedule[1]"),
    ({"behaviors": {"ghost": {"role": "adversarial", "p_adv": 0.9}}}, "behaviors"),
    ({"behaviors": {"a": {"role": "honest", "p_adv": 0.9}}}, "behaviors.a.p_adv"),
    ({"source_symbols": {"ghost": 3}}, "source_symbols"),
    ({"nodes": None}, "nodes"),
    ({"links": None}, "links"),
    ({"schedule": None}, "schedule"),
    ({"nodes": [["x"]]}, "nodes"),
    ({"links": [["a"]]}, "links"),
    ({"interference": [["b", "a"]]}, "interference"),
    ({"schedule": "ab"}, "schedule"),
    ({"behaviours": {"b": {"role": "adversarial"}}}, "behaviours"),
    ({"behaviors": {"b": {"role": "adversarial", "p_adversary": 0.9}}}, "behaviors.b"),
    ({"behaviors": {"b": {"role": "adversarial", "p_adv": "high"}}}, "behaviors.b"),
    ({"behaviors": {"b": "adversarial"}}, "behaviors"),
    ({"source_symbols": {"a": "x"}}, "source_symbols"),
    ({"interference": [["b", "a", 0.9]]}, "interference[0]"),
    ({"source_symbols": {"a": 5000}}, "source_symbols.a"),
    ({"links": [["a", "zz"]]}, "links[0]"),
    ({"interference": [["b", "yy", 0.1]]}, "interference[0]"),
    ({"interference": [["b", "a", 0.1], ["b", "a", 0.4]]}, "interference[1]"),
    ({"source_symbols": {"b": 3}}, "source_symbols.b"),
    ({"source_symbols": {"a": True}}, "source_symbols"),
    ({"behaviors": {"b": {"role": "adversarial", "p_adv": True}}}, "behaviors.b.p_adv"),
    ({"schedule": [["b"], ["a"]]}, "schedule[0]"),
])
def test_multihop_topology_rejects_bad_document(tmp_path, capsys, change, field):
    doc = {k: v for k, v in {**_GHOST_BASE, **change}.items() if v is not None}
    tpath = tmp_path / "topo.json"
    tpath.write_text(json.dumps(doc))
    assert main(["multihop", "--topology", str(tpath),
                 "--out", str(tmp_path / "run.json")]) == 1
    assert f"'{field}'" in capsys.readouterr().err
    assert not (tmp_path / "run.json").exists()


_ENTRY_BASE = {
    "nodes": ["w", "a", "b"], "links": [["w", "a"], ["a", "b"]], "schedule": [["w"], ["a"]],
}


@pytest.mark.parametrize("change, entry", [
    ({"source_symbols": {"w": 1, "x": True}}, "source_symbols.x"),
    ({"source_symbols": {"w": "1"}}, "source_symbols.w"),
    ({"interference": [["b", "a", 0.1], ["a", "b", False]]}, "interference[1]"),
    ({"interference": [["b", "a", 0.1], ["a", "b"]]}, "interference[1]"),
    ({"links": [["w", "a"], ["a", "b"], ["b"]]}, "links[2]"),
    ({"links": [["w", "a"], ["a", 7]]}, "links[1]"),
    ({"schedule": [["w"], "a"]}, "schedule[1]"),
    ({"schedule": [["w"], ["a", None]]}, "schedule[1]"),
    ({"nodes": ["w", "a", "b", 3]}, "nodes[3]"),
    ({"nodes": ["w", False, "b"]}, "nodes[1]"),
    ({"behaviors": {"a": {"role": "honest"}, "b": []}}, "behaviors.b"),
], ids=["symbol-boolean", "symbol-string", "rate-boolean", "pair-not-triple", "link-short",
        "link-number", "round-not-list", "round-null", "node-number", "node-boolean",
        "behavior-list"])
def test_multihop_topology_names_the_first_bad_entry(tmp_path, capsys, change, entry):
    tpath = tmp_path / "topo.json"
    tpath.write_text(json.dumps({**_ENTRY_BASE, **change}))
    assert main(["multihop", "--topology", str(tpath),
                 "--out", str(tmp_path / "run.json")]) == 1
    assert f"error: topology field '{entry}' " in capsys.readouterr().err
    assert not (tmp_path / "run.json").exists()


def test_summaries_echo_versions(tmp_path):
    topo = tmp_path / "topo.json"
    topo.write_text(json.dumps(_GHOST_BASE))
    runs = {
        "two-hop": ["--values", "0.1", "--n", "6", "--iterations", "2", "--workers", "1"],
        "oracle": ["--trials", "2"],
        "multihop": ["--topology", str(topo)],
    }
    expect = {
        "algwatch": algwatch.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    for command, flags in runs.items():
        summary = tmp_path / f"{command}.json"
        out = summary if command == "multihop" else tmp_path / f"{command}.csv"
        assert main([command, *flags, "--out", str(out)]) == 0
        assert json.loads(summary.read_text())["versions"] == expect
    header = _read_csv(tmp_path / "two-hop.csv")[0]
    assert header == cli.TWO_HOP_COLUMNS


def test_internal_fault_exits_two(tmp_path, monkeypatch, capsys):
    def broken(args):
        raise KeyError("lookup bug")

    monkeypatch.setitem(cli._COMMANDS, "analysis", broken)
    assert main(["analysis", "--out", str(tmp_path / "a.csv")]) == 2
    assert "lookup bug" in capsys.readouterr().err


def _flag_values(flag_values: dict):
    """Some of the given flags, each with one of its values; a value of None omits the flag."""
    return st.fixed_dictionaries({}, optional={
        flag: st.sampled_from(values) for flag, values in flag_values.items()
    })


_RATE_VALUES = ["-1", "0", "0.1", "0.5", "0.7"]
_FUZZ_FLAGS = {
    "two-hop": {
        "--sweep": ["p_adv", "delta", "p_s", "m"],
        "--values": ["0,0.1", "0.3,0.1", "1,2", "0,9", "x", ","],
        "--m": ["-1", "0", "1", "3"],
        "--n": ["-1", "0", "1", "4", "8"],
        "--delta": ["-1", "0", "2", "9"],
        "--p-s": _RATE_VALUES,
        "--p-relay": _RATE_VALUES,
        "--p-adv": ["-0.5", "0", "0.3", "1", "1.5"],
        "--iterations": ["-1", "0", "1", "8"],
        "--pruning-eps": ["-1", "0", "0.5", "1", "2"],
        "--hash-family": ["affine", "poly"],
        "--workers": ["-1", "0", "1"],
        "--seed": ["-1", "0", "7"],
    },
    "oracle": {
        "--n": ["-1", "0", "3", "6", "8"],
        "--m": ["0", "1", "3"],
        "--delta": ["-1", "0", "1", "7"],
        "--p": _RATE_VALUES,
        "--trials": ["-1", "0", "1", "3"],
        "--seed": ["-1", "0", "7"],
    },
    "analysis": {
        "--table": ["misdetection", "matched-count"],
        "--n": ["-1", "0", "1", "10"],
        "--h": ["-1", "0", "2", "12"],
        "--m": ["-1", "0", "3"],
        "--p": _RATE_VALUES,
        "--deltas": ["0,2", ",", "x", "1", "-1"],
        "--seed": ["-1", "0"],
    },
    "multihop": {
        "--scenario": ["all-parents-malicious", "all-children-malicious", None],
        "--threshold": ["-1", "0.005", "2"],
        "--window": ["-1", "0", "2"],
        "--n": ["-1", "0", "4", "10", "17"],
        "--delta": ["-1", "0", "2", "5"],
        "--trace": ["trace.jsonl"],
        "--seed": ["-1", "0", "7"],
    },
}
_SMALL_TOPOLOGY = {
    "nodes": ["w", "s2", "r", "d"],
    "links": [["w", "r"], ["s2", "r"], ["r", "d"]],
    "interference": [["s2", "w", 0.1], ["r", "w", 0.1]],
    "behaviors": {"w": {"role": "honest", "check_probability": 1.0}},
    "schedule": [["s2", "w"], ["r"]],
}


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(_FUZZ_FLAGS)).flatmap(
    lambda command: st.tuples(st.just(command), _flag_values(_FUZZ_FLAGS[command]))
))
@example(run=("analysis", {"--table": "matched-count", "--deltas": "-400"}))
@example(run=("analysis", {"--table": "matched-count", "--n": "2000", "--p": "0.5"}))
@example(run=("analysis", {"--table": "matched-count", "--deltas": "-1"}))
@example(run=("analysis", {"--table": "misdetection", "--n": "1100"}))
@example(run=("oracle", {"--n": "6", "--delta": "0", "--m": "5", "--trials": "1"}))
@example(run=("analysis", {"--table": "matched-count", "--n": "0"}))
def test_cli_fuzz_exits_zero_or_one_naming_a_flag(tmp_path, capsys, run):
    """Small runs over every subcommand's flags: exit 0, or exit 1 naming a flag given."""
    command, drawn = run
    flags = {flag: value for flag, value in drawn.items() if value is not None}
    # small runs only: at most 8 two-hop iterations at n <= 8, 3 oracle trials
    if command == "two-hop":
        flags = {"--iterations": "8", "--workers": "1", **flags}
    if command == "oracle":
        flags = {"--trials": "3", **flags}
    if command == "multihop" and "--scenario" not in flags:
        (tmp_path / "topo.json").write_text(json.dumps(_SMALL_TOPOLOGY))
        flags["--topology"] = str(tmp_path / "topo.json")
    if "--trace" in flags:
        flags["--trace"] = str(tmp_path / flags["--trace"])
    argv = [command, *(token for item in flags.items() for token in item)]
    code = main([*argv, "--out", str(tmp_path / "fuzz.csv")])
    err = capsys.readouterr().err
    assert code in (0, 1), err
    if code == 1:
        # a field is named as its flag's dest or spelling; swept values name the axis
        names = {flag[2:] for flag in flags} | {flag[2:].replace("-", "_") for flag in flags}
        if command == "two-hop":
            names.add(flags.get("--sweep", "p_adv"))
        assert any(re.search(rf"(?<!\w){re.escape(name)}(?!\w)", err) for name in names), (
            argv, err,
        )

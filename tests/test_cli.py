import csv
import json

import pytest

from algwatch import cli
from algwatch.cli import main


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


def test_two_hop_rejects_bad_values(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["two-hop", "--values", "0.3,0.1", "--iterations", "2",
                 "--n", "6", "--delta", "1", "--workers", "1", "--out", str(out)]) == 1
    assert main(["two-hop", "--sweep", "bogus", "--out", str(out)]) == 1


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


def test_oracle_subcommand(tmp_path):
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--n", "4", "--trials", "25", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert float(rows[1][-1]) <= 1e-9
    assert main(["oracle", "--n", "8", "--out", str(tmp_path / "y.csv")]) == 1


def test_multihop_scenario_subcommand(tmp_path):
    out = tmp_path / "scenario.json"
    assert main(["multihop", "--scenario", "all-parents-malicious",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert report["corrupted_delivered"] and not report["detected"]
    assert main(["multihop", "--out", str(out)]) == 1  # neither scenario nor topology


def test_multihop_topology_subcommand(tmp_path):
    topo = {
        "nodes": ["w", "s2", "r", "d"],
        "links": [["w", "r"], ["s2", "r"], ["r", "d"]],
        "interference": [["s2", "w", 0.1], ["r", "w", 0.1]],
        "behaviors": {
            "w": {"role": "honest", "check_probability": 1.0},
            "r": {"role": "adversarial", "p_adv": 0.5},
        },
        "schedule": [["s2", "w"], ["r"]] * 3,
    }
    tpath = tmp_path / "topo.json"
    tpath.write_text(json.dumps(topo))
    out = tmp_path / "run.json"
    trace = tmp_path / "trace.jsonl"
    assert main(["multihop", "--topology", str(tpath), "--trace", str(trace),
                 "--window", "2", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["policed_pairs"] == {"w->r": 3}
    assert trace.exists() and len(trace.read_text().splitlines()) == 9


def test_usage_errors_exit_one(tmp_path):
    assert main(["unknown-command"]) == 1
    assert main(["two-hop", "--config", str(tmp_path / "missing.ini"),
                 "--out", str(tmp_path / "o.csv")]) == 1


_GHOST_BASE = {"nodes": ["a", "b"], "links": [["a", "b"]], "schedule": [["a"], ["b"]]}


@pytest.mark.parametrize("change, field", [
    ({"schedule": [["a"], ["zzz"]]}, "schedule[1]"),
    ({"behaviors": {"ghost": {"role": "adversarial", "p_adv": 0.9}}}, "behaviors"),
    ({"behaviors": {"a": {"role": "honest", "p_adv": 0.9}}}, "behaviors.a.p_adv"),
    ({"source_symbols": {"ghost": 3}}, "source_symbols"),
    ({"nodes": None}, "nodes"),
    ({"links": None}, "links"),
    ({"schedule": None}, "schedule"),
])
def test_multihop_topology_rejects_bad_document(tmp_path, capsys, change, field):
    doc = {k: v for k, v in {**_GHOST_BASE, **change}.items() if v is not None}
    tpath = tmp_path / "topo.json"
    tpath.write_text(json.dumps(doc))
    assert main(["multihop", "--topology", str(tpath),
                 "--out", str(tmp_path / "run.json")]) == 1
    assert f"'{field}'" in capsys.readouterr().err
    assert not (tmp_path / "run.json").exists()


def test_internal_fault_exits_two(tmp_path, monkeypatch, capsys):
    def broken(args):
        raise KeyError("lookup bug")

    monkeypatch.setitem(cli._COMMANDS, "analysis", broken)
    assert main(["analysis", "--out", str(tmp_path / "a.csv")]) == 2
    assert "lookup bug" in capsys.readouterr().err

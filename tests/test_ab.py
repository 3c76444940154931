"""The verdict rule and the footprint pairs of tools/ab.py, pinned on synthetic runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py"
)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

TIGHT = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]  # IQR/median 1.5%
WIDE = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]  # IQR/median 40%


def _mirror(runs):
    """The same runs as a higher-is-better metric reads them."""
    return [2.0 - v for v in runs]


@pytest.mark.parametrize("better", ["lower", "higher"])
@pytest.mark.parametrize("parent, change, verdict", [
    (TIGHT, [v * 1.05 for v in TIGHT], "within"),  # 5% worse, bound 25%
    (TIGHT, [v * 1.5 for v in TIGHT], "beyond"),  # 50% worse
    (TIGHT, [v * 0.9 for v in TIGHT], "within"),  # better
    (WIDE, [v * 1.05 for v in WIDE], "unresolved"),  # the parent's own spread is past the bound
    (WIDE, [v * 0.5 for v in WIDE], "unresolved"),  # better in the median, not in every run
    (WIDE, [0.5] * 10, "within"),  # every run better than every parent run: resolved
], ids=["within", "beyond", "better", "unresolved", "unresolved-better", "every-run-better"])
def test_verdict_rule(better, parent, change, verdict):
    if better == "higher":
        parent, change = _mirror(parent), _mirror(change)
    got = ab._verdict(parent, change, better, 0.25)
    assert got["verdict"] == verdict
    spread = (got["parent"]["q3"] - got["parent"]["q1"]) / got["parent"]["median"]
    assert got["parent_iqr_relative"] == spread


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_pairs_and_sign_test(better):
    parent = [1.0] * 10
    change = [0.9] * 7 + [1.0] * 2 + [1.1]  # 7 better, 2 ties dropped, 1 worse
    if better == "higher":
        parent, change = _mirror(parent), _mirror(change)
    got = ab._verdict(parent, change, better, 0.25)
    assert got["change_better_in_pairs"] == "7/10"
    assert got["sign_test_p"] == pytest.approx(2 * (1 + 8) / 2**8)  # 7 of 8, two-sided


def test_sign_test_p_values():
    assert ab._sign_test(10, 0) == 2 / 2**10
    assert ab._sign_test(0, 10) == 2 / 2**10
    assert ab._sign_test(5, 5) == 1.0
    assert ab._sign_test(0, 0) == 1.0  # every pair tied
    assert ab._sign_test(9, 1) == pytest.approx(2 * 11 / 1024)


def test_footprint_alternates_probes_and_reads_each_probes_own_peak(monkeypatch):
    root = Path(__file__).resolve().parents[1]
    bench = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    calls = []

    def probe(at, workload, workdir):
        side = "change" if at == root else "parent"
        calls.append(side)
        return (30.0 if side == "change" else 31.0), 0.2, {"workload": workload}

    monkeypatch.setattr(ab, "ROOT", root)
    monkeypatch.setattr(ab, "_export", lambda rev, into: into)
    monkeypatch.setattr(ab, "_probe", probe)
    got = ab.footprint("HEAD", 3)
    # pair k runs the parent's probes first when k is even, every workload in turn
    assert calls[::len(workloads)] == ["parent", "change", "change", "parent", "parent", "change"]
    assert got["outputs_differ"] == [] and got["pairs"] == 3
    for w in workloads:
        peak, wall = got["metrics"][f"{w}.peak_rss_mb"], got["metrics"][f"{w}.probe_s"]
        assert peak["change_better_in_pairs"] == "3/3" and peak["bound"] == bounds["peak_rss_mb"]
        assert wall["change_better_in_pairs"] == "0/3" and wall["bound"] == bounds["setup_s"]
    assert len(got["metrics"]) == 2 * len(workloads)


@pytest.mark.parametrize("mode", ["process", "footprint"])
def test_a_single_pair_is_refused_by_name(mode, capsys):
    with pytest.raises(SystemExit) as exit_:
        ab.main([mode, "--parent", "HEAD", "--pairs", "1"])
    assert exit_.value.code == 2 and "--pairs must be at least 2" in capsys.readouterr().err

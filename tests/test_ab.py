"""tools/ab.py on synthetic runs: the verdict rule, the shared head, every mode's pairs; and
the in-process calls against the benchmark's own workload calls."""

import importlib.util
import json
import subprocess
import sys
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
        side = at.name  # each side's export is named for it
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


ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
# each reading's metric, by the last dotted part of its name, and the bound it is judged by
JUDGED_BY = {"wall_s": "wall_s", "setup_s": "setup_s", "peak_rss_mb": "peak_rss_mb",
             "probe_s": "setup_s", "s": "wall_s"}
VERDICT_FIELDS = set(ab._verdict([1.0, 2.0], [1.0, 2.0], "lower", 0.25))


@pytest.fixture
def trees(monkeypatch):
    """Every mode's measurement faked; returns the (side, ...) of each call, in order.

    The working tree reads half the parent's value on every end-to-end metric and probe.
    Each side's root is its export, named for the side, and never the checkout itself.
    """
    calls = []

    def side(at):
        assert at != ROOT and at.name in ("parent", "change")
        return at.name

    def run(at, workload, seconds):
        calls.append((side(at), workload))
        value = 1.0 if side(at) == "change" else 2.0
        return {"failed": int(side(at) == "parent"),
                "metrics": {m: {"value": value} for m in BOUNDS}}

    def probe(at, workload, workdir):
        calls.append((side(at), workload))
        return (1.0, 0.1, {}) if side(at) == "change" else (2.0, 0.2, {})

    def call(aw, what, policed):
        def timed(seed):
            calls.append((aw, seed))
            return seed
        return timed

    def export(rev, into):
        calls.append(("export", rev))
        return into

    monkeypatch.setattr(ab, "ROOT", ROOT)
    for name, fake in (("_export", export), ("_run", run), ("_probe", probe),
                       ("_load", lambda name, root: side(root)), ("_call", call)):
        monkeypatch.setattr(ab, name, fake)
    return calls


MODES = {
    "process": (lambda: ab.process("HEAD", 4, 5.0), ["seconds", "failed_calls"]),
    "footprint": (lambda: ab.footprint("HEAD", 4), ["outputs_differ"]),
    "inprocess": (lambda: ab.inprocess("HEAD", 4, "calibrate"), ["call"]),
}


@pytest.mark.parametrize("mode", MODES)
def test_every_mode_prints_the_shared_head_and_judges_each_reading(mode, trees):
    run, extras = MODES[mode]
    got = run()
    # both sides are exported first: the parent's tree, then the working tree's files
    assert trees[:2] == [("export", "HEAD"), ("export", None)]
    del trees[:2]
    assert list(got) == ["mode", "parent", "pairs", "seed", *extras, "metrics"]
    assert (got["mode"], got["parent"], got["pairs"]) == (mode, "HEAD", 4)
    assert got["metrics"]
    for name, reading in got["metrics"].items():
        assert set(reading) == VERDICT_FIELDS  # _verdict's output, nothing else
        assert reading["bound"] == BOUNDS[JUDGED_BY[name.rpartition(".")[2]]]
        assert len(reading["runs"]["parent"]) == len(reading["runs"]["change"]) == 4


def test_process_alternates_runs_and_judges_every_end_to_end_metric(trees):
    got = ab.process("HEAD", 4, 5.0)
    del trees[:2]  # the two exports
    # pair k runs the parent's workloads first when k is even, every workload in turn
    sides = [side for side, _ in trees]
    assert sides[::len(WORKLOADS)] == ["parent", "change", "change", "parent"] * 2
    assert [w for _, w in trees[:len(WORKLOADS)]] == WORKLOADS
    assert got["seed"] == ab.SEED and got["seconds"] == 5.0
    assert got["failed_calls"] == {"parent": 4 * len(WORKLOADS), "change": 0}
    assert list(got["metrics"]) == [f"{w}.{m}" for w in WORKLOADS for m in BOUNDS]
    for reading in got["metrics"].values():
        assert reading["change_better_in_pairs"] == "4/4" and reading["median_pair_ratio"] == 0.5
        assert reading["verdict"] == "within"


def test_inprocess_checks_both_trees_then_alternates_seeded_calls(trees):
    got = ab.inprocess("HEAD", 4, "calibrate")
    del trees[:2]  # the two exports
    warm = [("parent", 1), ("change", 1), ("parent", 2), ("change", 2)]
    # pair k calls seed k + 3, the parent first when k is even
    pairs = [("parent", 3), ("change", 3), ("change", 4), ("parent", 4),
             ("parent", 5), ("change", 5), ("change", 6), ("parent", 6)]
    assert trees == warm + pairs
    assert got["call"] == "calibrate" and got["seed"] == ab.SEED
    assert list(got["metrics"]) == ["calibrate.s"]
    assert got["metrics"]["calibrate.s"]["bound"] == BOUNDS["wall_s"]


def test_inprocess_refuses_a_single_pair_by_name(capsys):
    with pytest.raises(SystemExit) as exit_:
        ab.main(["inprocess", "--parent", "HEAD", "--pairs", "1", "--call", "pair"])
    assert exit_.value.code == 2 and "--pairs must be at least 2" in capsys.readouterr().err


def test_the_working_tree_export_copies_tracked_and_untracked_files_not_ignored(tmp_path,
                                                                                 monkeypatch):
    """A working-tree export holds each tracked file as edited, each untracked one that is not
    ignored, and no ignored or deleted file; ``_trees`` roots both sides outside the checkout."""
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(repo)]
    for name, text in (("src/kept.py", "old"), ("gone.py", "x"), (".gitignore", "*.log\n")):
        (repo / name).write_text(text)
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-qm", "base"], check=True)
    (repo / "src" / "kept.py").write_text("new")
    (repo / "gone.py").unlink()
    (repo / "src" / "added.py").write_text("added")
    (repo / "run.log").write_text("ignored")
    monkeypatch.setattr(ab, "ROOT", repo)
    out = tmp_path / "out"
    out.mkdir()
    roots = ab._trees("HEAD", str(out))
    assert roots == {"parent": out / "parent", "change": out / "change"}

    def files(root):
        return {str(p.relative_to(root)): p.read_text() for p in root.rglob("*") if p.is_file()}

    assert files(roots["parent"]) == {"src/kept.py": "old", "gone.py": "x", ".gitignore": "*.log\n"}
    assert files(roots["change"]) == {"src/kept.py": "new", "src/added.py": "added",
                                      ".gitignore": "*.log\n"}


@pytest.mark.parametrize("what", ["padv", "count", "sweep"])
def test_inprocess_offers_the_workload_calls(what, capsys):
    # a single pair is refused after the call is parsed: an unknown call would fail first
    with pytest.raises(SystemExit) as exit_:
        ab.main(["inprocess", "--parent", "HEAD", "--pairs", "1", "--call", what])
    assert exit_.value.code == 2 and "--pairs must be at least 2" in capsys.readouterr().err


@pytest.fixture(scope="module")
def loaded():
    """The working tree's algwatch, imported by ``_load`` under a second name, cli included."""
    name = "algwatch_ab_loaded"
    yield ab._load(name, ROOT)
    for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[module]


def _workloads(monkeypatch):
    """perfbench/workloads.py, loaded from its file (its dataclasses read sys.modules)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("what, workload", [("padv", "padv-sweep"), ("count", "matched-count")])
def test_padv_and_count_make_their_workloads_calls(what, workload, loaded, tmp_path, capsys,
                                                   monkeypatch):
    assert loaded.cli.__name__ == "algwatch_ab_loaded.cli"
    got = ab._call(loaded, what, [])(3)
    expect = _workloads(monkeypatch).WORKLOADS[workload].call(3, str(tmp_path))
    assert got == ((0, expect.encode()) if what == "padv" else expect)
    assert capsys.readouterr().out == ""  # the CLI's own line is not printed

import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algwatch import inference, multihop
from algwatch.channel import Bsc
from algwatch.hashing import HashSpec, hash_eval, sample_hash
from algwatch.inference import (
    InferenceError,
    Overheard,
    Verdict,
    WatchdogObservation,
    build_and_run_trellis,
    consistency_probability,
)
from algwatch.multihop import (
    Hypergraph,
    NodeBehavior,
    Transmission,
    TrustLedger,
    build_observation,
    can_police,
    load_topology,
    mincut_scenario,
    police,
    run_protocol,
    run_round,
    unpoliced_pairs,
    write_trace,
)
from algwatch.packet import destination_check, make_packet
from algwatch.sim import collect_diagnostics

SPEC = HashSpec("affine", 10, 2, (1, 0))


def _chain():
    return Hypergraph(
        nodes=frozenset({"s", "r", "d"}),
        links=frozenset({("s", "r"), ("r", "d")}),
        interference={("r", "s"): 0.1},
    )


def _star(p=0.1):
    return Hypergraph(
        nodes=frozenset({"w", "s2", "s3", "r", "d"}),
        links=frozenset({("w", "r"), ("s2", "r"), ("s3", "r"), ("r", "d")}),
        interference={("s2", "w"): p, ("s3", "w"): p, ("r", "w"): p},
    )


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph(frozenset({"a"}), frozenset({("a", "b")}), {})
    with pytest.raises(ValueError):
        Hypergraph(frozenset({"a", "b"}), frozenset(), {("a", "b"): 0.9})
    with pytest.raises(ValueError, match=r"^interference edge \(a, c\) references undeclared"):
        Hypergraph(frozenset({"a", "b"}), frozenset({("a", "b")}), {("a", "c"): 0.1})
    g = _chain()
    assert g.parents("r") == {"s"} and g.children("r") == {"d"}
    with pytest.raises(ValueError):
        g.overhearing_rate("s", "d")


def test_chain_forwarding_delivers_source_symbol():
    g = _chain()
    inbox = {}
    rng = np.random.default_rng(0)
    behaviors = {}
    t1 = run_round(g, behaviors, ["s"], inbox, SPEC, rng, 0, {"s": 123})
    t2 = run_round(g, behaviors, ["r"], inbox, SPEC, rng, 1)
    assert t1[0].packet.payload == 123
    assert t2[0].packet.payload == 123  # single input forwards with coefficient 1
    assert t2[0].delivered == {"d": 123}
    assert destination_check(t2[0].packet, SPEC)


@pytest.mark.parametrize("make, message", [
    (lambda: NodeBehavior(role="bystander"), "^unknown role 'bystander'$"),
    (lambda: NodeBehavior(check_probability=1.5), "^check_probability must be in"),
    (lambda: NodeBehavior(check_probability=-0.1), "^check_probability must be in"),
    (lambda: NodeBehavior(p_adv=2.0), "^p_adv must be in"),
    (lambda: TrustLedger(1.5, 25), "^threshold must be in"),
    (lambda: TrustLedger(0.5, 0), "^window must be >= 1$"),
], ids=["role", "check-above-1", "check-below-0", "p-adv", "threshold", "window"])
def test_bad_protocol_fields_are_named(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_scheduled_node_without_inputs_is_an_error():
    g = _chain()
    inbox = {}
    with pytest.raises(ValueError):
        run_round(g, {}, ["r"], inbox, SPEC, np.random.default_rng(0), 0)


def test_round_is_deterministic():
    g = _star()
    def transcript():
        inbox = {}
        rng = np.random.default_rng(77)
        evs = run_round(g, {}, ["w", "s2", "s3"], inbox, SPEC, rng, 0)
        evs += run_round(g, {}, ["r"], inbox, SPEC, rng, 1)
        return [(e.sender, e.packet.payload, tuple(sorted(e.overheard.items()))) for e in evs]

    assert transcript() == transcript()


def test_adversarial_transmissions_recorded_by_listeners():
    g = _star()
    behaviors = {"r": NodeBehavior("adversarial", p_adv=0.5)}
    inbox = {}
    rng = np.random.default_rng(5)
    evs = run_round(g, behaviors, ["w", "s2", "s3"], inbox, SPEC, rng, 0)
    evs += run_round(g, behaviors, ["r"], inbox, SPEC, rng, 1)
    relay_tx = evs[-1]
    assert relay_tx.sender == "r"
    assert "w" in relay_tx.overheard  # the watcher heard the corrupted packet
    assert destination_check(relay_tx.packet, SPEC)  # hash kept consistent


def test_build_observation_uses_only_overheard_data():
    g = _star()
    inbox = {}
    rng = np.random.default_rng(8)
    transcript = run_round(g, {}, ["w", "s2", "s3"], inbox, SPEC, rng, 0)
    transcript += run_round(g, {}, ["r"], inbox, SPEC, rng, 1)
    obs = build_observation("w", "r", transcript, g, SPEC)
    by_sender = {e.sender: e for e in transcript}
    assert obs.own_symbol == by_sender["w"].packet.payload
    assert obs.relay_overheard.symbol == by_sender["r"].overheard["w"]
    assert obs.relay_overheard.hash_value == by_sender["r"].packet.own_hash
    # peer hash fields come from the peers' packet headers
    assert {p.hash_value for p in obs.overheard} == {
        by_sender["s2"].packet.own_hash, by_sender["s3"].packet.own_hash
    }
    # coefficient order: watcher's own first
    assert obs.coeffs[0] == by_sender["r"].packet.coeffs["w"]


def test_build_observation_names_a_watcher_that_never_transmitted():
    # a hand-built transcript: w is an input of r's transmission and overheard it, but the
    # transcript holds no transmission of w's before it (run_round always sends inputs first)
    inputs = {"w": 3, "s2": 5, "s3": 9}
    packet = make_packet(inputs, {"w": 1, "s2": 2, "s3": 3}, SPEC)
    relay = Transmission(1, "r", packet, {"d": packet.payload}, {"w": packet.payload})
    peers = [Transmission(0, u, make_packet({u: x}, {u: 1}, SPEC), {"r": x}, {"w": x})
             for u, x in inputs.items() if u != "w"]
    with pytest.raises(ValueError, match="^w transmitted nothing for r to combine$"):
        build_observation("w", "r", [*peers, relay], _star(), SPEC)


def test_police_requires_overhearing_edges():
    g = Hypergraph(
        nodes=frozenset({"w", "s2", "r", "d"}),
        links=frozenset({("w", "r"), ("s2", "r"), ("r", "d")}),
        interference={("r", "w"): 0.1},  # no edge from s2 to w
    )
    inbox = {}
    rng = np.random.default_rng(3)
    transcript = run_round(g, {}, ["w", "s2"], inbox, SPEC, rng, 0)
    transcript += run_round(g, {}, ["r"], inbox, SPEC, rng, 1)
    assert not can_police("w", "r", transcript, g)
    ledger = TrustLedger(0.01)
    with pytest.raises(ValueError):
        police("w", "r", transcript, g, SPEC, ledger)


@st.composite
def _networks(draw, rate=st.sampled_from([0.1, 0.0])):
    """A small all-honest DAG with some interference edges of one rate, and a schedule of rounds."""
    names = [f"n{i}" for i in range(draw(st.integers(3, 6)))]
    pairs = [(u, v) for u in names for v in names if u != v]
    links = draw(st.sets(st.sampled_from([(u, v) for u, v in pairs if u < v])))
    heard = draw(st.sets(st.sampled_from(pairs)))
    g = Hypergraph(frozenset(names), frozenset(links), dict.fromkeys(heard, draw(rate)))
    rounds = draw(st.lists(st.sets(st.sampled_from(names), min_size=1), min_size=1, max_size=6))
    return g, rounds, draw(st.integers(0, 2**16))


def _transcripts(g, rounds, seed):
    """Run rounds with every node honest; yield the transcript after each one.

    A relay transmits only what it has received, maybe earlier in its round.
    """
    inbox = {}
    rng = np.random.default_rng(seed)
    transcript = []
    for i, wanted in enumerate(rounds):
        pending = {v for v, inputs in inbox.items() if inputs}
        transmitters = []
        for v in sorted(wanted):
            if not g.parents(v) or v in pending:
                transmitters.append(v)
                pending = (pending - {v}) | g.children(v)
        transcript += run_round(g, {}, transmitters, inbox, SPEC, rng, i)
        yield transcript


@settings(max_examples=150, deadline=None)
@given(_networks())
def test_can_police_iff_build_observation_succeeds(network):
    g, rounds, seed = network
    for transcript in _transcripts(g, rounds, seed):
        for watcher in sorted(g.nodes):
            for watched in sorted(g.nodes - {watcher}):
                try:
                    build_observation(watcher, watched, transcript, g, SPEC)
                    built = True
                except ValueError:
                    built = False
                assert can_police(watcher, watched, transcript, g) == built


@settings(max_examples=150, deadline=None)
@given(_networks(rate=st.just(0.0)))
def test_noiseless_honest_networks_score_one(network):
    # exact overhearing of honest nodes: the watcher infers what the relay coded,
    # also when the relay transmits in the same round as its inputs
    g, rounds, seed = network
    for transcript in _transcripts(g, rounds, seed):
        for watcher in sorted(g.nodes):
            for watched in sorted(g.nodes - {watcher}):
                if can_police(watcher, watched, transcript, g):
                    obs = build_observation(watcher, watched, transcript, g, SPEC)
                    assert consistency_probability(build_and_run_trellis(obs), obs) == 1.0


def test_a_relay_in_its_inputs_round_is_policed_on_what_it_coded():
    # r codes a's and b's packets of its own round, which run_round delivers first
    g = Hypergraph(
        nodes=frozenset({"a", "b", "r", "d"}),
        links=frozenset({("a", "r"), ("b", "r"), ("r", "d")}),
        interference={("b", "a"): 0.0, ("r", "a"): 0.0},
    )
    behaviors = {"a": NodeBehavior(check_probability=1.0)}
    ledger = TrustLedger(0.01, window=5)
    transcript = run_protocol(g, behaviors, [["a", "b"], ["a", "b", "r"]] * 20, SPEC, 0, ledger)
    assert ledger.samples("a", "r") == [1.0] * 20
    assert ledger.verdict("a", "r") is Verdict.WELL_BEHAVING
    assert multihop._injector_outcome(transcript, "r", SPEC) == (False, True)


def test_police_appends_samples():
    g = _star()
    inbox = {}
    rng = np.random.default_rng(4)
    transcript = run_round(g, {}, ["w", "s2", "s3"], inbox, SPEC, rng, 0)
    transcript += run_round(g, {}, ["r"], inbox, SPEC, rng, 1)
    ledger = TrustLedger(0.01, window=2)
    police("w", "r", transcript, g, SPEC, ledger)
    samples = ledger.samples("w", "r")
    assert len(samples) == 1 and 0.0 <= samples[0] <= 1.0
    obs = build_observation("w", "r", transcript, g, SPEC)
    assert samples == [consistency_probability(build_and_run_trellis(obs), obs)]


@pytest.mark.parametrize("spec, peer, relay, message", [
    # a constant poly hash maps every symbol to 1: the peer's class of 2 is empty
    (HashSpec("poly", 4, 2, (1, 0)), Overheard(3, 2, Bsc(0.1)), Overheard(2, 1, Bsc(0.1)),
     "no candidate consistent with hash"),
    (HashSpec("poly", 4, 2, (1, 0)), Overheard(3, 1, Bsc(0.1)), Overheard(2, 2, Bsc(0.1)),
     "relay hash matches no symbol"),
    # 3 hashes to 3 under x & 3; a noiseless channel cannot have turned a 2 into it
    (HashSpec("affine", 4, 2, (1, 0)), Overheard(3, 3, Bsc(0.1)), Overheard(3, 2, Bsc(0.0)),
     "observation impossible under a noiseless relay channel"),
], ids=["empty-row", "empty-relay-class", "noiseless-relay"])
def test_police_raises_what_the_scoring_pipeline_raises(monkeypatch, spec, peer, relay, message):
    obs = WatchdogObservation(1, (1, 1), (peer,), relay, spec)
    with pytest.raises(InferenceError, match=f"^{message}$"):
        consistency_probability(build_and_run_trellis(obs), obs)
    monkeypatch.setattr(multihop, "build_observation", lambda *args: obs)
    ledger = TrustLedger(0.01)
    with pytest.raises(InferenceError, match=f"^{message}$"):
        police("w", "r", [], _star(), spec, ledger)
    assert ledger.samples("w", "r") == []


def test_ledger_verdicts():
    ledger = TrustLedger(0.5, window=3)
    assert ledger.verdict("a", "b") is Verdict.WELL_BEHAVING  # no evidence
    ledger.record("a", "b", 0.1)
    ledger.record("a", "b", 0.1)
    assert ledger.verdict("a", "b") is Verdict.WELL_BEHAVING  # window not full
    ledger.record("a", "b", 0.1)
    assert ledger.verdict("a", "b") is Verdict.MALICIOUS
    for _ in range(3):
        ledger.record("a", "b", 0.9)
    assert ledger.verdict("a", "b") is Verdict.WELL_BEHAVING  # rolling window moved on
    with pytest.raises(ValueError):
        TrustLedger(1.5)


def test_run_protocol_polices_per_schedule():
    g = _star()
    behaviors = {
        "w": NodeBehavior("honest", check_probability=1.0),
        "r": NodeBehavior("adversarial", p_adv=0.5),
    }
    ledger = TrustLedger(0.005, window=5)
    schedule = [["w", "s2", "s3"], ["r"]] * 6
    run_protocol(g, behaviors, schedule, SPEC, seed=2, ledger=ledger)
    assert len(ledger.samples("w", "r")) == 6
    assert ledger.pairs() == [("w", "r")]


def test_unpoliced_pairs_say_why():
    g = _star()
    schedule = [["w", "s2", "s3"], ["r"]] * 2
    # s2 checks but never feeds r's transmission through an overheard w edge;
    # w checks so rarely that it never does while r transmits
    behaviors = {
        "w": NodeBehavior("honest", check_probability=1e-12),
        "s2": NodeBehavior("honest", check_probability=1.0),
        "r": NodeBehavior("adversarial", p_adv=0.5),
    }
    ledger = TrustLedger(0.005, window=5)
    transcript = run_protocol(g, behaviors, schedule, SPEC, seed=2, ledger=ledger)
    assert ledger.pairs() == []
    assert unpoliced_pairs(g, behaviors, transcript, ledger) == {
        ("s2", "r"): "s2 has no overhearing edge from r",
        ("w", "r"): "w never checked while r transmitted",
    }
    # a policed pair is not listed, and a non-checking node is not asked
    behaviors["w"] = NodeBehavior("honest", check_probability=1.0)
    transcript = run_protocol(g, behaviors, schedule, SPEC, seed=2, ledger=ledger)
    assert unpoliced_pairs(g, behaviors, transcript, ledger) == {
        ("s2", "r"): "s2 has no overhearing edge from r",
    }


def test_scenario_one_honest_path_smoke():
    with collect_diagnostics() as diagnostics:
        report = mincut_scenario(
            "one-honest-path", seed=0, instances=4, policed_samples=40,
            calibration_iterations=800,
        )
    assert diagnostics.trials == 800  # the calibration's; policing is not a two-hop run
    assert report.honest_watcher_exists
    assert report.corrupted_delivered
    assert report.detection_frequency == pytest.approx(1.0)


def test_scenario_police_builds_only_the_classes_it_reads(monkeypatch):
    """Every trellis the scenario builds, for calibration or for a ``police`` call, ends in a
    last layer whose states all hash to a value its use announced: the class p* reads."""
    trellises, finals, polices = inference._trellises, [], []

    def recorded(h, announced=None):
        *got, passes = trellises(h, announced)
        passes = list(passes)  # runs the passes, which are handed on as they came
        finals.extend((h, announced, uses[t], s)
                      for uses, layers, _ in passes for t, s, _ in layers[-1:])
        return (*got, iter(passes))

    def policing(*args):
        polices.append(len(finals))
        return police(*args)

    monkeypatch.setattr(inference, "_trellises", recorded)
    monkeypatch.setattr(multihop, "police", policing)
    mincut_scenario("one-honest-path", instances=1, policed_samples=3, calibration_iterations=50)
    assert polices and len(finals) > polices[-1]  # the police calls built trellises too
    for h, announced, use, states in finals:
        assert announced is not None
        hashed = h.hashes.at(use, states)
        assert (hashed[:, None] == announced[use]).any(axis=1).all()


def test_scenario_all_parents_malicious():
    report = mincut_scenario("all-parents-malicious", seed=1)
    assert report.corrupted_delivered
    assert not report.honest_watcher_exists
    assert not report.detected
    assert report.details["destination_check_passes"]


def test_scenario_all_children_malicious():
    report = mincut_scenario("all-children-malicious", seed=1)
    assert report.corrupted_delivered
    assert not report.honest_watcher_exists  # injector's only parent is Byzantine
    assert not report.detected
    assert report.details["destination_check_passes"]
    assert report.details["injector"] == "c"


@pytest.mark.parametrize("kind, counts, message", [
    ("nonsense", {}, "unknown scenario 'nonsense'"),
    ("one-honest-path", {"instances": 0}, "instances must be >= 1, got 0"),
    ("one-honest-path", {"instances": -2}, "instances must be >= 1, got -2"),
    ("one-honest-path", {"policed_samples": -1}, "policed_samples must be >= 0, got -1"),
    ("one-honest-path", {"p_overhear": 0.6}, r"p_overhear must be in \[0, 0.5\], got 0.6"),
    ("all-parents-malicious", {"p_overhear": 0.6}, r"p_overhear must be in \[0, 0.5\], got 0.6"),
    ("all-children-malicious", {"p_overhear": -0.1}, r"p_overhear must be in \[0, 0.5\]"),
    ("one-honest-path", {"gamma": 0.0}, r"gamma must be in \(0, 1\), got 0.0"),
    ("one-honest-path", {"window": 60}, r"calibration_iterations must be >= window \(60\), got 50"),
    ("one-honest-path", {"p_adv": 1.5}, r"p_adv must be in \[0, 1\], got 1.5"),
    ("all-children-malicious", {"p_adv": -0.5}, r"p_adv must be in \[0, 1\], got -0.5"),
    ("one-honest-path", {"window": 0}, "^window must be >= 1, got 0$"),
    ("one-honest-path", {"calibration_iterations": 2**33},
     r"^calibration_iterations must be <= 2\^32, got 8589934592$"),
    ("one-honest-path", {"calibration_iterations": 0, "window": -1},
     "^window must be >= 1, got -1$"),
], ids=["kind", "instances-0", "instances-negative", "samples-negative", "p_overhear",
        "p_overhear-all-parents", "p_overhear-all-children", "gamma", "calibration_iterations",
        "p_adv", "p_adv-all-children", "window-0", "calibration_iterations-2^33",
        "window-negative"])
def test_scenario_rejects_unknown_kind(kind, counts, message):
    with pytest.raises(ValueError, match=message):
        mincut_scenario(kind, **{"calibration_iterations": 50, **counts})


def test_scenario_rejects_a_bad_p_adv_before_calibrating(monkeypatch):
    def calibrate(*args, **kwargs):
        raise AssertionError("calibrate_threshold ran before p_adv was checked")

    monkeypatch.setattr(multihop, "calibrate_threshold", calibrate)
    with pytest.raises(ValueError, match="^p_adv must be"):
        mincut_scenario("one-honest-path", p_adv=1.5)


def test_topology_round_trip(tmp_path):
    doc = {
        "nodes": ["a", "b", "c"],
        "links": [["a", "b"], ["b", "c"]],
        "interference": [["b", "a", 0.1]],
        "behaviors": {"b": {"role": "adversarial", "p_adv": 0.3, "check_probability": 0.0}},
        "schedule": [["a"], ["b"]],
        "source_symbols": {"a": 77},
    }
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(doc))
    g, behaviors, schedule, symbols = load_topology(str(path))
    assert g.parents("b") == {"a"}
    assert behaviors["b"].p_adv == 0.3
    assert schedule == [["a"], ["b"]]
    assert symbols == {"a": 77}
    ledger = TrustLedger(0.01)
    transcript = run_protocol(g, behaviors, schedule, SPEC, 0, ledger, symbols)
    trace = tmp_path / "trace.jsonl"
    write_trace(transcript, trace)
    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(lines) == len(transcript) == 2
    assert lines[0]["sender"] == "a" and lines[0]["payload"] == 77


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2000) | st.floats(-1, 2)
    | st.sampled_from(["a", "b", "honest", "adversarial"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["a", "b", "role", "p_adv", "check_probability"]), inner, max_size=3),
    max_leaves=12,
)


# Documents whose every field is well formed, but which run_protocol would
# read differently from what they say.
_REPEATED_EDGE = {
    "nodes": ["a", "b"], "links": [["a", "b"]], "schedule": [["a"], ["b"]],
    "interference": [["b", "a", 0.1], ["b", "a", 0.4]],
}
_RELAY_SOURCE_SYMBOL = {
    "nodes": ["a", "b"], "links": [["a", "b"]], "schedule": [["a"], ["b"]],
    "source_symbols": {"a": 1, "b": 2},
}
# run_protocol would stop in round 0: r transmits before w and s2 have sent it anything
_EARLY_RELAY = {
    "nodes": ["w", "s2", "r", "d"], "links": [["w", "r"], ["s2", "r"], ["r", "d"]],
    "schedule": [["r"], ["w", "s2"]],
}
# JSON true, where a number is read
_BOOLEAN_SYMBOL = {
    "nodes": ["a", "b"], "links": [["a", "b"]], "schedule": [["a"], ["b"]],
    "source_symbols": {"a": True}, "interference": [["b", "a", False]],
}


@pytest.mark.parametrize("doc, field", [
    (_REPEATED_EDGE, "interference[1]"), (_RELAY_SOURCE_SYMBOL, "source_symbols.b"),
    (_EARLY_RELAY, "schedule[0]"),
], ids=["repeated-edge", "relay-source-symbol", "early-relay"])
def test_load_topology_rejects_what_the_protocol_would_not_read(doc, field):
    with pytest.raises(ValueError, match=f"^topology field '{re.escape(field)}': "):
        load_topology(doc)


@pytest.mark.parametrize("doc", [[], 3, None])
def test_load_topology_rejects_a_document_that_is_not_an_object(doc):
    with pytest.raises(ValueError, match="^topology document must be a JSON object$"):
        load_topology(doc)


@pytest.mark.parametrize("change, field", [
    ({"source_symbols": {"a": True}}, "source_symbols.a"),
    ({"interference": [["b", "a", False]]}, "interference[0]"),
    ({"behaviors": {"b": {"role": "adversarial", "p_adv": True}}}, "behaviors.b.p_adv"),
    ({"behaviors": {"a": {"check_probability": True}}}, "behaviors.a.check_probability"),
], ids=["source-symbol", "interference-rate", "p-adv", "check-probability"])
def test_load_topology_reads_no_boolean_as_a_number(change, field):
    doc = {"nodes": ["a", "b"], "links": [["a", "b"]], "schedule": [["a"], ["b"]], **change}
    with pytest.raises(ValueError, match=f"^topology field '{re.escape(field)}'"):
        load_topology(doc)


@st.composite
def _scheduled_networks(draw):
    """A ``_networks`` DAG with a schedule of rounds that may repeat a node or starve a relay."""
    g, _, seed = draw(_networks())
    rounds = st.lists(st.sampled_from(sorted(g.nodes)), min_size=1, max_size=4)
    return g, draw(st.lists(rounds, min_size=1, max_size=6)), seed


@settings(max_examples=150, deadline=None)
@given(_scheduled_networks())
@example((Hypergraph(frozenset("wrd"), frozenset({("w", "r"), ("r", "d")}), {}),
          [["r", "w"], ["r"]], 0))
def test_load_topology_rejects_exactly_the_schedules_the_protocol_stops_on(network):
    g, schedule, seed = network
    doc = {"nodes": sorted(g.nodes), "links": [list(e) for e in sorted(g.links)],
           "schedule": schedule}
    rounds = multihop._rounds(g, {}, schedule, SPEC, np.random.default_rng(seed))
    stopped = None  # the round run_round raised in
    for i in range(len(schedule)):
        try:
            next(rounds)
        except ValueError as exc:
            assert "scheduled with no received inputs" in str(exc)
            stopped = i
            break
    try:
        run_protocol(g, {}, schedule, SPEC, seed, TrustLedger(0.05))
    except ValueError:
        assert stopped is not None
    else:
        assert stopped is None
    if stopped is None:
        assert load_topology(doc)[2] == schedule
    else:
        with pytest.raises(ValueError, match=rf"^topology field 'schedule\[{stopped}\]': "):
            load_topology(doc)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(
    st.sampled_from(["nodes", "links", "interference", "behaviors", "schedule",
                     "source_symbols", "behaviours"]),
    _JSON, max_size=6,
))
@example(_REPEATED_EDGE)
@example(_RELAY_SOURCE_SYMBOL)
@example(_EARLY_RELAY)
@example(_BOOLEAN_SYMBOL)
def test_load_topology_raises_only_value_error_on_fuzzed_documents(doc):
    try:
        load_topology(doc)
    except ValueError:
        pass

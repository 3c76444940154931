"""Round-based hypergraph protocol: every node polices its downstream.

The network is a hypergraph with directed intended links (error-free by
assumption: forward traffic is coded for its channel) and directed
interference edges, each a BSC, over which nodes overhear transmissions
not addressed to them. Per round, scheduled nodes transmit a coded packet
of everything in their inbox; each node then randomly decides whether to
check its neighborhood, running the two-hop watchdog on any downstream
neighbor it overhears and appending the resulting p* to a trust ledger.

Verdicts use a rolling mean of the last W policed samples against a
calibrated threshold; a pair with fewer than W samples is presumed
well-behaving. Detection responses (rerouting, punishment) are out of
scope: the ledger is the product.

Topologies load from a declarative JSON document (nodes, links,
interference with rates, behaviors, schedule); transcripts dump to a
line-delimited JSON trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .channel import Bsc, transmit
from .gfield import default_field
from .hashing import HashSpec, sample_hash
from .inference import Overheard, Verdict, WatchdogObservation, decide
from .inference import build_and_run_trellis, consistency_probability
from .packet import Packet, corrupt_payload, destination_check, make_packet
from .sim import TwoHopConfig, calibrate_threshold

HONEST = "honest"
ADVERSARIAL = "adversarial"


@dataclass(frozen=True)
class Hypergraph:
    """Network topology: nodes, intended links, interference edges.

    ``links`` are directed (sender, receiver) pairs; ``interference`` maps
    directed (speaker, listener) pairs to the BSC crossover rate of that
    overhearing channel.
    """

    nodes: frozenset[str]
    links: frozenset[tuple[str, str]]
    interference: dict[tuple[str, str], float]

    def __post_init__(self):
        for u, v in self.links:
            if u not in self.nodes or v not in self.nodes:
                raise ValueError(f"link ({u}, {v}) references undeclared node")
        for (u, v), p in self.interference.items():
            if u not in self.nodes or v not in self.nodes:
                raise ValueError(f"interference edge ({u}, {v}) references undeclared node")
            Bsc(p)

    def parents(self, v: str) -> set[str]:
        return {u for u, w in self.links if w == v}

    def children(self, v: str) -> set[str]:
        return {w for u, w in self.links if u == v}

    def overhearing_rate(self, speaker: str, listener: str) -> float:
        key = (speaker, listener)
        if key not in self.interference:
            raise ValueError(f"{listener} has no overhearing edge from {speaker}")
        return self.interference[key]


@dataclass(frozen=True)
class NodeBehavior:
    role: str = HONEST
    p_adv: float = 0.0
    check_probability: float = 0.0

    def __post_init__(self):
        if self.role not in (HONEST, ADVERSARIAL):
            raise ValueError(f"unknown role {self.role!r}")
        if not 0.0 <= self.check_probability <= 1.0:
            raise ValueError("check_probability must be in [0, 1]")
        if not 0.0 <= self.p_adv <= 1.0:
            raise ValueError("p_adv must be in [0, 1]")


@dataclass
class Transmission:
    """One broadcast: the packet, plus what each receiver and listener got."""

    round_index: int
    sender: str
    packet: Packet
    delivered: dict[str, int]
    overheard: dict[str, int]


class TrustLedger:
    """Per (watcher, watched) pair: policed p* samples and a rolling verdict."""

    def __init__(self, threshold: float, window: int = 25):
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.threshold = threshold
        self.window = window
        self._samples: dict[tuple[str, str], list[float]] = {}

    def record(self, watcher: str, watched: str, p_star: float) -> None:
        self._samples.setdefault((watcher, watched), []).append(p_star)

    def samples(self, watcher: str, watched: str) -> list[float]:
        return list(self._samples.get((watcher, watched), []))

    def verdict(self, watcher: str, watched: str) -> Verdict:
        """Rolling mean of the last ``window`` samples against the threshold.

        Pairs with no or too few samples default to well-behaving: the
        watchdog accuses on evidence, never on its absence.
        """
        samples = self._samples.get((watcher, watched), [])
        if len(samples) < self.window:
            return Verdict.WELL_BEHAVING
        return decide(float(np.mean(samples[-self.window:])), self.threshold)

    def pairs(self) -> list[tuple[str, str]]:
        return sorted(self._samples)


def run_round(
    g: Hypergraph,
    behaviors: dict[str, NodeBehavior],
    transmitters,
    inbox: dict[str, dict[str, int]],
    spec: HashSpec,
    rng,
    round_index: int = 0,
    source_symbols: dict[str, int] | None = None,
) -> list[Transmission]:
    """One schedule step: the listed nodes transmit, others receive/overhear.

    ``inbox`` maps each node to the payloads it has received over intended
    links, keyed by sender; a transmission consumes the sender's entry.
    Sources (nodes with no parents) transmit a fresh exogenous symbol,
    either pinned via source_symbols or drawn uniformly. Relays code their
    inbox with per-round uniform nonzero coefficients; adversarial nodes
    corrupt the payload afterwards, keeping the announced hash consistent.
    Deterministic for a fixed rng: transmitters, inbox keys, and listeners
    are processed in sorted order.
    """
    order = 1 << spec.n
    events = []
    for v in sorted(transmitters):
        if g.parents(v):
            inputs = inbox.pop(v, {})
            if not inputs:
                raise ValueError(f"node {v} scheduled with no received inputs")
        else:
            if source_symbols and v in source_symbols:
                symbol = source_symbols[v]
            else:
                symbol = int(rng.integers(0, order))
            inputs = {v: symbol}
        if len(inputs) == 1:
            coeffs = {u: 1 for u in inputs}  # pure forwarding
        else:
            coeffs = {
                u: 1 + int(c)
                for u, c in zip(sorted(inputs), rng.integers(0, order - 1, size=len(inputs)))
            }
        pkt = make_packet(inputs, coeffs, spec)
        behavior = behaviors.get(v, NodeBehavior())
        if behavior.role == ADVERSARIAL and behavior.p_adv > 0.0:
            pkt = corrupt_payload(pkt, behavior.p_adv, spec, rng)
        delivered = {}
        for child in sorted(g.children(v)):
            inbox.setdefault(child, {})[v] = pkt.payload
            delivered[child] = pkt.payload
        overheard = {}
        for (speaker, listener), p in sorted(g.interference.items()):
            if speaker == v:
                overheard[listener] = transmit(Bsc(p), pkt.payload, spec.n, rng)
        events.append(Transmission(round_index, v, pkt, delivered, overheard))
    return events


def _latest(transcript: list[Transmission], sender: str, before: int | None = None):
    for ev in reversed(transcript):
        if ev.sender == sender and (before is None or ev.round_index < before):
            return ev
    return None


def _policing_inputs(watcher: str, watched: str, transcript: list[Transmission]):
    """The watched node's latest transmission, the watcher's own before it and
    every other input's, sorted: what policing needs, else a ValueError why not.
    """
    watched_tx = _latest(transcript, watched)
    if watched_tx is None:
        raise ValueError(f"{watched} has not transmitted yet")
    if watcher not in watched_tx.overheard:
        raise ValueError(f"{watcher} has no overhearing edge from {watched}")
    upstream = sorted(watched_tx.packet.coeffs)
    if watcher not in upstream:
        raise ValueError(f"{watcher} is not an input of {watched}'s transmission")

    own_tx = _latest(transcript, watcher, before=watched_tx.round_index)
    if own_tx is None:
        raise ValueError(f"{watcher} transmitted nothing for {watched} to combine")
    peer_txs = []
    for u in upstream:
        if u == watcher:
            continue
        peer_tx = _latest(transcript, u, before=watched_tx.round_index)
        if peer_tx is None or watcher not in peer_tx.overheard:
            raise ValueError(f"{watcher} has no overhearing edge from {u}")
        peer_txs.append(peer_tx)
    return watched_tx, own_tx, peer_txs


def build_observation(
    watcher: str,
    watched: str,
    transcript: list[Transmission],
    g: Hypergraph,
    spec: HashSpec,
) -> WatchdogObservation:
    """Assemble the watchdog observation from what the watcher overheard.

    Reads only watcher-addressed transcript data: the watcher's own
    transmitted payload, error-free packet headers, and the noisy
    overhearings recorded for the watcher. Raises when the watcher lacks
    an overhearing edge it needs or never fed the watched node.
    """
    watched_tx, own_tx, peer_txs = _policing_inputs(watcher, watched, transcript)

    def heard(tx: Transmission) -> Overheard:
        rate = g.overhearing_rate(tx.sender, watcher)
        return Overheard(tx.overheard[watcher], tx.packet.own_hash, Bsc(rate))

    coeffs = watched_tx.packet.coeffs
    return WatchdogObservation(
        own_symbol=own_tx.packet.payload,
        coeffs=(coeffs[watcher], *(coeffs[tx.sender] for tx in peer_txs)),
        overheard=tuple(heard(tx) for tx in peer_txs),
        relay_overheard=heard(watched_tx),
        hash_spec=spec,
    )


def police(
    watcher: str,
    watched: str,
    transcript: list[Transmission],
    g: Hypergraph,
    spec: HashSpec,
    ledger: TrustLedger,
) -> TrustLedger:
    """Run the two-hop watchdog on one pair and record the p* sample.

    Raises InferenceError when a transition row comes up empty or the relay
    cannot be scored.
    """
    obs = build_observation(watcher, watched, transcript, g, spec)
    ledger.record(watcher, watched, consistency_probability(build_and_run_trellis(obs), obs))
    return ledger


def can_police(watcher: str, watched: str, transcript: list[Transmission], g: Hypergraph) -> bool:
    """Whether ``build_observation`` has everything it needs for this pair."""
    try:
        _policing_inputs(watcher, watched, transcript)
    except ValueError:
        return False
    return True


def _rounds(g, behaviors, schedule, spec, rng, source_symbols=None):
    """Yield (transmitters, transcript so far) after each round of the schedule."""
    inbox: dict[str, dict[str, int]] = {}
    transcript: list[Transmission] = []
    for round_index, transmitters in enumerate(schedule):
        transcript.extend(run_round(g, behaviors, transmitters, inbox, spec, rng,
                                    round_index, source_symbols))
        yield transmitters, transcript


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _checks(behavior: NodeBehavior) -> bool:
    """Whether a node with this behavior ever polices its downstream."""
    return behavior.role == HONEST and behavior.check_probability > 0.0


def run_protocol(
    g: Hypergraph,
    behaviors: dict[str, NodeBehavior],
    schedule: list[list[str]],
    spec: HashSpec,
    seed: int,
    ledger: TrustLedger,
    source_symbols: dict[str, int] | None = None,
) -> list[Transmission]:
    """Run the full schedule; honest nodes randomly police their downstream.

    After each round, every honest node draws its check decision; when
    checking, it polices each of its transmitting downstream neighbors it
    is able to overhear. Returns the transcript; the ledger is updated in
    place.
    """
    _check_seed(seed)
    rng = np.random.default_rng(np.random.SeedSequence((seed,)))
    transcript: list[Transmission] = []
    rounds = _rounds(g, behaviors, schedule, spec, rng, source_symbols)
    for transmitters, transcript in rounds:
        for watcher in sorted(g.nodes):
            behavior = behaviors.get(watcher, NodeBehavior())
            if not _checks(behavior):
                continue
            if rng.random() >= behavior.check_probability:
                continue
            for watched in sorted(g.children(watcher)):
                if watched in transmitters and can_police(watcher, watched, transcript, g):
                    police(watcher, watched, transcript, g, spec, ledger)
    return transcript


def unpoliced_pairs(
    g: Hypergraph,
    behaviors: dict[str, NodeBehavior],
    transcript: list[Transmission],
    ledger: TrustLedger,
) -> dict[tuple[str, str], str]:
    """Why each checking honest node's child got no p* sample, by (watcher, child).

    The reason is what ``_policing_inputs`` finds missing at the end of the
    transcript. When nothing is, the watcher never checked while the child
    was transmitting, and the reason says so.
    """
    reasons = {}
    for watcher in sorted(g.nodes):
        if not _checks(behaviors.get(watcher, NodeBehavior())):
            continue
        for watched in sorted(g.children(watcher)):
            if ledger.samples(watcher, watched):
                continue
            try:
                _policing_inputs(watcher, watched, transcript)
            except ValueError as exc:
                reasons[watcher, watched] = str(exc)
            else:
                reasons[watcher, watched] = f"{watcher} never checked while {watched} transmitted"
    return reasons


@dataclass(frozen=True)
class ScenarioReport:
    kind: str
    corrupted_delivered: bool
    honest_watcher_exists: bool
    detected: bool
    detection_frequency: float | None
    details: dict


SCENARIOS = ("one-honest-path", "all-parents-malicious", "all-children-malicious")


def mincut_scenario(
    kind: str,
    seed: int = 0,
    instances: int = 40,
    policed_samples: int = 50,
    p_adv: float = 0.5,
    p_overhear: float = 0.1,
    gamma: float = 0.05,
    window: int = 25,
    calibration_iterations: int = 4000,
) -> ScenarioReport:
    """Built-in topologies probing when the min-cut protection holds.

    one-honest-path: a relay with one honest, always-checking parent; the
    parent's rolling-mean verdict must catch a heavy injector. The other
    two kinds are the structural negative cases: when every parent of the
    injection point is malicious there is no honest watcher at all, and
    when every receiver of a node's transmissions is malicious the flow
    beyond it is compromised no matter how the node itself behaves.
    """
    _check_seed(seed)
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    if policed_samples < 0:  # 0 is an empty schedule: nothing policed, nothing detected
        raise ValueError(f"policed_samples must be >= 0, got {policed_samples}")
    if kind == "one-honest-path":
        return _scenario_one_honest_path(
            seed, instances, policed_samples, p_adv, p_overhear, gamma, window,
            calibration_iterations,
        )
    if kind == "all-parents-malicious":
        return _scenario_all_parents(seed, p_adv, p_overhear)
    if kind == "all-children-malicious":
        return _scenario_all_children(seed, p_adv, p_overhear)
    raise ValueError(f"unknown scenario {kind!r}; choose from {SCENARIOS}")


def _star_topology(p_overhear: float) -> Hypergraph:
    """Three sources feeding one relay; source w overhears everything."""
    nodes = frozenset({"w", "s2", "s3", "r", "d"})
    links = frozenset({("w", "r"), ("s2", "r"), ("s3", "r"), ("r", "d")})
    interference = {
        ("s2", "w"): p_overhear,
        ("s3", "w"): p_overhear,
        ("r", "w"): p_overhear,
    }
    return Hypergraph(nodes, links, interference)


def _scenario_one_honest_path(
    seed, instances, policed_samples, p_adv, p_overhear, gamma, window,
    calibration_iterations,
) -> ScenarioReport:
    cal_cfg = TwoHopConfig(
        m=3, n=10, delta=2, p_s=p_overhear, p_relay=p_overhear, p_adv=0.0,
        iterations=calibration_iterations, seed=seed + 1,
    )
    threshold = calibrate_threshold(cal_cfg, gamma, window=window)
    g = _star_topology(p_overhear)
    behaviors = {
        "w": NodeBehavior(HONEST, check_probability=1.0),
        "s2": NodeBehavior(HONEST),
        "s3": NodeBehavior(HONEST),
        "r": NodeBehavior(ADVERSARIAL, p_adv=p_adv),
        "d": NodeBehavior(HONEST),
    }
    schedule = [["w", "s2", "s3"], ["r"]] * policed_samples
    detections = 0
    corrupted_any = False
    for inst in range(instances):
        inst_rng = np.random.default_rng(np.random.SeedSequence((seed, inst, 99)))
        spec = sample_hash(inst_rng, "affine", 10, 2)
        ledger = TrustLedger(threshold, window=window)
        rng = np.random.default_rng(np.random.SeedSequence((seed, inst)))
        transcript: list[Transmission] = []
        for transmitters, transcript in _rounds(g, behaviors, schedule, spec, rng):
            if "r" in transmitters and can_police("w", "r", transcript, g):
                police("w", "r", transcript, g, spec, ledger)
                if ledger.verdict("w", "r") is Verdict.MALICIOUS:
                    detections += 1
                    break
        if _latest(transcript, "r") is not None:
            corrupted, _ = _injector_outcome(transcript, "r", spec)
            corrupted_any = corrupted_any or corrupted
    freq = detections / instances
    return ScenarioReport(
        kind="one-honest-path",
        corrupted_delivered=corrupted_any,
        honest_watcher_exists=True,
        detected=freq > 0.9,
        detection_frequency=freq,
        details={"threshold": threshold, "window": window, "instances": instances},
    )


def _structural_report(kind, g, behaviors, schedule, seed, injector, details) -> ScenarioReport:
    """Run a fixed schedule once and report on the injector's last packet."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 7)))
    spec = sample_hash(rng, "affine", 10, 2)
    for _, transcript in _rounds(g, behaviors, schedule, spec, rng):
        pass
    corrupted, consistent = _injector_outcome(transcript, injector, spec)
    honest_watchers = {u for u in g.parents(injector) if behaviors[u].role == HONEST}
    return ScenarioReport(
        kind=kind,
        corrupted_delivered=corrupted,
        honest_watcher_exists=bool(honest_watchers),
        detected=False,
        detection_frequency=None,
        details={
            **details,
            "injector": injector,
            "destination_check_passes": consistent,
            "honest_parents_of_injector": sorted(honest_watchers),
        },
    )


def _scenario_all_parents(seed, p_adv, p_overhear) -> ScenarioReport:
    """Both parents of the injector are Byzantine: nobody polices it."""
    nodes = frozenset({"a1", "a2", "v", "d"})
    links = frozenset({("a1", "v"), ("a2", "v"), ("v", "d")})
    interference = {("a2", "a1"): p_overhear, ("v", "a1"): p_overhear}
    g = Hypergraph(nodes, links, interference)
    behaviors = {
        "a1": NodeBehavior(ADVERSARIAL),
        "a2": NodeBehavior(ADVERSARIAL),
        "v": NodeBehavior(ADVERSARIAL, p_adv=p_adv),
        "d": NodeBehavior(HONEST),
    }
    schedule = [["a1", "a2"], ["v"]] * 4
    return _structural_report("all-parents-malicious", g, behaviors, schedule, seed, "v", {})


def _scenario_all_children(seed, p_adv, p_overhear) -> ScenarioReport:
    """Every receiver of v's transmissions is Byzantine.

    v itself is forced to behave (its parents police it), but its only
    child c corrupts freely: c's only parent is v, so no honest node can
    watch the injection, and the destination's hash check cannot see it
    either since c recomputes a consistent hash. The flow through v is
    compromised regardless of v's own behavior.
    """
    nodes = frozenset({"s1", "s2", "v", "c", "d"})
    links = frozenset({("s1", "v"), ("s2", "v"), ("v", "c"), ("c", "d")})
    interference = {
        ("s2", "s1"): p_overhear,
        ("v", "s1"): p_overhear,
        ("c", "v"): p_overhear,
    }
    g = Hypergraph(nodes, links, interference)
    behaviors = {
        "s1": NodeBehavior(HONEST, check_probability=1.0),
        "s2": NodeBehavior(HONEST),
        "v": NodeBehavior(ADVERSARIAL, p_adv=0.0),  # complies: it is policed
        "c": NodeBehavior(ADVERSARIAL, p_adv=p_adv),
        "d": NodeBehavior(HONEST),
    }
    schedule = [["s1", "s2"], ["v"], ["c"]] * 3
    return _structural_report(
        "all-children-malicious", g, behaviors, schedule, seed, "c",
        {"node_with_malicious_children": "v"},
    )


def _injector_outcome(transcript, injector, spec):
    """Did the injector's last packet corrupt the flow, and does it self-check?"""
    tx = _latest(transcript, injector)
    true = default_field(spec.n).lincomb(
        [tx.packet.coeffs[u] for u in sorted(tx.packet.coeffs)],
        [_latest(transcript, u, tx.round_index).packet.payload
         for u in sorted(tx.packet.coeffs)],
    )
    return tx.packet.payload != true, destination_check(tx.packet, spec)


def _check_declared(field: str, names, nodes: frozenset[str]) -> None:
    undeclared = sorted(set(names) - nodes)
    if undeclared:
        raise ValueError(f"topology field {field!r} names undeclared node(s) {undeclared}")


def _is_names(value, count=None) -> bool:
    return (isinstance(value, list) and all(isinstance(v, str) for v in value)
            and count in (None, len(value)))


def _is_rate_edge(e) -> bool:
    return (isinstance(e, list) and len(e) == 3 and _is_names(e[:2])
            and isinstance(e[2], (int, float)))


# Every field a topology document may hold: what it must be, its type, a check per entry.
_TOPOLOGY_FIELDS = {
    "nodes": ("a list of node names", list, lambda v: isinstance(v, str)),
    "links": ("a list of [sender, receiver] pairs", list, lambda e: _is_names(e, 2)),
    "interference": ("a list of [speaker, listener, rate] triples", list, _is_rate_edge),
    "behaviors": ("an object of behavior objects", dict, lambda b: isinstance(b, dict)),
    "schedule": ("a list of rounds, each a list of node names", list, _is_names),
    "source_symbols": ("an object of integer symbols", dict, lambda v: isinstance(v, int)),
}


def load_topology(doc) -> tuple[Hypergraph, dict[str, NodeBehavior], list[list[str]], dict]:
    """Parse a declarative topology document (dict or JSON file path).

    Raises ValueError naming the field when a field is unknown, missing
    (``nodes``, ``links``, ``schedule``) or of the wrong shape, when an
    interference rate is outside [0, 0.5], when a behavior has an unknown
    or invalid entry, when a link, interference edge, schedule entry,
    behavior or ``source_symbols`` key names an undeclared node, or when an
    honest node is given a positive ``p_adv``. Whether a source symbol lies
    in the field is left to the caller, which knows n.
    """
    if isinstance(doc, (str, bytes)):
        with open(doc) as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("topology document must be a JSON object")
    for field, value in doc.items():
        if field not in _TOPOLOGY_FIELDS:
            raise ValueError(f"topology field {field!r} is unknown; "
                             f"expected one of {sorted(_TOPOLOGY_FIELDS)}")
        shape, kind, ok = _TOPOLOGY_FIELDS[field]
        entries = value.values() if isinstance(value, dict) else value
        if not isinstance(value, kind) or not all(map(ok, entries)):
            raise ValueError(f"topology field {field!r} must be {shape}")
    for field in ("nodes", "links", "schedule"):
        if field not in doc:
            raise ValueError(f"topology field {field!r} is missing")
    nodes = frozenset(doc["nodes"])
    for i, link in enumerate(doc["links"]):
        _check_declared(f"links[{i}]", link, nodes)
    for i, (speaker, listener, rate) in enumerate(doc.get("interference", [])):
        _check_declared(f"interference[{i}]", (speaker, listener), nodes)
        try:
            Bsc(rate)
        except ValueError as exc:
            raise ValueError(f"topology field 'interference[{i}]': {exc}") from None
    g = Hypergraph(
        nodes=nodes,
        links=frozenset(tuple(e) for e in doc["links"]),
        interference={(u, v): p for u, v, p in doc.get("interference", [])},
    )
    behaviors = {}
    for name, spec in doc.get("behaviors", {}).items():
        try:
            behaviors[name] = NodeBehavior(**spec)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"topology field 'behaviors.{name}': {exc}") from None
        if behaviors[name].role == HONEST and behaviors[name].p_adv > 0.0:
            raise ValueError(
                f"topology field 'behaviors.{name}.p_adv': an honest node injects "
                f"nothing, got {behaviors[name].p_adv}"
            )
    _check_declared("behaviors", behaviors, g.nodes)
    schedule = [list(r) for r in doc["schedule"]]
    for i, transmitters in enumerate(schedule):
        _check_declared(f"schedule[{i}]", transmitters, g.nodes)
    source_symbols = dict(doc.get("source_symbols", {}))
    _check_declared("source_symbols", source_symbols, g.nodes)
    return g, behaviors, schedule, source_symbols


def write_trace(transcript: list[Transmission], path) -> None:
    """Dump the transcript as line-delimited JSON, one transmission per line."""
    with open(path, "w") as fh:
        for ev in transcript:
            fh.write(
                json.dumps(
                    {
                        "round": ev.round_index,
                        "sender": ev.sender,
                        "coeffs": ev.packet.coeffs,
                        "input_hashes": ev.packet.input_hashes,
                        "own_hash": ev.packet.own_hash,
                        "payload": ev.packet.payload,
                        "delivered": ev.delivered,
                        "overheard": ev.overheard,
                    },
                    sort_keys=True,
                )
                + "\n"
            )

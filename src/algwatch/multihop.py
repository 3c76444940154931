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
from dataclasses import asdict, dataclass

import numpy as np

from .channel import Bsc, flip_bits
from .gfield import default_field
from .hashing import HashSpec, sample_hash
from .inference import Overheard, Verdict, WatchdogObservation, decide
from .inference import build_and_run_trellis, consistency_probability
from .packet import Packet, corrupt_payload, destination_check, make_packet
from .sim import _MAX_TRIALS, TwoHopConfig, calibrate_threshold

HONEST = "honest"
ADVERSARIAL = "adversarial"


@dataclass(frozen=True)
class Hypergraph:
    """Network topology: nodes, intended links, interference edges.

    ``links`` are directed (sender, receiver) pairs; ``interference`` maps
    directed (speaker, listener) pairs to the BSC crossover rate of that
    overhearing channel. Each node's parents, children and listeners are
    read from them once, at construction.
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
        parents, children, listeners = ({v: [] for v in self.nodes} for _ in range(3))
        for u, v in sorted(self.links):
            parents[v].append(u)
            children[u].append(v)
        for (u, v), p in sorted(self.interference.items()):
            listeners[u].append((v, p))
        object.__setattr__(self, "_parents", parents)  # each list sorted
        object.__setattr__(self, "_children", children)
        object.__setattr__(self, "_listeners", listeners)  # (listener, rate) pairs

    def parents(self, v: str) -> set[str]:
        return set(self._parents.get(v, ()))

    def children(self, v: str) -> set[str]:
        return set(self._children.get(v, ()))

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


_DEFAULT_BEHAVIOR = NodeBehavior()  # a node a topology document gives no behavior: honest


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
        if g._parents.get(v):
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
        behavior = behaviors.get(v, _DEFAULT_BEHAVIOR)
        if behavior.role == ADVERSARIAL and behavior.p_adv > 0.0:
            pkt = corrupt_payload(pkt, behavior.p_adv, spec, rng)
        delivered = {}
        for child in g._children.get(v, ()):
            inbox.setdefault(child, {})[v] = pkt.payload
            delivered[child] = pkt.payload
        overheard = {}
        for listener, p in g._listeners.get(v, ()):  # each rate checked by Hypergraph
            overheard[listener] = flip_bits(pkt.payload, p, spec.n, rng)
        events.append(Transmission(round_index, v, pkt, delivered, overheard))
    return events


def _last(transcript: list[Transmission], sender: str, before: int | None = None) -> int | None:
    """Where sender's last transmission in transcript[:before] is, else None.

    The transcript is in delivery order (``run_round`` transmits a round's
    nodes in sorted order), so a relay coded its inputs' last transmissions
    before its own, from its own round too.
    """
    for at in range(len(transcript) if before is None else before)[::-1]:
        if transcript[at].sender == sender:
            return at
    return None


def _policing_inputs(watcher: str, watched: str, transcript: list[Transmission]):
    """The watched node's latest transmission, the watcher's own before it and
    every other input's, sorted: what policing needs, else a ValueError why not.
    """
    at = _last(transcript, watched)
    if at is None:
        raise ValueError(f"{watched} has not transmitted yet")
    watched_tx = transcript[at]
    if watcher not in watched_tx.overheard:
        raise ValueError(f"{watcher} has no overhearing edge from {watched}")
    upstream = sorted(watched_tx.packet.coeffs)
    if watcher not in upstream:
        raise ValueError(f"{watcher} is not an input of {watched}'s transmission")

    own = _last(transcript, watcher, before=at)
    if own is None:
        raise ValueError(f"{watcher} transmitted nothing for {watched} to combine")
    peer_txs = []
    for u in upstream:
        if u == watcher:
            continue
        peer = _last(transcript, u, before=at)
        if peer is None or watcher not in transcript[peer].overheard:
            raise ValueError(f"{watcher} has no overhearing edge from {u}")
        peer_txs.append(transcript[peer])
    return watched_tx, transcript[own], peer_txs


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
    place. A pinned source symbol outside GF(2^n) raises a ValueError
    naming it, as ``source_symbols.<node>``, before any round runs.
    """
    _check_seed(seed)
    for name, symbol in (source_symbols or {}).items():
        if not 0 <= symbol < 1 << spec.n:
            raise ValueError(f"'source_symbols.{name}': {symbol} is not a GF(2^{spec.n}) element")
    rng = np.random.default_rng(np.random.SeedSequence((seed,)))
    transcript: list[Transmission] = []
    rounds = _rounds(g, behaviors, schedule, spec, rng, source_symbols)
    for transmitters, transcript in rounds:
        for watcher in sorted(g.nodes):
            behavior = behaviors.get(watcher, _DEFAULT_BEHAVIOR)
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
        if not _checks(behaviors.get(watcher, _DEFAULT_BEHAVIOR)):
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

    The claim, as this library reads it. PAPER.md holds only the paper's
    abstract ("as long as the min-cut is not dominated by the Byzantine
    adversaries, upstream nodes can monitor downstream neighbors"), so the
    predicate below is the repo's reading, not the paper's statement. For
    a ``Hypergraph`` g, a Byzantine set B (the nodes of role adversarial)
    and a schedule S, an honest node u is a watcher of v in B when

    - (W1) (u, v) is a link of g and u checks with probability 1;
    - (W2) g has an interference edge into u from v and from every other
      parent of v;
    - (W3) S has u and every other parent of v transmit before v does, so
      ``can_police(u, v, ...)`` holds after each round in which v transmits.

    v's parents form a node cut between the sources and v. The claim: if
    that cut is not dominated by B, in that it holds a watcher of v, then
    every transmission of v is policed (the watcher records a p* sample
    for each round in which v transmits, and a heavy injector is flagged
    by the rolling-mean verdict); if every parent of v is in B, no honest
    node polices v, and v's corrupting packets pass the destination's hash
    check, since v announces their own hash. Each kind's network is a
    topology document (``_scenario_document``), loaded by ``load_topology``
    as a ``--topology`` run's is, its one schedule period repeated. The kinds:

    - one-honest-path: the star w, s2, s3 -> r -> d with B = {r}. w meets
      W1-W3 for r, so the claim's first half applies, and w's verdict must
      catch a heavy injector.
    - all-parents-malicious: a1, a2 -> v -> d with B = {a1, a2, v}. Every
      parent of v is in B, so W1 fails for every candidate: the claim's
      second half, with no honest watcher at all.
    - all-children-malicious: s1, s2 -> v -> c -> d with B = {v, c}. v has
      the watcher s1 (W1-W3) and complies, but c's one parent is v: the
      second half again, so the flow beyond v is compromised no matter how
      v itself behaves.
    """
    _check_seed(seed)
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    if policed_samples < 0:  # 0 is an empty schedule: nothing policed, nothing detected
        raise ValueError(f"policed_samples must be >= 0, got {policed_samples}")
    if not 0.0 <= p_adv <= 1.0:
        raise ValueError(f"p_adv must be in [0, 1], got {p_adv}")
    if not 0.0 <= p_overhear <= 0.5:
        raise ValueError(f"p_overhear must be in [0, 0.5], got {p_overhear}")
    if kind not in SCENARIOS:
        raise ValueError(f"unknown scenario {kind!r}; choose from {SCENARIOS}")
    if kind == "one-honest-path":
        if not 0.0 < gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {gamma}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if calibration_iterations < window:
            raise ValueError(
                f"calibration_iterations must be >= window ({window}), got {calibration_iterations}"
            )
        if calibration_iterations > _MAX_TRIALS:
            raise ValueError(
                f"calibration_iterations must be <= 2^32, got {calibration_iterations}"
            )
    g, behaviors, period, _ = load_topology(_scenario_document(kind, p_adv, p_overhear))
    if kind == "one-honest-path":
        return _scenario_one_honest_path(
            g, behaviors, period * policed_samples, seed, instances, p_overhear, gamma, window,
            calibration_iterations,
        )
    if kind == "all-parents-malicious":
        return _structural_report(kind, g, behaviors, period * 4, seed, "v", {})
    return _structural_report(kind, g, behaviors, period * 3, seed, "c",
                              {"node_with_malicious_children": "v"})


def _scenario_document(kind: str, p_adv: float, p_overhear: float) -> dict:
    """kind's network as a topology document (``load_topology``), with one schedule period.

    A period leaves every relay's inbox as it found it, so a scenario runs
    it repeated. Only the behaviors that are not the honest default are
    listed. The rates and p_adv go in as Python floats, as a document holds
    numbers.
    """
    p, injector = float(p_overhear), {"role": ADVERSARIAL, "p_adv": float(p_adv)}
    if kind == "one-honest-path":  # three sources feed one relay; w overhears everything
        return {
            "nodes": ["w", "s2", "s3", "r", "d"],
            "links": [["w", "r"], ["s2", "r"], ["s3", "r"], ["r", "d"]],
            "interference": [["s2", "w", p], ["s3", "w", p], ["r", "w", p]],
            "behaviors": {"w": {"check_probability": 1.0}, "r": injector},
            "schedule": [["w", "s2", "s3"], ["r"]],
        }
    if kind == "all-parents-malicious":  # both parents of the injector are Byzantine
        return {
            "nodes": ["a1", "a2", "v", "d"],
            "links": [["a1", "v"], ["a2", "v"], ["v", "d"]],
            "interference": [["a2", "a1", p], ["v", "a1", p]],
            "behaviors": {"a1": {"role": ADVERSARIAL}, "a2": {"role": ADVERSARIAL},
                          "v": injector},
            "schedule": [["a1", "a2"], ["v"]],
        }
    # v complies, as its parents police it; its only child c corrupts freely and
    # recomputes a consistent hash, so neither a watcher nor the destination sees it
    return {
        "nodes": ["s1", "s2", "v", "c", "d"],
        "links": [["s1", "v"], ["s2", "v"], ["v", "c"], ["c", "d"]],
        "interference": [["s2", "s1", p], ["v", "s1", p], ["c", "v", p]],
        "behaviors": {"s1": {"check_probability": 1.0}, "v": {"role": ADVERSARIAL},
                      "c": injector},
        "schedule": [["s1", "s2"], ["v"], ["c"]],
    }


def _scenario_one_honest_path(
    g, behaviors, schedule, seed, instances, p_overhear, gamma, window, calibration_iterations,
) -> ScenarioReport:
    cal_cfg = TwoHopConfig(
        m=3, n=10, delta=2, p_s=p_overhear, p_relay=p_overhear, p_adv=0.0,
        iterations=calibration_iterations, seed=seed + 1,
    )
    threshold = calibrate_threshold(cal_cfg, gamma, window=window)
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
        if _last(transcript, "r") is not None:
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
    honest_watchers = {u for u in g.parents(injector)
                       if behaviors.get(u, _DEFAULT_BEHAVIOR).role == HONEST}
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


def _injector_outcome(transcript, injector, spec):
    """Did the injector's last packet corrupt the flow, and does it self-check?"""
    at = _last(transcript, injector)
    tx = transcript[at]
    inputs = sorted(tx.packet.coeffs)
    true = default_field(spec.n).lincomb(
        [tx.packet.coeffs[u] for u in inputs],
        [transcript[_last(transcript, u, at)].packet.payload for u in inputs],
    )
    return tx.packet.payload != true, destination_check(tx.packet, spec)


def _check_declared(field: str, names, nodes: frozenset[str]) -> None:
    undeclared = sorted(set(names) - nodes)
    if undeclared:
        raise ValueError(f"topology field {field!r} names undeclared node(s) {undeclared}")


def _is_names(value, count=None) -> bool:
    return (isinstance(value, list) and all(isinstance(v, str) for v in value)
            and count in (None, len(value)))


def _is_rate_edge(e) -> bool:  # a number, not a bool: JSON true is no 1
    return (isinstance(e, list) and len(e) == 3 and _is_names(e[:2])
            and isinstance(e[2], (int, float)) and not isinstance(e[2], bool))


# Every field a topology document may hold: its type, what an entry must be, the check.
_TOPOLOGY_FIELDS = {
    "nodes": (list, "a node name", lambda v: isinstance(v, str)),
    "links": (list, "a [sender, receiver] pair", lambda e: _is_names(e, 2)),
    "interference": (list, "a [speaker, listener, rate] triple, the rate a number", _is_rate_edge),
    "behaviors": (dict, "a behavior object", lambda b: isinstance(b, dict)),
    "schedule": (list, "a round: a list of node names", _is_names),
    "source_symbols": (dict, "an integer symbol", lambda v: type(v) is int),
}


def load_topology(doc) -> tuple[Hypergraph, dict[str, NodeBehavior], list[list[str]], dict]:
    """Parse a declarative topology document (dict or JSON file path).

    Raises ValueError naming the field when a field is unknown, missing
    (``nodes``, ``links``, ``schedule``) or of the wrong shape (and naming
    its first bad entry, as ``links[i]`` or ``source_symbols.name``), when an
    interference rate is outside [0, 0.5], when a behavior has an unknown
    or invalid entry, when a link, interference edge, schedule entry,
    behavior or ``source_symbols`` key names an undeclared node, when an
    interference edge is given twice, when a ``source_symbols`` key names a
    node with parents (only sources send one), when an honest node is given
    a positive ``p_adv``, when a number is a JSON boolean, or when a relay
    is scheduled with an empty inbox (replayed as ``run_round`` runs it).
    Whether a source symbol lies in the field is left to ``run_protocol``, which knows n.
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
        kind, entry, ok = _TOPOLOGY_FIELDS[field]
        if not isinstance(value, kind):
            container = "a list" if kind is list else "an object"
            raise ValueError(f"topology field {field!r} must be {container}, each entry {entry}")
        keys = value if kind is dict else range(len(value))
        bad = next((k for k in keys if not ok(value[k])), None)
        if bad is not None:  # named as behaviors are: field.key or field[i]
            name = f"{field}.{bad}" if kind is dict else f"{field}[{bad}]"
            raise ValueError(f"topology field {name!r} (an entry of {field!r}) must be {entry}")
    for field in ("nodes", "links", "schedule"):
        if field not in doc:
            raise ValueError(f"topology field {field!r} is missing")
    nodes = frozenset(doc["nodes"])
    for i, link in enumerate(doc["links"]):
        _check_declared(f"links[{i}]", link, nodes)
    interference = {}
    for i, (speaker, listener, rate) in enumerate(doc.get("interference", [])):
        _check_declared(f"interference[{i}]", (speaker, listener), nodes)
        try:
            Bsc(rate)
        except ValueError as exc:
            raise ValueError(f"topology field 'interference[{i}]': {exc}") from None
        if (speaker, listener) in interference:
            raise ValueError(f"topology field 'interference[{i}]': the edge {speaker} -> "
                             f"{listener} is already given a rate")
        interference[speaker, listener] = rate
    g = Hypergraph(nodes, frozenset(tuple(e) for e in doc["links"]), interference)
    behaviors = {}
    for name, spec in doc.get("behaviors", {}).items():
        boolean = next((key for key, value in spec.items() if isinstance(value, bool)), None)
        if boolean is not None:
            raise ValueError(f"topology field 'behaviors.{name}.{boolean}': got a boolean")
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
    filled = set()  # the nodes whose inbox holds a payload, as ``run_round`` fills them
    for i, transmitters in enumerate(schedule):
        _check_declared(f"schedule[{i}]", transmitters, g.nodes)
        for v in sorted(transmitters):
            if g.parents(v) and v not in filled:
                raise ValueError(f"topology field 'schedule[{i}]': relay {v} has nothing to send")
            filled = (filled - {v}) | g.children(v)
    source_symbols = dict(doc.get("source_symbols", {}))
    _check_declared("source_symbols", source_symbols, g.nodes)
    for name in source_symbols:
        if g.parents(name):
            raise ValueError(f"topology field 'source_symbols.{name}': {name} has parents, "
                             "so it codes what it receives and sends no source symbol")
    return g, behaviors, schedule, source_symbols


def write_trace(transcript: list[Transmission], path) -> None:
    """Dump the transcript as line-delimited JSON, one transmission per line."""
    with open(path, "w") as fh:
        for ev in transcript:
            line = {"round": ev.round_index, "sender": ev.sender, **asdict(ev.packet),
                    "delivered": ev.delivered, "overheard": ev.overheard}
            fh.write(json.dumps(line, sort_keys=True) + "\n")

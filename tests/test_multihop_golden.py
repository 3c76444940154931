"""Pinned outputs of the multi-hop simulator.

The values were recorded from the simulator before its schedule loops were
merged into one. Every random draw of a run (source symbols, coding
coefficients, corruption, overhearing noise, check decisions) feeds these
outputs, so a change in the order of the draws fails here.
"""

import dataclasses

import pytest

from algwatch.hashing import HashSpec
from algwatch.multihop import Hypergraph, NodeBehavior, TrustLedger, mincut_scenario, run_protocol

SPEC = HashSpec("affine", 10, 2, (1, 0))

# seed -> (w's p* samples of r, payload of every transmission, what w overheard of it)
PROTOCOL = {
    0: (
        [0.0004625165691025921, 0.002438134892504524],
        [871, 652, 5, 1015, 336, 911, 911, 928, 993, 949, 513, 185, 463, 422, 649, 550, 643, 881, 817, 923],
        [865, 137, None, 1015, 468, 967, None, 928, 995, 821, None, 185, 463, 503, None, 550, 643, 853, None, 154],
    ),
    1: (
        [0.0005375310704677786, 0.0006842205128076595, 0.0001752877158482351],
        [484, 524, 63, 829, 595, 521, 481, 2, 32, 707, 318, 767, 717, 777, 715, 560, 526, 766, 144, 999],
        [228, 524, None, 793, 83, 553, None, 66, 36, 707, None, 767, 733, 777, None, 688, 518, 758, None, 995],
    ),
    2: (
        [0.0005558899970308607],
        [857, 267, 593, 227, 648, 347, 388, 267, 522, 1005, 859, 876, 648, 572, 739, 678, 228, 754, 916, 110],
        [797, 267, None, 227, 640, 91, None, 425, 590, 461, None, 364, 680, 60, None, 678, 172, 730, None, 108],
    ),
}


@pytest.mark.parametrize("seed", sorted(PROTOCOL))
def test_run_protocol_golden(seed):
    g = Hypergraph(
        nodes=frozenset({"w", "s2", "s3", "r", "d"}),
        links=frozenset({("w", "r"), ("s2", "r"), ("s3", "r"), ("r", "d")}),
        interference={("s2", "w"): 0.1, ("s3", "w"): 0.1, ("r", "w"): 0.1},
    )
    behaviors = {
        "w": NodeBehavior("honest", check_probability=0.6),
        "r": NodeBehavior("adversarial", p_adv=0.3),
    }
    ledger = TrustLedger(0.005, window=5)
    transcript = run_protocol(g, behaviors, [["w", "s2", "s3"], ["r"]] * 5, SPEC, seed, ledger)
    samples, payloads, overheard = PROTOCOL[seed]
    assert ledger.pairs() == [("w", "r")]
    assert ledger.samples("w", "r") == samples
    assert [e.sender for e in transcript] == ["s2", "s3", "w", "r"] * 5
    assert [e.packet.payload for e in transcript] == payloads
    assert [e.overheard.get("w") for e in transcript] == overheard


@pytest.mark.parametrize("kind, corrupted, details", [
    ("all-parents-malicious", (False, True, True, True, True, True, False, False),
     {"injector": "v", "destination_check_passes": True, "honest_parents_of_injector": []}),
    ("all-children-malicious", (False, False, True, True, True, True, False, False),
     {"node_with_malicious_children": "v", "injector": "c",
      "destination_check_passes": True, "honest_parents_of_injector": []}),
])
def test_structural_scenarios_golden(kind, corrupted, details):
    reports = [mincut_scenario(kind, seed=s, p_adv=0.05) for s in range(8)]
    assert tuple(r.corrupted_delivered for r in reports) == corrupted
    for r in reports:
        assert dataclasses.asdict(r) == {
            "kind": kind, "corrupted_delivered": r.corrupted_delivered,
            "honest_watcher_exists": False, "detected": False,
            "detection_frequency": None, "details": details,
        }


@pytest.mark.parametrize("seed, threshold, frequency, corrupted", [
    (0, 0.0008196269532911484, 0.25, True),
    (1, 0.0007561652792299133, 0.5, False),
    (2, 0.000962650061418265, 0.75, False),
])
def test_one_honest_path_golden(seed, threshold, frequency, corrupted):
    report = mincut_scenario(
        "one-honest-path", seed=seed, instances=4, policed_samples=30, p_adv=0.02,
        window=5, calibration_iterations=200,
    )
    assert dataclasses.asdict(report) == {
        "kind": "one-honest-path", "corrupted_delivered": corrupted,
        "honest_watcher_exists": True, "detected": False,
        "detection_frequency": frequency,
        "details": {"threshold": threshold, "window": 5, "instances": 4},
    }


def test_one_honest_path_empty_schedule_golden():
    report = mincut_scenario(
        "one-honest-path", seed=0, instances=2, policed_samples=0, calibration_iterations=200,
    )
    assert dataclasses.asdict(report) == {
        "kind": "one-honest-path", "corrupted_delivered": False,
        "honest_watcher_exists": True, "detected": False, "detection_frequency": 0.0,
        "details": {"threshold": 0.003322107027295073, "window": 25, "instances": 2},
    }

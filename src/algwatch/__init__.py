"""Algebraic watchdog: probabilistic relay policing for wireless network coding.

Nodes exploit the broadcast medium to overhear their neighbors, infer via
a trellis what a downstream relay should be transmitting, and score the
relay's actual transmission with a consistency probability p*. The package
bundles the exact field/hash/channel primitives, the inference engine, the
closed-form detection analysis, Monte Carlo experiment harnesses, and a
multi-hop protocol simulator with an experiment CLI.
"""

from .analysis import (
    TwoHopGeometry,
    algebraic_check,
    binary_entropy,
    geometry_from_eps,
    matched_count_expected,
    matched_count_exponent_eps,
    misdetection_probability,
    undetected_prob_peer,
    undetected_prob_watchdog,
)
from .channel import (
    Bsc,
    ball_radius,
    ball_volume,
    flip_bits,
    hamming,
    log_likelihood,
    transmit,
)
from .gfield import GF2n, REDUCTION_POLYS, default_field
from .hashing import (
    HashSpec,
    collision_class,
    collision_list,
    hash_eval,
    hash_partition,
    sample_hash,
)
from .inference import (
    InferenceError,
    Overheard,
    TransitionRow,
    Trellis,
    Verdict,
    WatchdogObservation,
    build_and_run_trellis,
    consistency_probability,
    decide,
    inverse_transition,
    matched_codewords,
    transition_row,
)
from .multihop import (
    Hypergraph,
    NodeBehavior,
    ScenarioReport,
    Transmission,
    TrustLedger,
    build_observation,
    load_topology,
    mincut_scenario,
    police,
    run_protocol,
    run_round,
    unpoliced_pairs,
    write_trace,
)
from .packet import (
    Packet,
    corrupt_payload,
    destination_check,
    make_packet,
    search_corruption,
)
from .sim import (
    ExperimentStats,
    TwoHopConfig,
    brute_force_consistency,
    calibrate_threshold,
    collect_diagnostics,
    matched_count_trial,
    mean_matched_count,
    run_experiment,
    run_sweep,
    run_trial,
    simulate_observation,
)

__version__ = "0.1.0"

"""Single-sample posted-price matching: algorithms, oracles, and a harness.

Online max-weight matching where the only prior information is one sampled
value per edge.  The package implements the edge-arrival and bipartite
vertex-arrival threshold algorithms, their offline greedy-scan twins, a
truthful posted-price mechanism, exact offline oracles, adversarial arrival
strategies, and a Monte Carlo harness that certifies the expected-performance
guarantees empirically.
"""

from .adversary import OrderStrategy, make_controller, parse_order_spec
from .core import (
    AlgorithmView,
    ArrivalEvent,
    CapabilityError,
    ContractViolation,
    DrawnValue,
    Graph,
    InputError,
    Matching,
    PriceTable,
    Realization,
    RunRecord,
    validate_matching,
)
from .distributions import DistSpec, InstanceSpec, draw_realization
from .edge_arrival import EdgeArrivalTrace, run_offline_edge, run_online_edge
from .harness import (
    ExperimentConfig,
    RatioEstimate,
    TrialRow,
    estimate_ratio,
    resolve_order,
    save_results,
    trial_seed,
)
from .instances import (
    complete_bipartite,
    complete_graph,
    gnp_graph,
    load_instance,
    path_graph,
    save_instance,
    star_graph,
)
from .invariants import InvariantResult, SuiteConfig, SuiteReport, run_invariant_suite
from .oracle import greedy_matching, max_weight_matching
from .truthful import (
    MechanismOutcome,
    maximality_check,
    misreport_audit,
    run_truthful,
    sample_misreport,
)
from .vertex_arrival import build_safe_matching, run_offline_vertex, run_online_vertex

__version__ = "0.1.0"

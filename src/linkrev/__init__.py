"""Link reversal routing: schemes, simulator, and verifier.

The package models recovery of destination-oriented routing after network
failures: nodes with no outgoing link raise their local state until every
node again has a directed path to the destination.  Seven schemes are
implemented (neighbor-aware and neighbor-oblivious, full and partial
reversal, plus finite two-bit and one-bit variants) together with a naive
increment baseline, a deterministic round simulator with scripted
topology events, and a verifier for the structural properties the schemes
guarantee.
"""

from .errors import (
    AdditionForbiddenError,
    DisconnectedGraphError,
    EmptyNeighborhoodError,
    EmptyStuckSetError,
    EventError,
    ExplosionGuardError,
    HeightRangeError,
    LinkrevError,
    OverflowRiskError,
    PhaseAdjacencyError,
    ScenarioError,
    ScenarioFormatError,
    ScheduleError,
    SchemeMismatchError,
    UnknownNodeError,
)
from .model import (
    ALL_SCHEMES,
    CORE_SCHEMES,
    DESTINATION,
    CountedHeightState,
    FlagState,
    HeightAssignment,
    HeightState,
    LevelHeightState,
    PhaseState,
    RoutingDag,
    SchemeId,
    Topology,
    compare_states,
    forwarding_set,
    hop_count_heights,
    is_destination_oriented,
    link_points_from,
    orientation_predicate,
    routing_dag,
    sort_key,
    stuck_set,
)
from .scenario import (
    Scenario,
    SimEvent,
    load_scenario,
    parse_scenario,
    save_scenario,
    serialize_scenario,
)
from .schemes import (
    ThresholdSequence,
    apply_update,
    baseline_increment_update,
    closed_form_height,
    gb_full_update,
    gb_partial_update,
    initial_state,
    initial_states,
    no_full_update,
    no_partial_update,
    one_bit_update,
    state_bits,
    threshold,
    two_bit_update,
)
from .sim import (
    Outcome,
    Schedule,
    Simulation,
    StepRecord,
    Trace,
    default_step_limit,
    hello_round,
    run_scenario,
)
from .traceio import export_trace, trace_to_csv, trace_to_dot_frames, trace_to_jsonl, write_trace
from .verify import (
    CheckReport,
    Counterexample,
    EnumerationResult,
    check_determinism,
    check_initial_greedy_stability,
    check_order_invariance,
    check_reversal_semantics,
    check_scheme_equivalence,
    check_step_invariants,
    enumerate_all_schedules,
    standard_battery,
)

__version__ = "0.1.0"

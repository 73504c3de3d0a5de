"""States, orderings, and the induced orientation."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from linkrev import (
    DESTINATION,
    CountedHeightState,
    DisconnectedGraphError,
    FlagState,
    HeightAssignment,
    HeightState,
    LevelHeightState,
    PhaseAdjacencyError,
    PhaseState,
    RoutingDag,
    SchemeId,
    SchemeMismatchError,
    Topology,
    UnknownNodeError,
    compare_states,
    forwarding_set,
    hop_count_heights,
    link_points_from,
    routing_dag,
    sort_key,
    stuck_set,
)
from linkrev.model import (
    STATE_CLASSES,
    is_acyclic,
    is_destination_oriented,
    orientation_flips,
    orientation_predicate,
)
from linkrev.schemes import initial_states

H123 = HeightAssignment((1, 2, 3))


# --- heights and topology ----------------------------------------------------


def test_height_assignment_basics():
    assert H123.n == 3
    assert H123.max_height == 3
    assert H123.of(DESTINATION) == 0
    assert H123.of(2) == 2


@pytest.mark.parametrize("bad", [(0,), (-1, 2), (1, True), (1, 2.5)])
def test_height_assignment_rejects_nonpositive_values(bad):
    with pytest.raises(ValueError):
        HeightAssignment(bad)


def test_height_assignment_unknown_node():
    with pytest.raises(UnknownNodeError):
        H123.of(4)


def test_topology_build_canonicalizes_edges():
    topo = Topology.build(3, [(3, 1), (1, 0), (2, 3)])
    assert topo.edges == ((0, 1), (1, 3), (2, 3))
    assert topo.neighbors(3) == (1, 2)
    assert topo.neighbors(DESTINATION) == (1,)
    assert topo.has_node(DESTINATION) and topo.has_node(2) and not topo.has_node(9)


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(1, 1)], "self loop"),
        ([(0, 1), (1, 4)], "unknown node"),
        ([(0, 1), (1, 0)], "duplicate edge"),
    ],
)
def test_topology_build_rejects_bad_edges(edges, message):
    with pytest.raises(ValueError, match=message):
        Topology.build(3, edges)


def test_topology_build_requires_connectivity():
    with pytest.raises(DisconnectedGraphError):
        Topology.build(3, [(0, 1), (2, 3)])
    loose = Topology.build(3, [(0, 1), (2, 3)], require_connected=False)
    assert not loose.is_connected


def test_topology_without_drops_nodes_and_edges():
    topo = Topology.build(3, [(0, 1), (1, 2), (2, 3), (1, 3)])
    shrunk = topo.without(drop_nodes=(2,))
    assert shrunk.nodes == (1, 3)
    assert shrunk.edges == ((0, 1), (1, 3))
    cut = topo.without(drop_edges=((3, 1),))
    assert (1, 3) not in cut.edges
    with pytest.raises(ValueError):
        topo.without(drop_nodes=(DESTINATION,))


def test_hop_count_heights_chain_and_diamond():
    chain = Topology.build(3, [(0, 1), (1, 2), (2, 3)])
    assert hop_count_heights(chain).values == (1, 2, 3)
    diamond = Topology.build(3, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert hop_count_heights(diamond).values == (1, 1, 2)


def test_hop_count_heights_needs_connectivity():
    loose = Topology.build(2, [(0, 1)], require_connected=False)
    with pytest.raises(DisconnectedGraphError):
        hop_count_heights(loose)


# --- orderings ---------------------------------------------------------------


def test_sort_keys_by_scheme():
    assert sort_key(HeightState(2, 7), SchemeId.GB_FULL) == (7, 2)
    assert sort_key(HeightState(2, 7), SchemeId.BASELINE_INCREMENT) == (7, 2)
    assert sort_key(LevelHeightState(1, 2, -3), SchemeId.GB_PARTIAL) == (2, -3, 1)
    assert sort_key(CountedHeightState(4, 1, 9), SchemeId.NO_FULL) == (1, 9, 4)
    # the counted partial key flips the id tie-break sign on odd counts
    assert sort_key(CountedHeightState(4, 1, 9), SchemeId.NO_PARTIAL) == (1, 9, -4)
    assert sort_key(CountedHeightState(4, 2, 9), SchemeId.NO_PARTIAL) == (2, 9, 4)


@pytest.mark.parametrize("scheme", [SchemeId.TWO_BIT_FULL, SchemeId.ONE_BIT_FULL])
def test_sort_key_undefined_for_pairwise_schemes(scheme):
    state = PhaseState(1, 0) if scheme is SchemeId.TWO_BIT_FULL else FlagState(1, 0)
    with pytest.raises(SchemeMismatchError):
        sort_key(state, scheme)


def test_compare_states_never_ties():
    a, b = HeightState(1, 5), HeightState(2, 5)
    assert compare_states(a, b, SchemeId.GB_FULL) == -1
    assert compare_states(b, a, SchemeId.GB_FULL) == 1


def test_compare_states_rejects_mixed_or_same_node():
    with pytest.raises(SchemeMismatchError):
        compare_states(HeightState(1, 5), PhaseState(2, 1), SchemeId.GB_FULL)
    with pytest.raises(ValueError):
        compare_states(HeightState(1, 5), HeightState(1, 6), SchemeId.GB_FULL)


@given(
    ha=st.integers(1, 50),
    hb=st.integers(1, 50),
    ta=st.integers(0, 6),
    tb=st.integers(0, 6),
)
def test_compare_states_antisymmetric_for_counted(ha, hb, ta, tb):
    a = CountedHeightState(1, ta, ha)
    b = CountedHeightState(2, tb, hb)
    for scheme in (SchemeId.NO_FULL, SchemeId.NO_PARTIAL):
        assert compare_states(a, b, scheme) == -compare_states(b, a, scheme)


def test_phase_comparison_is_cyclic():
    heights = H123
    up = PhaseState(1, 1)
    down = PhaseState(2, 0)
    assert compare_states(up, down, SchemeId.TWO_BIT_FULL, heights) == 1
    assert compare_states(down, up, SchemeId.TWO_BIT_FULL, heights) == -1
    # the wrap: phase 0 beats phase 3
    assert compare_states(PhaseState(1, 0), PhaseState(2, 3), SchemeId.TWO_BIT_FULL, heights) == 1


def test_phase_gap_of_two_is_an_error():
    with pytest.raises(PhaseAdjacencyError):
        compare_states(PhaseState(1, 2), PhaseState(2, 0), SchemeId.TWO_BIT_FULL, H123)


def test_equal_phases_fall_back_to_initial_key():
    heights = H123
    a, b = PhaseState(1, 0), PhaseState(2, 0)  # initial heights 1 < 2
    assert compare_states(a, b, SchemeId.TWO_BIT_FULL, heights) == -1
    assert compare_states(a, b, SchemeId.TWO_BIT_PARTIAL, heights) == -1
    # odd phases reverse the initial order under the partial variant only
    a, b = PhaseState(1, 1), PhaseState(2, 1)
    assert compare_states(a, b, SchemeId.TWO_BIT_FULL, heights) == -1
    assert compare_states(a, b, SchemeId.TWO_BIT_PARTIAL, heights) == 1


def test_phase_comparison_needs_heights():
    with pytest.raises(ValueError):
        compare_states(PhaseState(1, 0), PhaseState(2, 1), SchemeId.TWO_BIT_FULL)


def test_flag_states_have_no_total_order():
    with pytest.raises(SchemeMismatchError):
        compare_states(FlagState(1, 0), FlagState(2, 1), SchemeId.ONE_BIT_FULL)


def test_flag_link_direction():
    heights = H123
    low, high = FlagState(1, 0), FlagState(2, 0)
    # equal flags keep the initial order: the higher initial key points down
    assert link_points_from(high, low, SchemeId.ONE_BIT_FULL, heights)
    assert not link_points_from(low, high, SchemeId.ONE_BIT_FULL, heights)
    # opposite flags reverse it
    flipped = FlagState(1, 1)
    assert link_points_from(flipped, high, SchemeId.ONE_BIT_FULL, heights)
    assert not link_points_from(high, flipped, SchemeId.ONE_BIT_FULL, heights)
    with pytest.raises(ValueError):
        link_points_from(low, high, SchemeId.ONE_BIT_FULL)


@given(
    flags=st.tuples(st.integers(0, 1), st.integers(0, 1)),
    heights=st.permutations([1, 2]),
)
def test_flag_links_always_have_a_direction(flags, heights):
    assignment = HeightAssignment(tuple(heights))
    a = FlagState(1, flags[0])
    b = FlagState(2, flags[1])
    forward = link_points_from(a, b, SchemeId.ONE_BIT_FULL, assignment)
    backward = link_points_from(b, a, SchemeId.ONE_BIT_FULL, assignment)
    assert forward != backward


def test_initial_ranks_follow_height_then_id():
    # heights 2 1 2 1: order D, 2, 4, 1, 3
    assert HeightAssignment((2, 1, 2, 1)).initial_ranks == (0, 3, 1, 4, 2)


def test_orientation_predicate_keeps_the_pairwise_errors():
    phase = orientation_predicate(SchemeId.TWO_BIT_FULL, H123)
    assert phase(PhaseState(1, 1), PhaseState(2, 0))
    with pytest.raises(PhaseAdjacencyError):
        phase(PhaseState(1, 2), PhaseState(2, 0))
    with pytest.raises(SchemeMismatchError):
        phase(PhaseState(1, 0), FlagState(2, 0))
    with pytest.raises(ValueError, match="same node"):
        phase(PhaseState(1, 0), PhaseState(1, 1))
    with pytest.raises(ValueError, match="needs the initial height"):
        orientation_predicate(SchemeId.ONE_BIT_FULL)(FlagState(1, 0), FlagState(2, 0))


@given(
    ta=st.integers(0, 3), tb=st.integers(0, 3), ha=st.integers(1, 9), hb=st.integers(1, 9),
    scheme=st.sampled_from(sorted(STATE_CLASSES, key=str)),
)
def test_orientation_predicate_is_antisymmetric(ta, tb, ha, hb, scheme):
    heights = HeightAssignment((ha, hb))
    cls = STATE_CLASSES[scheme]
    a, b = cls(1, *(ta,) * (len(cls._fields) - 1)), cls(2, *(tb,) * (len(cls._fields) - 1))
    points_from = orientation_predicate(scheme, heights)
    try:
        forward = points_from(a, b)
    except PhaseAdjacencyError:
        with pytest.raises(PhaseAdjacencyError):
            points_from(b, a)
        return
    assert forward != points_from(b, a)
    assert forward == link_points_from(a, b, scheme, heights)


# --- induced orientation -----------------------------------------------------


def _chain_setup():
    topo = Topology.build(3, [(0, 1), (1, 3), (2, 3)])
    heights = HeightAssignment((1, 2, 3))
    states = initial_states(SchemeId.NO_FULL, topo, heights)
    return topo, heights, states


def test_routing_dag_orients_each_edge_once():
    topo, heights, states = _chain_setup()
    dag = routing_dag(states, topo, SchemeId.NO_FULL, heights)
    assert dag.arcs == ((1, 0), (3, 1), (3, 2))
    assert dag.out_neighbors(3) == (1, 2)
    assert dag.edge_set == frozenset({(0, 1), (1, 3), (2, 3)})


def test_routing_dag_digest_is_stable_and_discriminating():
    topo, heights, states = _chain_setup()
    dag = routing_dag(states, topo, SchemeId.NO_FULL, heights)
    assert dag.digest() == dag.digest()
    other = RoutingDag(((1, 0), (1, 3), (3, 2)))
    assert dag.digest() != other.digest()
    assert len(dag.digest()) == 12


def test_stuck_set_matches_hand_computation():
    topo, heights, states = _chain_setup()
    dag = routing_dag(states, topo, SchemeId.NO_FULL, heights)
    assert stuck_set(dag, topo) == frozenset({2})
    assert not is_destination_oriented(dag, topo)


def test_forwarding_set_always_contains_destination():
    topo, heights, states = _chain_setup()
    assert forwarding_set(1, states, topo, SchemeId.NO_FULL, heights) == frozenset({0})
    assert forwarding_set(2, states, topo, SchemeId.NO_FULL, heights) == frozenset()
    assert forwarding_set(3, states, topo, SchemeId.NO_FULL, heights) == frozenset({1, 2})
    with pytest.raises(UnknownNodeError):
        forwarding_set(DESTINATION, states, topo, SchemeId.NO_FULL, heights)


def test_destination_oriented_iff_no_stuck_node():
    topo = Topology.build(3, [(0, 1), (1, 3), (2, 3)])
    heights = HeightAssignment((1, 2, 3))
    resolved = {
        1: CountedHeightState(1, 0, 1),
        2: CountedHeightState(2, 1, 5),
        3: CountedHeightState(3, 0, 3),
    }
    dag = routing_dag(resolved, topo, SchemeId.NO_FULL, heights)
    assert stuck_set(dag, topo) == frozenset()
    assert is_destination_oriented(dag, topo)


def test_is_acyclic_detects_a_cycle():
    assert is_acyclic(RoutingDag(((1, 2), (2, 3), (3, 1)))) is False
    assert is_acyclic(RoutingDag(((1, 2), (2, 3), (1, 3)))) is True


@st.composite
def _topology_and_heights(draw):
    n = draw(st.integers(2, 6))
    extra = st.lists(
        st.tuples(st.integers(0, n), st.integers(0, n)).filter(lambda e: e[0] != e[1]),
        max_size=8,
    )
    edges = {(i - 1 if i > 1 else 0, i) for i in range(1, n + 1)}  # path keeps it connected
    for a, b in draw(extra):
        edges.add((min(a, b), max(a, b)))
    heights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    return Topology.build(n, edges), HeightAssignment(tuple(heights))


@given(data=_topology_and_heights(), scheme=st.sampled_from(
    [SchemeId.GB_FULL, SchemeId.GB_PARTIAL, SchemeId.NO_FULL, SchemeId.NO_PARTIAL]
))
def test_total_order_schemes_induce_acyclic_orientations(data, scheme):
    topo, heights = data
    states = initial_states(scheme, topo, heights)
    dag = routing_dag(states, topo, scheme, heights)
    assert is_acyclic(dag)
    # adjacent nodes cannot both be stuck: every link has an outgoing endpoint
    stuck = stuck_set(dag, topo)
    for a, b in topo.edges:
        assert not (a in stuck and b in stuck)


def test_orientation_flips_reports_changed_edges_only():
    before = RoutingDag(((1, 0), (3, 1), (3, 2)))
    after = RoutingDag(((1, 0), (1, 3), (2, 3)))
    assert orientation_flips(before, after) == ((1, 3), (2, 3))
    assert orientation_flips(before, before) == ()

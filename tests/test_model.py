"""States, orderings, and the induced orientation."""

from __future__ import annotations

import random
from collections import Counter
from graphlib import CycleError, TopologicalSorter
from itertools import starmap

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
    SchemeId,
    SchemeMismatchError,
    Topology,
    UnknownNodeError,
    hop_count_heights,
    routing_dag,
)
from linkrev.generate import _random_connected_edges
from linkrev.model import (
    arc_label,
    arcs_digest,
    destination_reach,
    is_destination_oriented,
    orientation_predicate,
)
from linkrev.schemes import SPECS, initial_states
from oracles import orientation_flips, reaching_destination, stuck_set

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
    loose = Topology.build(3, [(0, 1), (1, 2), (2, 3)]).without(drop_edges=((1, 2),))
    assert not loose.is_connected


def test_topology_without_drops_nodes_and_edges():
    topo = Topology.build(3, [(0, 1), (1, 2), (2, 3), (1, 3)])
    shrunk = topo.without(drop_nodes=(2,))
    assert shrunk.nodes == (1, 3)
    assert shrunk.edges == ((0, 1), (1, 3))
    cut = topo.without(drop_edges=((3, 1),))
    assert (1, 3) not in cut.edges
    assert topo.edge_index == {(0, 1): 0, (1, 2): 1, (1, 3): 2, (2, 3): 3}
    assert shrunk.edge_index == {(0, 1): 0, (1, 3): 1}
    assert cut.edge_index == {(0, 1): 0, (1, 2): 1, (2, 3): 2}
    with pytest.raises(ValueError):
        topo.without(drop_nodes=(DESTINATION,))


def test_the_arc_table_holds_both_arcs_of_each_edge():
    topo = Topology.build(3, [(0, 1), (1, 2), (2, 3), (1, 3)])
    assert topo.arc_table == (((0, 1), (1, 0)), ((1, 2), (2, 1)), ((1, 3), (3, 1)), ((2, 3), (3, 2)))
    assert all(row[0] is edge for row, edge in zip(topo.arc_table, topo.edges))
    assert topo.arc_table is topo.arc_table


def test_the_label_slots_hold_each_links_slice_of_the_digest_text():
    # Ids of one and two digits, so the slices have different lengths.
    topo = Topology.build(12, [(0, 12)] + [(i, i + 1) for i in range(1, 12)])
    text = ";".join(arc_label(*edge) for edge in topo.edges).encode("ascii")
    assert set(topo.label_slots) == set(topo.edges)
    for k, edge in enumerate(topo.edges):
        position, lo, hi, fwd, back = topo.label_slots[edge]
        assert position == k and text[lo:hi] == fwd == arc_label(*edge).encode("ascii")
        assert back == arc_label(edge[1], edge[0]).encode("ascii")
    assert topo.label_slots is topo.label_slots


def test_the_link_rows_hold_each_ordinary_link_once_per_end_with_its_arcs_out_and_in():
    topo = Topology.build(3, [(0, 1), (1, 2), (2, 3), (1, 3)])
    e12, e13, e23 = topo.edges[1:]
    assert topo.link_rows == (
        (),
        ((1, 2, e12, (2, 1)), (2, 3, e13, (3, 1))),
        ((1, 1, (2, 1), e12), (3, 3, e23, (3, 2))),
        ((2, 1, (3, 1), e13), (3, 2, (3, 2), e23)),
    )
    assert topo.link_rows is topo.link_rows
    # A view keeps the ids, and positions are in its own edges; a node it
    # drops has no rows, like the destination.
    view = topo.without(drop_nodes=(2,))
    assert view.edges == ((0, 1), (1, 3))
    assert view.link_rows == ((), ((1, 3, e13, (3, 1)),), (), ((1, 1, (3, 1), e13),))
    assert topo.without(drop_nodes=(3,)).probe_rows == (None, None, (2, (1,)))


@given(n=st.integers(1, 12), seed=st.integers(0, 10_000))
def test_link_and_probe_rows_follow_the_arc_and_probe_tables(n, seed):
    topo = Topology.build(n, _random_connected_edges(random.Random(seed), n))
    seen = Counter()
    assert len(topo.link_rows) == len(topo.probe_rows) == n + 1
    assert topo.link_rows[DESTINATION] == () and topo.probe_rows[DESTINATION] is None
    for i in topo.nodes:
        rows = topo.link_rows[i]
        assert [k for k, *_ in rows] == list(topo.ordinary_links[i])
        for k, j, out_arc, in_arc in rows:
            edge, back = topo.arc_table[k]
            assert DESTINATION not in edge and {i, j} == set(edge)
            assert (out_arc, in_arc) == ((i, j), (j, i))
            # The arc table's own objects, which the kernel compares by identity.
            assert {id(out_arc), id(in_arc)} == {id(edge), id(back)}
            seen[k] += 1
    assert seen == {k: 2 for k, (a, _) in enumerate(topo.edges) if a != DESTINATION}
    assert [row for row in topo.probe_rows if row is not None] == list(topo.probe_table)
    assert all(topo.probe_rows[row[0]] is row for row in topo.probe_table)


@given(n=st.integers(1, 12), seed=st.integers(0, 10_000), drop=st.integers(1, 12))
def test_closed_rows_hold_each_node_its_ordinary_neighbors_and_their_probe_rows(n, seed, drop):
    topo = Topology.build(n, _random_connected_edges(random.Random(seed), n))
    # A view that drops a node keeps the ids; the dropped one has no row, like the destination.
    for view in (topo, topo.without(drop_nodes=(min(drop, n),))):
        closed = view.closed_rows
        assert closed is view.closed_rows
        assert len(closed) == len(view.link_rows) and closed[DESTINATION] == ((), ())
        for i in range(1, len(closed)):
            nodes, rows = closed[i]
            if not view.has_node(i):
                assert (nodes, rows) == ((), ())
                continue
            assert nodes == (i, *[j for _, j, *_ in view.link_rows[i]])
            assert DESTINATION not in nodes
            # The probe_rows objects themselves, in the order of the nodes.
            expected = [view.probe_rows[j] for j in nodes if view.probe_rows[j] is not None]
            assert len(rows) == len(expected) and all(a is b for a, b in zip(rows, expected))


def test_topology_without_is_memoized_by_its_canonical_arguments():
    topo = Topology.build(4, [(0, 1), (1, 2), (2, 3), (1, 3), (3, 4)])
    view = topo.without(drop_nodes=(2, 4), drop_edges=((1, 3), (0, 1)))
    # The same sets of nodes and links, in another order and orientation.
    assert topo.without(drop_nodes=[4, 2, 4], drop_edges=[(1, 0), (3, 1)]) is view
    assert topo.without(drop_nodes={2, 4}, drop_edges=iter([(3, 1), (1, 0)])) is view
    assert view.nodes == (1, 3) and view.edges == ()
    assert topo.without() is topo.without(drop_nodes=(), drop_edges=())
    assert topo.without() == topo
    others = [
        topo.without(drop_nodes=(2,)),
        topo.without(drop_nodes=(4,)),
        topo.without(drop_nodes=(2, 4)),
        topo.without(drop_edges=((1, 3),)),
        topo.without(drop_nodes=(2, 4), drop_edges=((1, 3),)),
        topo.without(),
        view,
    ]
    assert len({id(t) for t in others}) == len(others)
    # Each view keeps its own memo: a view of a view is not a view of topo.
    assert view.without(drop_nodes=(1,)) is not topo.without(drop_nodes=(1,))
    with pytest.raises(ValueError):
        topo.without(drop_nodes=(DESTINATION,))


def test_hop_count_heights_chain_and_diamond():
    chain = Topology.build(3, [(0, 1), (1, 2), (2, 3)])
    assert hop_count_heights(chain).values == (1, 2, 3)
    diamond = Topology.build(3, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert hop_count_heights(diamond).values == (1, 1, 2)


def test_hop_count_heights_needs_connectivity():
    loose = Topology.build(2, [(0, 1), (1, 2)]).without(drop_edges=((1, 2),))
    with pytest.raises(DisconnectedGraphError):
        hop_count_heights(loose)


# --- orderings ---------------------------------------------------------------


def test_sort_keys_by_scheme():
    def key(state, scheme):
        return SPECS[scheme].sort_key(state)

    assert key(HeightState(2, 7), SchemeId.GB_FULL) == (7, 2)
    assert key(HeightState(2, 7), SchemeId.BASELINE_INCREMENT) == (7, 2)
    assert key(LevelHeightState(1, 2, -3), SchemeId.GB_PARTIAL) == (2, -3, 1)
    assert key(CountedHeightState(4, 1, 9), SchemeId.NO_FULL) == (1, 9, 4)
    # the counted partial key flips the id tie-break sign on odd counts
    assert key(CountedHeightState(4, 1, 9), SchemeId.NO_PARTIAL) == (1, 9, -4)
    assert key(CountedHeightState(4, 2, 9), SchemeId.NO_PARTIAL) == (2, 9, 4)


#: Each ordered scheme's key, spelled out field by field.
DOCUMENTED_KEYS = {
    SchemeId.GB_FULL: lambda s: (s.height, s.node),
    SchemeId.BASELINE_INCREMENT: lambda s: (s.height, s.node),
    SchemeId.GB_PARTIAL: lambda s: (s.level, s.height, s.node),
    SchemeId.NO_FULL: lambda s: (s.updates, s.height, s.node),
    SchemeId.NO_PARTIAL: lambda s: (s.updates, s.height, -s.node if s.updates % 2 else s.node),
}

_int64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def _ordered_states(draw):
    """A scheme with a sort key and one of its states, with any field values."""
    scheme = draw(st.sampled_from(sorted(DOCUMENTED_KEYS, key=str)))
    cls = SPECS[scheme].state
    return scheme, cls(draw(st.integers(1, 10**6)), *(draw(_int64) for _ in cls._fields[1:]))


def test_the_documented_keys_cover_every_ordered_scheme():
    assert set(DOCUMENTED_KEYS) == {s for s, spec in SPECS.items() if spec.sort_key is not None}


@given(drawn=_ordered_states())
def test_sort_keys_are_their_documented_field_tuples(drawn):
    scheme, state = drawn
    assert SPECS[scheme].sort_key(state) == DOCUMENTED_KEYS[scheme](state)


@given(drawn=_ordered_states(), other_node=st.integers(1, 10**6))
def test_ordered_predicates_reject_mixed_types_and_one_node(drawn, other_node):
    scheme, state = drawn
    points_from = orientation_predicate(scheme, H123)
    cls = next(spec.state for spec in SPECS.values() if spec.state is not type(state))
    foreign = cls(other_node, *[1] * (len(cls._fields) - 1))
    for a, b in ((state, foreign), (foreign, state), (state, tuple(state))):
        with pytest.raises(SchemeMismatchError):
            points_from(a, b)
    with pytest.raises(ValueError, match="same node"):
        points_from(state, state)


@pytest.mark.parametrize("scheme", [SchemeId.TWO_BIT_FULL, SchemeId.ONE_BIT_FULL])
def test_sort_key_undefined_for_pairwise_schemes(scheme):
    assert SPECS[scheme].sort_key is None
    assert SPECS[scheme].pairwise is not None


def test_link_points_from_never_ties():
    points_from = orientation_predicate(SchemeId.GB_FULL, H123)
    a, b = HeightState(1, 5), HeightState(2, 5)
    assert not points_from(a, b)
    assert points_from(b, a)


def test_link_points_from_rejects_mixed_or_same_node():
    points_from = orientation_predicate(SchemeId.GB_FULL, H123)
    with pytest.raises(SchemeMismatchError):
        points_from(HeightState(1, 5), PhaseState(2, 1))
    with pytest.raises(ValueError):
        points_from(HeightState(1, 5), HeightState(1, 6))


@given(
    ha=st.integers(1, 50),
    hb=st.integers(1, 50),
    ta=st.integers(0, 6),
    tb=st.integers(0, 6),
)
def test_link_points_from_antisymmetric_for_counted(ha, hb, ta, tb):
    a = CountedHeightState(1, ta, ha)
    b = CountedHeightState(2, tb, hb)
    for scheme in (SchemeId.NO_FULL, SchemeId.NO_PARTIAL):
        points_from = orientation_predicate(scheme, H123)
        assert points_from(a, b) != points_from(b, a)


def test_phase_comparison_is_cyclic():
    points_from = orientation_predicate(SchemeId.TWO_BIT_FULL, H123)
    up = PhaseState(1, 1)
    down = PhaseState(2, 0)
    assert points_from(up, down)
    assert not points_from(down, up)
    # the wrap: phase 0 beats phase 3
    assert points_from(PhaseState(1, 0), PhaseState(2, 3))


def test_phase_gap_of_two_is_an_error():
    with pytest.raises(PhaseAdjacencyError):
        orientation_predicate(SchemeId.TWO_BIT_FULL, H123)(PhaseState(1, 2), PhaseState(2, 0))


def test_equal_phases_fall_back_to_initial_key():
    full = orientation_predicate(SchemeId.TWO_BIT_FULL, H123)
    partial = orientation_predicate(SchemeId.TWO_BIT_PARTIAL, H123)
    a, b = PhaseState(1, 0), PhaseState(2, 0)  # initial heights 1 < 2
    assert not full(a, b)
    assert not partial(a, b)
    # odd phases reverse the initial order under the partial variant only
    a, b = PhaseState(1, 1), PhaseState(2, 1)
    assert not full(a, b)
    assert partial(a, b)


def test_flag_states_have_no_total_order():
    # Flags 1, 0, 1 over initial heights 1 < 2 < 3 orient the triangle
    # 1 -> 2 -> 3 -> 1, which no total order can.
    a, b, c = FlagState(1, 1), FlagState(2, 0), FlagState(3, 1)
    for x, y in ((a, b), (b, c), (c, a)):
        assert orientation_predicate(SchemeId.ONE_BIT_FULL, H123)(x, y)
    assert SPECS[SchemeId.ONE_BIT_FULL].sort_key is None


def test_flag_link_direction():
    points_from = orientation_predicate(SchemeId.ONE_BIT_FULL, H123)
    low, high = FlagState(1, 0), FlagState(2, 0)
    # equal flags keep the initial order: the higher initial key points down
    assert points_from(high, low)
    assert not points_from(low, high)
    # opposite flags reverse it
    flipped = FlagState(1, 1)
    assert points_from(flipped, high)
    assert not points_from(high, flipped)


@given(
    flags=st.tuples(st.integers(0, 1), st.integers(0, 1)),
    heights=st.permutations([1, 2]),
)
def test_flag_links_always_have_a_direction(flags, heights):
    assignment = HeightAssignment(tuple(heights))
    a = FlagState(1, flags[0])
    b = FlagState(2, flags[1])
    points_from = orientation_predicate(SchemeId.ONE_BIT_FULL, assignment)
    assert points_from(a, b) != points_from(b, a)


@pytest.mark.parametrize("scheme", [s for s in SchemeId if SPECS[s].sort_key is not None])
def test_a_sort_key_predicate_is_shared_by_every_height_assignment(scheme):
    assert orientation_predicate(scheme, H123) is orientation_predicate(scheme, HeightAssignment((3, 1, 2)))


@pytest.mark.parametrize(
    ("scheme", "state"), [(SchemeId.ONE_BIT_FULL, FlagState), (SchemeId.TWO_BIT_FULL, PhaseState)]
)
def test_a_tie_broken_predicate_reads_its_own_height_assignment(scheme, state):
    a, b = state(1, 0), state(2, 0)
    # Equal flags or phases keep the initial order, which the swapped heights reverse.
    assert orientation_predicate(scheme, HeightAssignment((2, 1)))(a, b)
    assert not orientation_predicate(scheme, HeightAssignment((1, 2)))(a, b)


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


@given(
    ta=st.integers(0, 3), tb=st.integers(0, 3), ha=st.integers(1, 9), hb=st.integers(1, 9),
    scheme=st.sampled_from(sorted(SPECS, key=str)),
)
def test_orientation_predicate_is_antisymmetric(ta, tb, ha, hb, scheme):
    heights = HeightAssignment((ha, hb))
    cls = SPECS[scheme].state
    a, b = cls(1, *(ta,) * (len(cls._fields) - 1)), cls(2, *(tb,) * (len(cls._fields) - 1))
    points_from = orientation_predicate(scheme, heights)
    try:
        forward = points_from(a, b)
    except PhaseAdjacencyError:
        with pytest.raises(PhaseAdjacencyError):
            points_from(b, a)
        return
    assert forward != points_from(b, a)


# --- induced orientation -----------------------------------------------------


def _chain_setup():
    topo = Topology.build(3, [(0, 1), (1, 3), (2, 3)])
    heights = HeightAssignment((1, 2, 3))
    states = initial_states(SchemeId.NO_FULL, topo, heights)
    return topo, heights, states


def _out_neighbors(arcs, i):
    return tuple(d for s, d in arcs if s == i)


def _digest(arcs):
    return arcs_digest(starmap(arc_label, arcs))


def test_routing_dag_orients_each_edge_once():
    topo, heights, states = _chain_setup()
    arcs = routing_dag(states, topo, SchemeId.NO_FULL, heights)
    assert arcs == ((1, 0), (3, 1), (3, 2))
    assert type(arcs) is tuple
    assert _out_neighbors(arcs, 3) == (1, 2)
    assert sorted(tuple(sorted(arc)) for arc in arcs) == [(0, 1), (1, 3), (2, 3)]


def test_routing_dag_digest_is_stable_and_discriminating():
    topo, heights, states = _chain_setup()
    arcs = routing_dag(states, topo, SchemeId.NO_FULL, heights)
    assert _digest(arcs) == _digest(routing_dag(states, topo, SchemeId.NO_FULL, heights))
    assert _digest(arcs) != _digest(((1, 0), (1, 3), (3, 2)))
    assert len(_digest(arcs)) == 12


def test_stuck_set_matches_hand_computation():
    topo, heights, states = _chain_setup()
    arcs = routing_dag(states, topo, SchemeId.NO_FULL, heights)
    assert stuck_set(arcs, topo) == frozenset({2})
    assert not is_destination_oriented(arcs, topo)


def test_links_point_into_the_destination_and_down_the_order():
    topo, heights, states = _chain_setup()
    points_from = orientation_predicate(SchemeId.NO_FULL, heights)
    assert points_from(states[3], states[1]) and points_from(states[3], states[2])
    assert not points_from(states[1], states[3]) and not points_from(states[2], states[3])
    arcs = routing_dag(states, topo, SchemeId.NO_FULL, heights)
    assert [_out_neighbors(arcs, i) for i in (DESTINATION, 1, 2, 3)] == [(), (0,), (), (1, 2)]


def test_destination_oriented_iff_no_stuck_node():
    topo = Topology.build(3, [(0, 1), (1, 3), (2, 3)])
    heights = HeightAssignment((1, 2, 3))
    resolved = {
        1: CountedHeightState(1, 0, 1),
        2: CountedHeightState(2, 1, 5),
        3: CountedHeightState(3, 0, 3),
    }
    arcs = routing_dag(resolved, topo, SchemeId.NO_FULL, heights)
    assert stuck_set(arcs, topo) == frozenset()
    assert is_destination_oriented(arcs, topo)


def _cyclic(arcs) -> bool:
    """graphlib's verdict, kept independent of the package's own cycle search."""
    sorter = TopologicalSorter()
    for s, d in arcs:
        sorter.add(d, s)
    try:
        sorter.prepare()
    except CycleError:
        return True
    return False


def _random_orientations(rng: random.Random, topo: Topology) -> list[tuple[tuple[int, int], ...]]:
    """Coin-flip orientations, often cyclic, and rank orientations, acyclic and often oriented."""
    flips = [
        tuple((a, b) if rng.random() < 0.5 else (b, a) for a, b in topo.edges) for _ in range(6)
    ]
    ranked = []
    for _ in range(6):
        rank = {i: rng.random() for i in topo.nodes}
        rank[DESTINATION] = -1.0
        ranked.append(tuple((a, b) if rank[a] > rank[b] else (b, a) for a, b in topo.edges))
    return flips + ranked


def test_the_reachability_memo_answers_as_a_fresh_search():
    """On a cold memo and a warm one, and on two topologies sharing the arcs.

    The awake topology without a sleeper has the arcs the live one is asked
    about too, but not the sleeper: a memo that kept verdicts by arcs alone
    would answer one topology with the other's verdict.
    """
    rng = random.Random(15)
    seen: Counter = Counter()
    for _ in range(60):
        n = rng.randint(2, 9)
        live = Topology.build(n, _random_connected_edges(rng, n))
        awake = live.without(drop_nodes=(rng.randint(1, n),))
        orientations = _random_orientations(rng, awake)
        for _warm in range(2):
            for arcs in orientations:
                fresh = reaching_destination(arcs)
                for topo in (awake, live):
                    oriented = set(topo.nodes) <= fresh
                    assert destination_reach(arcs, topo) == fresh
                    assert destination_reach(list(arcs), topo) == fresh
                    assert is_destination_oriented(arcs, topo) is oriented
                    assert is_destination_oriented(list(arcs), topo) is oriented
                seen["cyclic" if _cyclic(arcs) else "acyclic"] += 1
                seen["oriented" if set(awake.nodes) <= fresh else "not oriented"] += 1
    assert min(seen[k] for k in ("cyclic", "acyclic", "oriented", "not oriented")) > 20, seen


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
    arcs = routing_dag(states, topo, scheme, heights)
    assert not _cyclic(arcs)
    # adjacent nodes cannot both be stuck: every link has an outgoing endpoint
    stuck = stuck_set(arcs, topo)
    for a, b in topo.edges:
        assert not (a in stuck and b in stuck)


def test_orientation_flips_reports_changed_edges_only():
    before = ((1, 0), (3, 1), (3, 2))
    after = ((1, 0), (1, 3), (2, 3))
    assert orientation_flips(before, after) == ((1, 3), (2, 3))
    assert orientation_flips(before, before) == ()

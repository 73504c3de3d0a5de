"""Update rules: oracle values, closed forms, bands, and obliviousness."""

from __future__ import annotations

import ast
import inspect
import json
from itertools import starmap
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import linkrev

from linkrev import (
    CountedHeightState,
    EmptyNeighborhoodError,
    FlagState,
    HeightAssignment,
    HeightState,
    LevelHeightState,
    OverflowRiskError,
    PhaseState,
    Scenario,
    Schedule,
    SchemeId,
    SchemeMismatchError,
    Simulation,
    Topology,
    apply_update,
    baseline_increment_update,
    closed_form_height,
    gb_full_update,
    gb_partial_update,
    no_full_update,
    no_partial_update,
    one_bit_update,
    run_scenario,
    state_bits,
    threshold,
    two_bit_update,
)
from linkrev.model import arc_label, arcs_digest, routing_dag
from linkrev.schemes import (
    ALL_SCHEMES,
    CORE_SCHEMES,
    INT63_MAX,
    SPECS,
    initial_states,
)
from linkrev.traceio import trace_to_jsonl


# --- threshold sequence ------------------------------------------------------


@pytest.mark.parametrize(
    "updates, max_height, expected",
    [
        (0, 3, 0),
        (1, 3, 7),
        (1, 4, 9),
        (2, 4, 18),
        (3, 4, 36),
        (2, 3, 14),
    ],
)
def test_threshold_oracle_values(updates, max_height, expected):
    assert threshold(updates, max_height) == expected


@given(updates=st.integers(1, 40), max_height=st.integers(1, 1000))
def test_threshold_doubles_after_the_first_band(updates, max_height):
    assert threshold(updates + 1, max_height) == 2 * threshold(updates, max_height)


def test_threshold_rejects_bad_arguments():
    with pytest.raises(ValueError):
        threshold(-1, 3)
    with pytest.raises(ValueError):
        threshold(1, 0)
    with pytest.raises(OverflowRiskError):
        threshold(80, 5)


def test_threshold_starts_at_zero_and_doubles_from_its_second_term():
    assert [threshold(t, 3) for t in range(5)] == [0, 7, 14, 28, 56]


def test_no_partial_update_reflects_off_the_next_threshold():
    own = CountedHeightState(1, 0, 2)
    first = no_partial_update(own, 3)
    assert first == CountedHeightState(1, 1, threshold(1, 3) - 2) == CountedHeightState(1, 1, 5)
    assert no_partial_update(first, 3) == CountedHeightState(1, 2, threshold(2, 3) - 5)
    assert list(inspect.signature(no_partial_update).parameters) == ["own", "max_height"]


# --- closed forms checked against iterated rules -----------------------------


@pytest.mark.parametrize(
    "scheme, updates, initial, max_height, expected",
    [
        (SchemeId.NO_FULL, 0, 3, 5, 3),
        (SchemeId.NO_FULL, 4, 3, 5, 23),
        (SchemeId.NO_PARTIAL, 0, 2, 3, 2),
        (SchemeId.NO_PARTIAL, 1, 2, 3, 5),
        (SchemeId.NO_PARTIAL, 2, 2, 3, 9),
        (SchemeId.NO_PARTIAL, 3, 2, 3, 19),
    ],
)
def test_closed_form_oracle_values(scheme, updates, initial, max_height, expected):
    assert closed_form_height(scheme, updates, initial, max_height) == expected


def test_closed_form_undefined_for_other_schemes():
    with pytest.raises(SchemeMismatchError):
        closed_form_height(SchemeId.GB_FULL, 1, 1, 1)
    with pytest.raises(ValueError):
        closed_form_height(SchemeId.NO_FULL, -1, 1, 1)


@given(
    initial=st.integers(1, 20),
    extra=st.integers(0, 20),
    steps=st.integers(0, 12),
)
def test_closed_forms_match_iterated_updates(initial, extra, steps):
    max_height = initial + extra
    full = CountedHeightState(1, 0, initial)
    partial = CountedHeightState(1, 0, initial)
    for t in range(1, steps + 1):
        full = no_full_update(full, max_height)
        partial = no_partial_update(partial, max_height)
        assert full == CountedHeightState(1, t, closed_form_height(SchemeId.NO_FULL, t, initial, max_height))
        assert partial == CountedHeightState(
            1, t, closed_form_height(SchemeId.NO_PARTIAL, t, initial, max_height)
        )


@given(
    initial=st.integers(1, 20),
    extra=st.integers(0, 20),
    updates=st.integers(0, 12),
)
def test_heights_stay_inside_their_bands(initial, extra, updates):
    max_height = initial + extra
    h_full = closed_form_height(SchemeId.NO_FULL, updates, initial, max_height)
    assert updates * max_height < h_full <= (updates + 1) * max_height
    h_partial = closed_form_height(SchemeId.NO_PARTIAL, updates, initial, max_height)
    if updates:
        assert threshold(updates - 1, max_height) < h_partial < threshold(updates, max_height)


@given(
    a=st.integers(1, 10),
    gap=st.integers(1, 10),
    updates=st.integers(0, 10),
)
def test_partial_reflection_alternates_height_order(a, gap, updates):
    """Within one band the reflection reverses the order of equal-count peers."""
    b = a + gap
    max_height = b
    ha = closed_form_height(SchemeId.NO_PARTIAL, updates, a, max_height)
    hb = closed_form_height(SchemeId.NO_PARTIAL, updates, b, max_height)
    if updates % 2 == 0:
        assert ha < hb
    else:
        assert ha > hb


# --- individual rules --------------------------------------------------------


def test_gb_full_update_climbs_above_highest_neighbor():
    own = HeightState(2, 1)
    neighbors = [HeightState(1, 4), HeightState(3, 2)]
    assert gb_full_update(own, neighbors) == HeightState(2, 5)
    with pytest.raises(EmptyNeighborhoodError):
        gb_full_update(own, [])


def test_gb_partial_update_moves_one_level_past_the_lowest():
    own = LevelHeightState(2, 0, 1)
    # no neighbor on the new level: the height survives unchanged
    neighbors = [LevelHeightState(1, 0, 4), LevelHeightState(3, 0, 2)]
    assert gb_partial_update(own, neighbors) == LevelHeightState(2, 1, 1)
    # neighbors already on the new level: drop just below their lowest height
    neighbors = [LevelHeightState(1, 1, 4), LevelHeightState(3, 1, 2)]
    assert gb_partial_update(own, neighbors) == LevelHeightState(2, 2, 1)
    mixed = [LevelHeightState(1, 0, 4), LevelHeightState(3, 1, 2)]
    assert gb_partial_update(own, mixed) == LevelHeightState(2, 1, 1)
    with pytest.raises(EmptyNeighborhoodError):
        gb_partial_update(own, [])


def test_gb_partial_update_slots_below_new_level_peers():
    own = LevelHeightState(2, 0, 9)
    mixed = [
        LevelHeightState(1, 0, 4),   # keeps the minimum level at 0
        LevelHeightState(3, 1, 5),   # already on the target level
        LevelHeightState(4, 1, 7),
    ]
    assert gb_partial_update(own, mixed) == LevelHeightState(2, 1, 4)


def test_two_bit_update_wraps():
    assert two_bit_update(PhaseState(1, 0)) == PhaseState(1, 1)
    assert two_bit_update(PhaseState(1, 3)) == PhaseState(1, 0)


def test_one_bit_update_toggles():
    assert one_bit_update(FlagState(1, 0)) == FlagState(1, 1)
    assert one_bit_update(FlagState(1, 1)) == FlagState(1, 0)


def test_baseline_update_increments():
    assert baseline_increment_update(HeightState(1, 7)) == HeightState(1, 8)


def test_overflow_guards_fire():
    with pytest.raises(OverflowRiskError):
        no_full_update(CountedHeightState(1, 0, INT63_MAX), 1)
    with pytest.raises(OverflowRiskError):
        baseline_increment_update(HeightState(1, INT63_MAX))
    with pytest.raises(OverflowRiskError):
        gb_full_update(HeightState(1, 1), [HeightState(2, INT63_MAX)])


# --- obliviousness is structural ---------------------------------------------


OBLIVIOUS_RULES = [no_full_update, no_partial_update, two_bit_update, one_bit_update,
                   baseline_increment_update]


@pytest.mark.parametrize("rule", OBLIVIOUS_RULES)
def test_oblivious_rules_accept_no_neighbor_states(rule):
    params = inspect.signature(rule).parameters
    assert "neighbors" not in params
    for name in params:
        assert "neighbor" not in name


def test_aware_rules_require_neighbor_states():
    assert "neighbors" in inspect.signature(gb_full_update).parameters
    assert "neighbors" in inspect.signature(gb_partial_update).parameters


def test_apply_update_dispatches_without_neighbors_for_oblivious_schemes():
    heights = HeightAssignment((1, 2, 3))
    own = CountedHeightState(2, 0, 2)
    assert apply_update(SchemeId.NO_FULL, own, None, heights) == CountedHeightState(2, 1, 5)
    assert apply_update(SchemeId.NO_PARTIAL, own, None, heights) == CountedHeightState(2, 1, 5)
    assert apply_update(SchemeId.TWO_BIT_FULL, PhaseState(2, 3), None, heights) == PhaseState(2, 0)
    assert apply_update(SchemeId.ONE_BIT_FULL, FlagState(2, 1), None, heights) == FlagState(2, 0)
    assert apply_update(
        SchemeId.BASELINE_INCREMENT, HeightState(2, 2), None, heights
    ) == HeightState(2, 3)


def test_apply_update_dispatches_aware_schemes():
    heights = HeightAssignment((1, 2, 3))
    own = HeightState(2, 1)
    got = apply_update(SchemeId.GB_FULL, own, [HeightState(3, 3)], heights)
    assert got == HeightState(2, 4)
    with pytest.raises(EmptyNeighborhoodError):
        apply_update(SchemeId.GB_FULL, own, None, heights)


# --- initial states and serialization ----------------------------------------


def test_initial_state_per_scheme():
    topo = Topology.build(3, [(0, 1), (1, 2), (2, 3)])
    heights = HeightAssignment((1, 2, 3))

    def initial(scheme):
        return initial_states(scheme, topo, heights)[2]

    assert initial(SchemeId.GB_FULL) == HeightState(2, 2)
    assert initial(SchemeId.GB_PARTIAL) == LevelHeightState(2, 0, 2)
    assert initial(SchemeId.NO_FULL) == CountedHeightState(2, 0, 2)
    assert initial(SchemeId.TWO_BIT_FULL) == PhaseState(2, 0)
    assert initial(SchemeId.ONE_BIT_FULL) == FlagState(2, 0)
    for scheme in ALL_SCHEMES:
        states = initial_states(scheme, topo, heights)
        assert sorted(states) == [1, 2, 3]
        assert all(type(state) is SPECS[scheme].state for state in states.values())


def test_state_bits_are_constant_for_finite_schemes():
    for phase in range(4):
        assert state_bits(SchemeId.TWO_BIT_FULL, PhaseState(1, phase)) == 2
    for flag in range(2):
        assert state_bits(SchemeId.ONE_BIT_FULL, FlagState(1, flag)) == 1
    # unbounded schemes grow with the height
    assert state_bits(SchemeId.GB_FULL, HeightState(1, 1)) < state_bits(
        SchemeId.GB_FULL, HeightState(1, 1 << 20)
    )


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_state_payload_round_trip(scheme):
    """A JSONL step line keys each new state's fields but the node by name."""
    scenario = Scenario.create(4, [(0, 4), (1, 2), (2, 3), (3, 4)], heights=(1, 2, 3, 4))
    trace = run_scenario(scenario, scheme, Schedule.single_random(0))
    cls = SPECS[scheme].state
    lines = trace_to_jsonl(trace).splitlines()[:-1]
    assert len(lines) == len(trace.steps) > 0
    for rec, line in zip(trace.steps, lines):
        payloads = json.loads(line)["states"]
        assert set(payloads) == {str(s.node) for s in rec.new_states}
        for state in rec.new_states:
            payload = payloads[str(state.node)]
            assert "node" not in payload
            assert cls(state.node, **payload) == state


# --- the spec table ----------------------------------------------------------

SOURCE = Path(linkrev.__file__).parent


def _spec_rows() -> list[str]:
    """The SchemeId member named by each SchemeSpec(...) row of schemes.py."""
    tree = ast.parse((SOURCE / "schemes.py").read_text(encoding="utf-8"))
    return [
        node.args[0].attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "SchemeSpec"
    ]


def test_every_scheme_has_exactly_one_spec():
    assert sorted(_spec_rows()) == sorted(SchemeId.__members__)
    assert ALL_SCHEMES == tuple(SPECS) == tuple(SchemeId)
    assert all(SPECS[scheme].scheme is scheme for scheme in ALL_SCHEMES)
    assert CORE_SCHEMES == ALL_SCHEMES[:-1]
    assert ALL_SCHEMES[-1] is SchemeId.BASELINE_INCREMENT


def test_every_scheme_starts_from_the_same_orientation(generated_corpus):
    """Each scheme's initial arcs are the simulator's step 0, and all schemes share them."""
    mismatched = []
    for scenario in generated_corpus:
        topo, heights = scenario.topology, scenario.heights
        orientations = set()
        for scheme in ALL_SCHEMES:
            arcs = routing_dag(initial_states(scheme, topo, heights), topo, scheme, heights)
            sim = Simulation(scenario, scheme)
            assert type(arcs) is tuple
            assert arcs == sim.initial_arcs
            assert arcs_digest(starmap(arc_label, arcs)) == sim.initial_digest
            orientations.add(arcs)
        if len(orientations) != 1:
            mismatched.append(scenario.scenario_id())
    assert len(generated_corpus) == 880
    assert mismatched == []


#: Assignments that may name schemes: the table itself and the claims the
#: verifier tests.
ALLOWED = {("schemes", "SPECS"), ("verify", "EQUIVALENCE_PAIRS")}

STATE_CLASS_NAMES = frozenset(spec.state.__name__ for spec in SPECS.values())


def _names(node: ast.AST) -> set[str]:
    parts = node.elts if isinstance(node, ast.Tuple) else [node]
    return {part.id for part in parts if isinstance(part, ast.Name)}


def _scheme_branches(module: str, text: str) -> list[str]:
    """SchemeId members named, and state classes tested, outside ALLOWED.

    threshold, no-partial's doubling sequence, is named only in schemes.py.
    """
    tree = ast.parse(text)
    allowed = set()
    for node in tree.body:
        targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
        if any((module, getattr(t, "id", None)) in ALLOWED for t in targets):
            allowed.update(map(id, ast.walk(node)))
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "SchemeId"
            and node.attr in SchemeId.__members__
        ):
            found.append(f"{module}.py:{node.lineno}: SchemeId.{node.attr}")
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "isinstance"
            and _names(node.args[1]) & STATE_CLASS_NAMES
        ) or (
            isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            and set().union(*map(_names, [node.left, *node.comparators])) & STATE_CLASS_NAMES
        ):
            found.append(f"{module}.py:{node.lineno}: state class test")
        elif module != "schemes" and "threshold" in (
            getattr(node, "id", None), getattr(node, "attr", None)
        ):
            found.append(f"{module}.py:{node.lineno}: threshold")
    return sorted(found, key=lambda line: int(line.split(":")[1]))


def test_the_guard_sees_scheme_branches():
    text = (
        "if scheme is SchemeId.GB_FULL:\n    pass\n"
        "ok = isinstance(state, (HeightState, int))\n"
        "ok = cls is not FlagState\n"
        "SPECS = {SchemeId.NO_FULL: None}\n"
        "threshold(n, top)\n"
        "bound = schemes.threshold(n, top)\n"
    )
    assert _scheme_branches("sim", text) == [
        "sim.py:1: SchemeId.GB_FULL",
        "sim.py:3: state class test",
        "sim.py:4: state class test",
        "sim.py:5: SchemeId.NO_FULL",
        "sim.py:6: threshold",
        "sim.py:7: threshold",
    ]
    assert _scheme_branches("schemes", "SPECS = {SchemeId.NO_FULL: None}\nthreshold(n, top)\n") == []


def test_scheme_facts_stay_in_the_spec_table():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        found += _scheme_branches(path.stem, path.read_text(encoding="utf-8"))
    assert found == []


#: What reads the process environment: attributes of os, and names imported from it.
ENVIRONMENT_READS = frozenset({"environ", "environb", "getenv", "getenvb"})


def _environment_reads(module: str, text: str) -> list[str]:
    """Reads of the process environment, through os or any alias of it."""
    tree = ast.parse(text)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "os"
    }
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr in ENVIRONMENT_READS
        ):
            found.append(f"{module}.py:{node.lineno}: {node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [
                f"{module}.py:{node.lineno}: from os import {alias.name}"
                for alias in node.names
                if alias.name in ENVIRONMENT_READS | {"*"}
            ]
    return sorted(found, key=lambda line: int(line.split(":")[1]))


def test_the_guard_sees_environment_reads():
    text = (
        "import os\n"
        "limit = os.environ.get('LIMIT')\n"
        "limit = os.getenv('LIMIT')\n"
        "import os as system\n"
        "limit = system.environ['LIMIT']\n"
        "from os import getenv\n"
        "here = os.getcwd()\n"
        "environ = {}\n"
    )
    assert _environment_reads("sim", text) == [
        "sim.py:2: os.environ",
        "sim.py:3: os.getenv",
        "sim.py:5: system.environ",
        "sim.py:6: from os import getenv",
    ]


def test_no_module_reads_the_environment():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        found += _environment_reads(path.stem, path.read_text(encoding="utf-8"))
    assert found == []

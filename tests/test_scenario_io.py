"""Scenario file parsing, serialization, and trace exports."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, strategies as st

from linkrev import (
    AdditionForbiddenError,
    DisconnectedGraphError,
    HeightRangeError,
    OverflowRiskError,
    Scenario,
    ScenarioFormatError,
    Schedule,
    SchemeId,
    SimEvent,
    load_scenario,
    parse_scenario,
    run_scenario,
    serialize_scenario,
)
from linkrev.generate import random_partition_scenario, random_void_scenario
from linkrev.model import Topology
from linkrev.schemes import ALL_SCHEMES, INT63_MAX, SPECS
from linkrev.sim import Outcome
from linkrev.traceio import (
    EXPORT_FORMATS,
    export_trace,
    trace_to_csv,
    trace_to_dot_frames,
    trace_to_jsonl,
)

GOOD = """\
scenario v1
# a three node chain with a raised middle
name chain-demo
nodes 3
edges D-1 1-3
edges 2-3
heights 1 2 3
seed 7
event 2 sleep 1 2
event 5 remove-link 2-3
"""


# --- parsing -----------------------------------------------------------------


def test_parse_good_scenario():
    sc = parse_scenario(GOOD)
    assert sc.name == "chain-demo"
    assert sc.n == 3
    assert sc.edges == ((0, 1), (1, 3), (2, 3))
    assert sc.heights.values == (1, 2, 3)
    assert sc.explicit_heights
    assert sc.seed == 7
    assert sc.events == (
        SimEvent(at_step=2, kind="sleep", node=1, duration=2),
        SimEvent(at_step=5, kind="remove-link", edge=(2, 3)),
    )
    assert sc.scenario_id() == "chain-demo"


def test_parse_defaults_heights_to_hop_counts():
    sc = parse_scenario("scenario v1\nnodes 2\nedges D-1 1-2\n")
    assert sc.heights.values == (1, 2)
    assert not sc.explicit_heights
    assert sc.seed is None
    assert sc.scenario_id().startswith("n2-e2-")


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("nodes 2\n", 1, "first directive"),
        ("scenario v1\nbogus 1\n", 2, "unknown directive"),
        ("scenario v1\nedges D-1\n", 2, "nodes must be declared"),
        ("scenario v1\nnodes 0\n", 2, "node count"),
        ("scenario v1\nnodes 2\nedges D-1 D-1\n", 3, "duplicate edge"),
        ("scenario v1\nnodes 2\nedges D1\n", 3, "expected <a>-<b>"),
        ("scenario v1\nnodes 2\nedges D-5\n", 3, "out of range"),
        ("scenario v1\nnodes 2\nedges 1-1\n", 3, "self loop"),
        ("scenario v1\nnodes 2\nedges D-1 1-2\nheights 3\n", 4, "expected 2 heights"),
        ("scenario v1\nnodes 2\nedges D-1 1-2\nheights 1 x\n", 4, "must be an integer"),
        ("scenario v1\nnodes 2\nedges D-1 1-2\nheights 1 1\nheights 2 2\n", 5, "twice"),
        ("scenario v1\nnodes 2\nedges D-1 1-2\nevent 0 wake 1\n", 4, "event step"),
        ("scenario v1\nnodes 2\nedges D-1 1-2\nevent 1 explode 1\n", 4, "unknown event kind"),
        ("scenario v1\nnodes 2\nedges D-1 1-2\nevent 1 sleep 1\n", 4, "usage: event"),
        ("scenario v1\nnodes 2\nedges D-1 1-2\nname\n", 4, "name directive"),
        ("scenario v1\nnodes 2\nedges D-1 1-2\nseed x\n", 4, "seed"),
        # "²" is a digit to str.isdigit() but not a number to int().
        ("scenario v1\nnodes 3\nedges D-1 1-2 2-²\n", 3, "expected a node id"),
        ("scenario v1\nnodes 2\nedges D-1 1-2\nevent 1 sleep ² 2\n", 4, "expected a node id"),
        # int() reads signs, underscores and non-ASCII digits; the format
        # reads ASCII digits after an optional "-", in every number field.
        ("scenario v1\nnodes +2\n", 2, "node count must be an integer"),
        ("scenario v1\nnodes 2\nedges D-1 1-٢\n", 3, "expected a node id"),
        ("scenario v1\nnodes 2\nedges D-1 1-+2\n", 3, "expected a node id"),
        ("scenario v1\nnodes 2\nedges D-1 1-2\nheights 1_0 +2\n", 4, "height must be an integer"),
        ("scenario v1\nnodes 2\nedges D-1 1-2\nheights 1 +2\n", 4, "height must be an integer"),
        ("scenario v1\nnodes 2\nedges D-1 1-2\nseed ٣\n", 4, "seed must be an integer"),
        ("scenario v1\nnodes 2\nedges D-1 1-2\nseed -1\n", 4, "seed must be >= 0, got -1"),
        ("scenario v1\nnodes 2\nedges D-1 1-2\nevent ١ sleep 2 1\n", 4, "event step must be"),
        ("scenario v1\nnodes 2\nedges D-1 1-2\nevent 1 sleep 2 1_0\n", 4, "sleep duration must"),
        ("scenario v1\nnodes 2\nedges D-1 1-2\nevent 1 wake +1\n", 4, "expected a node id"),
    ],
)
def test_parse_errors_carry_the_line_number(text, line, fragment):
    with pytest.raises(ScenarioFormatError, match=fragment) as err:
        parse_scenario(text)
    assert err.value.line == line
    assert err.value.column is not None


def test_parse_error_column_points_at_the_offending_node():
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario("scenario v1\nnodes 2\nedges D-1 1-9\n")
    # column 13 is the "9" inside the bad edge token, not the token start
    assert (err.value.line, err.value.column) == (3, 13)


def test_parse_rejects_nonpositive_heights():
    with pytest.raises(HeightRangeError) as err:
        parse_scenario("scenario v1\nnodes 2\nedges D-1 1-2\nheights 1 0\n")
    assert err.value.line == 4


def test_a_negative_height_is_out_of_range_not_misspelled():
    with pytest.raises(HeightRangeError, match="must be positive, got -3") as err:
        parse_scenario("scenario v1\nnodes 2\nedges D-1 1-2\nheights -3 1\n")
    assert (err.value.line, err.value.column) == (4, 9)


def test_create_rejects_nonpositive_heights():
    with pytest.raises(HeightRangeError) as err:
        Scenario.create(2, [(0, 1), (1, 2)], heights=(1, 0))
    assert str(err.value) == "initial height of node 2 must be a positive integer, got 0"


def test_parse_rejects_additions():
    with pytest.raises(AdditionForbiddenError):
        parse_scenario("scenario v1\nnodes 2\nedges D-1 1-2\nevent 1 add-link 1-2\n")


@pytest.mark.parametrize(
    "event",
    [SimEvent(1, "add-node", node=2), SimEvent(1, "add-link", edge=(1, 2))],
    ids=["add-node", "add-link"],
)
def test_create_rejects_additions_as_the_parser_does(event):
    with pytest.raises(AdditionForbiddenError, match=f"not modeled \\({event.kind}\\)"):
        Scenario.create(2, [(0, 1), (1, 2)], events=[event])
    with pytest.raises(AdditionForbiddenError, match="line 4:"):
        parse_scenario(f"scenario v1\nnodes 2\nedges D-1 1-2\nevent 1 {event.kind} 1-2\n")


def test_parse_rejects_disconnected_graphs():
    with pytest.raises(DisconnectedGraphError):
        parse_scenario("scenario v1\nnodes 3\nedges D-1 2-3\n")


def test_parse_accepts_heights_past_the_no_partial_threshold_range():
    # 80 nodes of height 1000 would push the doubling sequence past 64 bits,
    # but only a no-partial update that reaches such a threshold overflows
    edges = " ".join(f"{i}-{i + 1}" for i in range(1, 80)) + " D-1"
    text = f"scenario v1\nnodes 80\nedges {edges}\nheights {' '.join(['1000'] * 80)}\n"
    scenario = parse_scenario(text)
    for scheme in ALL_SCHEMES:
        assert run_scenario(scenario, scheme).converged, scheme


def _chain(n: int, heights) -> Scenario:
    """Edges D-n and i-(i+1)."""
    edges = [(0, n)] + [(i, i + 1) for i in range(1, n)]
    return Scenario.create(n, edges, heights=heights)


def _zigzag(n: int) -> Scenario:
    return _chain(n, [1 if i % 2 else 2 for i in range(1, n + 1)])


def test_no_partial_overflows_only_at_the_update_past_64_bits():
    assert run_scenario(_zigzag(60), SchemeId.NO_PARTIAL).total_updates == 1770
    with pytest.raises(OverflowRiskError, match="threshold"):
        run_scenario(_zigzag(80), SchemeId.NO_PARTIAL)
    trace = run_scenario(_zigzag(80), SchemeId.TWO_BIT_PARTIAL)
    assert trace.converged and trace.total_updates == 3160


def test_every_scheme_converges_on_a_100_node_monotone_chain():
    chain = _chain(100, range(1, 101))
    updates = {"full": 4950, "partial": 99, None: 9900}
    for scheme in ALL_SCHEMES:
        trace = run_scenario(chain, scheme)
        assert trace.converged, scheme
        assert trace.total_updates == updates[SPECS[scheme].reversal], scheme


def test_random_void_scenarios_build_past_n57():
    assert random_void_scenario(100, 1).n == 100


def test_heights_past_64_bits_are_rejected():
    with pytest.raises(OverflowRiskError, match="initial height"):
        Scenario.create(2, [(0, 1), (1, 2)], heights=(1, INT63_MAX + 1))
    with pytest.raises(OverflowRiskError, match="initial height"):
        parse_scenario(f"scenario v1\nnodes 2\nedges D-1 1-2\nheights 1 {INT63_MAX + 1}\n")
    assert Scenario.create(2, [(0, 1), (1, 2)], heights=(1, INT63_MAX)).heights.max_height == INT63_MAX


EVENT_BASE = "scenario v1\nnodes 3\nedges D-1 1-3 2-3\nheights 1 2 3\n"


@pytest.mark.parametrize(
    "script, message",
    [
        ("event 1 remove-link 1-3\nevent 2 remove-link 1-3", "event 2 remove-link 1-3: the link is already gone"),
        ("event 1 remove-node 2\nevent 2 remove-node 2", "event 2 remove-node 2: node 2 is already removed"),
        ("event 1 remove-node 2\nevent 2 sleep 2 1", "event 2 sleep 2 1: node 2 is already removed"),
        ("event 1 remove-node 1\nevent 2 remove-link 1-3", "event 2 remove-link 1-3: the link is already gone"),
        # events fire by step, then in script order
        ("event 2 remove-node 2\nevent 1 remove-node 2", "event 2 remove-node 2: node 2 is already removed"),
        ("event 1 remove-link 3-1\nevent 1 remove-link 1-3", "event 1 remove-link 1-3: the link is already gone"),
    ],
    ids=["link-twice", "node-twice", "sleep-after-removal", "link-of-removed-node", "step-order", "script-order"],
)
def test_parse_rejects_events_the_run_cannot_apply(script, message):
    with pytest.raises(ScenarioFormatError, match=re.escape(message)):
        parse_scenario(EVENT_BASE + script + "\n")


def test_sleeps_before_a_removal_and_wakes_stay_valid():
    scenario = parse_scenario(
        EVENT_BASE + "event 1 sleep 2 3\nevent 2 remove-node 2\nevent 3 wake 2\nevent 3 wake 1\n"
    )
    for scheme in ALL_SCHEMES:
        assert run_scenario(scenario, scheme).events_applied[:4] == (
            (1, "sleep 2 3"), (2, "remove-node 2"), (3, "wake 2"), (3, "wake 1"),
        )


def test_missing_sections_are_reported():
    with pytest.raises(ScenarioFormatError, match="missing nodes"):
        parse_scenario("scenario v1\n")
    with pytest.raises(ScenarioFormatError, match="missing edges"):
        parse_scenario("scenario v1\nnodes 2\n")
    with pytest.raises(ScenarioFormatError, match="missing header"):
        parse_scenario("")


def test_event_validation_against_the_topology():
    with pytest.raises(ScenarioFormatError, match="unknown link"):
        Scenario.create(
            3, [(0, 1), (1, 2), (2, 3)],
            events=[SimEvent(at_step=1, kind="remove-link", edge=(1, 3))],
        )
    with pytest.raises(ScenarioFormatError, match="destination"):
        Scenario.create(
            2, [(0, 1), (1, 2)],
            events=[SimEvent(at_step=1, kind="remove-node", node=0)],
        )
    with pytest.raises(ScenarioFormatError, match="duration"):
        Scenario.create(
            2, [(0, 1), (1, 2)],
            events=[SimEvent(at_step=1, kind="sleep", node=1, duration=0)],
        )


@pytest.mark.parametrize(
    "events",
    [(), (SimEvent(at_step=1, kind="sleep", node=2, duration=2),)],
    ids=["plain", "sleep"],
)
def test_create_builds_the_topology_once(monkeypatch, events):
    calls = []
    real = Topology.build.__func__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Topology, "build", classmethod(counting))
    scenario = Scenario.create(3, [(0, 1), (1, 2), (2, 3)], heights=(1, 2, 1), events=events)
    trace = run_scenario(scenario, SchemeId.NO_FULL, Schedule.single_random(0))
    assert trace.steps
    assert len(calls) == 1


# --- round trips -------------------------------------------------------------


def test_serialize_round_trip(tmp_path):
    sc = parse_scenario(GOOD)
    assert parse_scenario(serialize_scenario(sc)) == sc
    path = tmp_path / "demo.scn"
    path.write_text(serialize_scenario(sc), encoding="utf-8")
    assert load_scenario(path) == sc


def test_round_trip_preserves_default_heights():
    sc = parse_scenario("scenario v1\nnodes 2\nedges D-1 1-2\n")
    text = serialize_scenario(sc)
    assert "heights" not in text
    assert parse_scenario(text) == sc


def test_load_uses_the_file_stem_as_fallback_name(tmp_path):
    path = tmp_path / "my-case.scn"
    path.write_text("scenario v1\nnodes 2\nedges D-1 1-2\n", encoding="utf-8")
    assert load_scenario(path).name == "my-case"


def test_serialize_wraps_long_edge_lists():
    n = 30
    edges = [(0, 1)] + [(i, i + 1) for i in range(1, n)]
    sc = Scenario.create(n, edges)
    text = serialize_scenario(sc)
    edge_lines = [line for line in text.splitlines() if line.startswith("edges ")]
    assert len(edge_lines) == 3
    assert parse_scenario(text) == sc


@st.composite
def _random_scenarios(draw):
    n = draw(st.integers(2, 7))
    edges = {(0, 1)} | {(i - 1, i) for i in range(2, n + 1)}
    for _ in range(draw(st.integers(0, 4))):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(a + 1, n))
        edges.add((a, b))
    heights = tuple(draw(st.lists(st.integers(1, 50), min_size=n, max_size=n)))
    seed = draw(st.none() | st.integers(0, 999))
    events = []
    if draw(st.booleans()):
        victim = draw(st.integers(1, n))
        events.append(SimEvent(at_step=draw(st.integers(1, 9)), kind="sleep", node=victim,
                               duration=draw(st.integers(1, 5))))
    return Scenario.create(n, edges, heights=heights, events=events, seed=seed,
                           name=draw(st.none() | st.just("fuzzed")))


@given(sc=_random_scenarios())
def test_round_trip_is_lossless(sc):
    assert parse_scenario(serialize_scenario(sc)) == sc


#: Spellings of a nonnegative number that int() reads: the ASCII ones the
#: format accepts, and a sign, an underscore or non-ASCII digits, which it
#: refuses.
_ACCEPTED_SPELLINGS = (str, lambda v: f"0{v}")
_REFUSED_SPELLINGS = (
    lambda v: f"+{v}",
    lambda v: f"0_{v}",
    lambda v: str(v).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
    lambda v: str(v).translate(str.maketrans("0123456789", "０１２３４５６７８９")),
)


@st.composite
def _spelled_scenario_texts(draw):
    """Scenario text whose every number is drawn from its spellings, and whether all are ASCII."""
    sc = draw(_random_scenarios())
    ascii_only = True

    def spell(value: int) -> str:
        nonlocal ascii_only
        accepted = draw(st.booleans())
        ascii_only &= accepted
        return draw(st.sampled_from(_ACCEPTED_SPELLINGS if accepted else _REFUSED_SPELLINGS))(value)

    def node(i: int) -> str:
        return "D" if i == 0 else spell(i)

    lines = ["scenario v1", f"nodes {spell(sc.n)}"]
    lines.append("edges " + " ".join(f"{node(a)}-{node(b)}" for a, b in sc.edges))
    lines.append("heights " + " ".join(spell(h) for h in sc.heights.values))
    if sc.seed is not None:
        lines.append(f"seed {spell(sc.seed)}")
    for ev in sc.events:
        lines.append(f"event {spell(ev.at_step)} sleep {spell(ev.node)} {spell(ev.duration)}")
    return "\n".join(lines) + "\n", ascii_only


@given(case=_spelled_scenario_texts())
def test_accepted_text_round_trips(case):
    # A text is accepted exactly when all its numbers are ASCII digits, and
    # then it serializes to text that parses back to an equal scenario.
    text, ascii_only = case
    try:
        sc = parse_scenario(text)
    except ScenarioFormatError:
        assert not ascii_only, text
        return
    assert ascii_only, text
    assert parse_scenario(serialize_scenario(sc)) == sc


# --- trace exports -----------------------------------------------------------


@pytest.fixture
def one_step_trace(chain):
    return run_scenario(chain, SchemeId.NO_FULL, Schedule.single_random(0))


def test_jsonl_has_one_record_per_step_plus_totals(one_step_trace):
    lines = trace_to_jsonl(one_step_trace).splitlines()
    assert len(lines) == 2
    step = json.loads(lines[0])
    totals = json.loads(lines[1])
    assert step["type"] == "step"
    assert step["index"] == 1
    assert step["stuck"] == [2]
    assert step["updated"] == [2]
    assert step["states"] == {"2": {"updates": 1, "height": 5}}
    assert totals["type"] == "totals"
    assert totals["outcome"] == "converged"
    assert totals["scheme"] == "no-full"
    assert totals["total_updates"] == 1
    assert totals["updates_by_node"] == {"1": 0, "2": 1, "3": 0}
    assert totals["initial_dag"] != totals["final_dag"]
    assert totals["certificate"] is None


def _reference_totals(trace) -> dict:
    """The totals record as a dict, for json.dumps to write the reference line."""
    return {
        "type": "totals",
        "outcome": trace.outcome.value,
        "scheme": trace.scheme.value,
        "n": trace.n,
        "schedule": trace.schedule.describe(),
        "step_limit": trace.step_limit,
        "steps": len(trace.steps),
        "total_updates": trace.total_updates,
        "total_reversals": trace.total_reversals,
        "updates_by_node": {str(i): c for i, c in sorted(trace.update_counts.items())},
        "initial_dag": trace.initial_digest,
        "final_dag": trace.final_digest,
        "certificate": trace.certificate,
        "events": [[step, text] for step, text in trace.events_applied],
    }


def _partition_certificate():
    trace = run_scenario(random_partition_scenario(6, seed=3), SchemeId.NO_FULL, Schedule.single_random(0))
    assert trace.outcome is Outcome.PARTITIONED and trace.certificate
    return trace


def _sleep_wake_and_removals():
    scenario = Scenario.create(
        6,
        [(0, 5), (0, 6), (5, 6), (1, 2), (2, 3), (3, 4), (4, 5)],
        heights=range(1, 7),
        events=[
            SimEvent(at_step=1, kind="sleep", node=3, duration=2),
            SimEvent(at_step=1, kind="remove-link", edge=(5, 6)),
            SimEvent(at_step=2, kind="remove-node", node=6),
        ],
    )
    trace = run_scenario(scenario, SchemeId.GB_FULL, Schedule.single_random(0))
    kinds = [text.split()[0] for _, text in trace.events_applied]
    assert kinds == ["sleep", "remove-link", "remove-node", "wake"]
    return trace


def _ten_nodes_or_more():
    trace = run_scenario(random_void_scenario(12, 1), SchemeId.NO_FULL, Schedule.subset_random(2))
    assert len(trace.update_counts) >= 10 and trace.steps
    return trace


def _zero_steps():
    trace = run_scenario(Scenario.create(2, [(0, 1), (1, 2)], heights=(1, 2)), SchemeId.GB_FULL)
    assert not trace.steps
    return trace


def _explicit_step_limit():
    chain = Scenario.create(6, [(0, 6)] + [(i, i + 1) for i in range(1, 6)], heights=range(1, 7))
    trace = run_scenario(chain, SchemeId.NO_FULL, Schedule.single_random(0), step_limit=2)
    assert trace.outcome is Outcome.STEP_LIMIT and trace.step_limit == 2
    return trace


def _labeled_fixed_schedule():
    chain = Scenario.create(3, [(0, 1), (1, 3), (2, 3)], heights=(1, 2, 3))
    label = 'quote " backslash \\ bell \x07 e-acute \u00e9'
    trace = run_scenario(chain, SchemeId.NO_FULL, Schedule.fixed([[2]], label=label))
    assert label in trace.schedule.describe()
    return trace


TOTALS_CASES = {
    build.__name__.strip("_"): build
    for build in (
        _partition_certificate,
        _sleep_wake_and_removals,
        _ten_nodes_or_more,
        _zero_steps,
        _explicit_step_limit,
        _labeled_fixed_schedule,
    )
}


@pytest.mark.parametrize("case", list(TOTALS_CASES))
def test_the_totals_line_is_what_json_dumps_writes(case):
    trace = TOTALS_CASES[case]()
    expected = json.dumps(_reference_totals(trace), sort_keys=True, separators=(",", ":"))
    text = trace_to_jsonl(trace)
    assert text.endswith("\n")
    assert text.split("\n")[-2] == expected


def test_truncated_jsonl_is_still_a_valid_prefix(one_step_trace):
    lines = trace_to_jsonl(one_step_trace).splitlines()
    parsed = [json.loads(line) for line in lines[:-1]]
    assert [rec["type"] for rec in parsed] == ["step"]


def test_csv_is_header_plus_one_totals_row(one_step_trace):
    lines = trace_to_csv(one_step_trace).splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    row = lines[1].split(",")
    assert header[:2] == ["outcome", "scheme"]
    assert header[-3:] == ["updates_1", "updates_2", "updates_3"]
    assert row[0] == "converged"
    assert row[-3:] == ["0", "1", "0"]


def test_dot_frames_cover_initial_plus_each_step(one_step_trace):
    text = trace_to_dot_frames(one_step_trace)
    assert text.count("digraph") == len(one_step_trace.steps) + 1
    assert '"D" [shape=doublecircle];' in text
    assert '"2" [style=filled];' in text


def test_dot_frames_replay_the_orientation_after_each_step(chain):
    trace = run_scenario(chain, SchemeId.NO_FULL, Schedule.single_random(0))
    frames = trace_to_dot_frames(trace).split("\n\n")
    assert '"2" -> "3";' not in frames[0]
    assert '"2" -> "3";' in frames[1]


def test_dot_frames_reject_a_trace_the_rerun_does_not_reproduce(chain):
    trace = run_scenario(chain, SchemeId.NO_FULL, Schedule.single_random(0))
    forged = trace._replace(steps=(trace.steps[0]._replace(dag_digest="0" * 12),))
    with pytest.raises(ValueError, match="differs from the trace at step 1"):
        trace_to_dot_frames(forged)
    with pytest.raises(ValueError, match="took 1 steps, the trace 2"):
        trace_to_dot_frames(trace._replace(steps=trace.steps * 2))


def test_export_trace_dispatch(one_step_trace):
    for fmt in EXPORT_FORMATS:
        assert export_trace(one_step_trace, fmt)
    with pytest.raises(ValueError, match="unknown trace format"):
        export_trace(one_step_trace, "yaml")

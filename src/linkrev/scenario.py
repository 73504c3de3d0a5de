"""Scenario files: a line-oriented text format for topologies and event scripts.

Grammar (one directive per line, '#' starts a comment, blank lines ignored)::

    scenario v1                  header, must come first
    name <free text>             optional
    nodes <N>                    node ids are 1..N plus the destination "D"
    edges <a>-<b> [<c>-<d> ...]  repeatable, cumulative
    heights <h1> ... <hN>        optional; defaults to hop counts from D
    seed <k>                     optional default RNG seed for this scenario
    event <step> remove-node <i>
    event <step> remove-link <a>-<b>
    event <step> sleep <i> <duration>
    event <step> wake <i>

Every number (the node count, node ids, heights, the seed, an event's
step and a sleep's duration) is an optional "-" followed by the ASCII
digits 0-9; any other spelling, such as "+2", "1_0" or non-ASCII digits,
is a format error, so a text the parser accepts means what it says.
Node additions are outside the model and rejected.  Parsing validates
connectivity and that every height is positive and fits in a signed 64-bit
integer.  Heights a run computes are checked where they are computed: the
update that would leave the 64-bit range raises OverflowRiskError.
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from pathlib import Path

from .errors import (
    AdditionForbiddenError,
    HeightRangeError,
    ScenarioFormatError,
)
from .model import DESTINATION, HeightAssignment, Topology, hop_count_heights
from .schemes import SchemeId

HEADER = "scenario v1"

EVENT_KINDS = ("remove-node", "remove-link", "sleep", "wake")

_FORBIDDEN_EVENT_KINDS = ("add-node", "add-link")

#: The one spelling of a number in the format.  int() alone would also read
#: "+2", "1_0" and non-ASCII digits, which serialize back as other text.
_INTEGER = re.compile(r"-?[0-9]+")


@dataclass(frozen=True)
class SimEvent:
    """A scripted topology change, applied just before the given step runs."""

    at_step: int
    kind: str
    node: int | None = None
    edge: tuple[int, int] | None = None
    duration: int | None = None

    def describe(self) -> str:
        if self.kind == "remove-node":
            return f"remove-node {self.node}"
        if self.kind == "remove-link":
            a, b = self.edge
            return f"remove-link {_node_name(a)}-{_node_name(b)}"
        if self.kind == "sleep":
            return f"sleep {self.node} {self.duration}"
        return f"wake {self.node}"


def _node_name(i: int) -> str:
    return "D" if i == DESTINATION else str(i)


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario: topology, initial heights, and optional events."""

    topology: Topology
    heights: HeightAssignment
    events: tuple[SimEvent, ...] = ()
    seed: int | None = None
    name: str | None = None
    explicit_heights: bool = True

    @property
    def n(self) -> int:
        """The number of nondestination nodes, 1..n."""
        return len(self.topology.nodes)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The topology's canonical, sorted edges."""
        return self.topology.edges

    @classmethod
    def create(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        heights: Iterable[int] | None = None,
        events: Iterable[SimEvent] = (),
        seed: int | None = None,
        name: str | None = None,
    ) -> Scenario:
        """Build and validate a scenario from raw parts.

        Heights default to hop counts when omitted; edge lists are
        canonicalized so that equal scenarios compare equal.  The validated
        parts go through from_topology.
        """
        topo = Topology.build(n, edges)
        if heights is None:
            assignment = hop_count_heights(topo)
            explicit = False
        else:
            values = tuple(heights)
            if len(values) != n:
                raise HeightRangeError(f"expected {n} heights, got {len(values)}")
            try:
                assignment = HeightAssignment(values)
            except ValueError as exc:
                raise HeightRangeError(str(exc)) from None
            explicit = True
        return cls.from_topology(topo, assignment, events, seed, name, explicit)

    @classmethod
    def from_topology(
        cls,
        topology: Topology,
        heights: HeightAssignment,
        events: Iterable[SimEvent] = (),
        seed: int | None = None,
        name: str | None = None,
        explicit_heights: bool = True,
    ) -> Scenario:
        """A scenario on a connected topology with canonical, sorted edges.

        The topology and the heights are taken as they are: create ends
        here once it has validated them, and a generator whose edges are
        canonical, sorted and connected by construction starts here.  The
        events are checked against the topology.
        """
        scenario = cls(topology, heights, tuple(events), seed, name, explicit_heights)
        scenario._validate_events()
        return scenario

    @cached_property
    def _starts(self) -> dict[SchemeId, object]:
        """Each scheme's event-free step 0, built and filled in by the simulator."""
        return {}

    @cached_property
    def _replay_starts(self) -> dict[SchemeId, object]:
        """Each scheme's step 0 as the step check derives it, filled in by verify.

        Kept apart from _starts: the check is the simulator's oracle.
        """
        return {}

    def scenario_id(self) -> str:
        """Stable short identifier for reports."""
        if self.name:
            return self.name
        tag = hashlib.sha256(repr((self.edges, self.heights.values)).encode()).hexdigest()[:6]
        return f"n{self.n}-e{len(self.edges)}-{tag}"

    def _validate_events(self) -> None:
        """Check each event against the graph the events before it leave.

        Events fire by step, then in script order.  A removed node cannot
        be removed again or put to sleep, and a link that is gone, by
        itself or with an endpoint, cannot be removed again.  A wake is
        always valid.
        """
        gone_nodes: set[int] = set()
        gone_links: set[tuple[int, int]] = set()
        for ev in sorted(self.events, key=attrgetter("at_step")):
            if ev.at_step < 1:
                raise ScenarioFormatError(f"event step must be >= 1, got {ev.at_step}")
            if ev.kind in _FORBIDDEN_EVENT_KINDS:
                raise AdditionForbiddenError(f"topology additions are not modeled ({ev.kind})")
            if ev.kind not in EVENT_KINDS:
                raise ScenarioFormatError(f"unknown event kind {ev.kind!r}")
            if ev.kind == "remove-link":
                a, b = ev.edge
                e = (a, b) if a < b else (b, a)
                if e not in self.topology.edge_index:
                    raise ScenarioFormatError(
                        f"event removes unknown link {_node_name(a)}-{_node_name(b)}"
                    )
                if e in gone_links or a in gone_nodes or b in gone_nodes:
                    raise ScenarioFormatError(
                        f"event {ev.at_step} {ev.describe()}: the link is already gone"
                    )
                gone_links.add(e)
            else:
                if ev.node == DESTINATION:
                    raise ScenarioFormatError("the destination is permanent and never sleeps")
                if not 1 <= ev.node <= self.n:
                    raise ScenarioFormatError(f"event refers to unknown node {ev.node}")
                if ev.kind == "sleep" and (ev.duration is None or ev.duration < 1):
                    raise ScenarioFormatError("sleep duration must be a positive integer")
                if ev.kind != "wake" and ev.node in gone_nodes:
                    raise ScenarioFormatError(
                        f"event {ev.at_step} {ev.describe()}: node {ev.node} is already removed"
                    )
                if ev.kind == "remove-node":
                    gone_nodes.add(ev.node)


# --- parsing ----------------------------------------------------------------


def _parse_node_token(token: str, n: int | None, lineno: int, column: int) -> int:
    if token == "D":
        return DESTINATION
    if not _INTEGER.fullmatch(token):
        raise ScenarioFormatError(f"expected a node id, got {token!r}", lineno, column)
    value = int(token)
    if value < 1 or (n is not None and value > n):
        raise ScenarioFormatError(f"node id {value} out of range", lineno, column)
    return value


def _parse_edge_token(token: str, n: int | None, lineno: int, column: int) -> tuple[int, int]:
    parts = token.split("-")
    if len(parts) != 2:
        raise ScenarioFormatError(f"expected <a>-<b>, got {token!r}", lineno, column)
    a = _parse_node_token(parts[0], n, lineno, column)
    b = _parse_node_token(parts[1], n, lineno, column + len(parts[0]) + 1)
    if a == b:
        raise ScenarioFormatError(f"self loop {token!r}", lineno, column)
    return (a, b) if a < b else (b, a)


def _parse_int(
    token: str, what: str, lineno: int, column: int, minimum: int | None = 0
) -> int:
    """The number token spells; a minimum of None leaves the range to the caller."""
    if not _INTEGER.fullmatch(token):
        raise ScenarioFormatError(f"{what} must be an integer, got {token!r}", lineno, column)
    value = int(token)
    if minimum is not None and value < minimum:
        raise ScenarioFormatError(f"{what} must be >= {minimum}, got {value}", lineno, column)
    return value


def parse_scenario(text: str, name: str | None = None) -> Scenario:
    """Parse scenario text; errors carry the offending line and column."""
    header_seen = False
    n: int | None = None
    declared_name: str | None = None
    edges: list[tuple[int, int]] = []
    edge_seen: set[tuple[int, int]] = set()
    heights: list[int] | None = None
    seed: int | None = None
    events: list[SimEvent] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = line.split()
        columns = _token_columns(line, tokens)
        if not header_seen:
            if line.strip() != HEADER:
                raise ScenarioFormatError(
                    f"first directive must be {HEADER!r}", lineno, columns[0]
                )
            header_seen = True
            continue
        keyword = tokens[0]
        if keyword == "name":
            declared_name = line.strip()[len("name") :].strip()
            if not declared_name:
                raise ScenarioFormatError("name directive needs a value", lineno, columns[0])
        elif keyword == "nodes":
            if len(tokens) != 2:
                raise ScenarioFormatError("usage: nodes <N>", lineno, columns[0])
            n = _parse_int(tokens[1], "node count", lineno, columns[1], minimum=1)
        elif keyword == "edges":
            if n is None:
                raise ScenarioFormatError("nodes must be declared before edges", lineno, columns[0])
            if len(tokens) < 2:
                raise ScenarioFormatError("edges directive needs at least one edge", lineno, columns[0])
            for token, col in zip(tokens[1:], columns[1:]):
                e = _parse_edge_token(token, n, lineno, col)
                if e in edge_seen:
                    raise ScenarioFormatError(f"duplicate edge {token!r}", lineno, col)
                edge_seen.add(e)
                edges.append(e)
        elif keyword == "heights":
            if n is None:
                raise ScenarioFormatError("nodes must be declared before heights", lineno, columns[0])
            if heights is not None:
                raise ScenarioFormatError("heights declared twice", lineno, columns[0])
            if len(tokens) - 1 != n:
                raise ScenarioFormatError(
                    f"expected {n} heights, got {len(tokens) - 1}", lineno, columns[0]
                )
            heights = []
            for token, col in zip(tokens[1:], columns[1:]):
                value = _parse_int(token, "height", lineno, col, minimum=None)
                if value < 1:
                    raise HeightRangeError(
                        f"initial heights must be positive, got {value}", lineno, col
                    )
                heights.append(value)
        elif keyword == "seed":
            if len(tokens) != 2:
                raise ScenarioFormatError("usage: seed <k>", lineno, columns[0])
            seed = _parse_int(tokens[1], "seed", lineno, columns[1])
        elif keyword == "event":
            events.append(_parse_event(tokens, columns, n, lineno))
        else:
            raise ScenarioFormatError(f"unknown directive {keyword!r}", lineno, columns[0])

    if not header_seen:
        raise ScenarioFormatError("empty scenario: missing header", 1)
    if n is None:
        raise ScenarioFormatError("missing nodes directive", 1)
    if not edges:
        raise ScenarioFormatError("missing edges directive", 1)

    return Scenario.create(
        n,
        edges,
        heights=heights,
        events=events,
        seed=seed,
        name=declared_name if declared_name is not None else name,
    )


def _token_columns(line: str, tokens: list[str]) -> list[int]:
    columns = []
    cursor = 0
    for token in tokens:
        idx = line.index(token, cursor)
        columns.append(idx + 1)
        cursor = idx + len(token)
    return columns


def _parse_event(tokens: list[str], columns: list[int], n: int | None, lineno: int) -> SimEvent:
    if n is None:
        raise ScenarioFormatError("nodes must be declared before events", lineno, columns[0])
    if len(tokens) < 3:
        raise ScenarioFormatError("usage: event <step> <kind> <args>", lineno, columns[0])
    at_step = _parse_int(tokens[1], "event step", lineno, columns[1], minimum=1)
    kind = tokens[2]
    if kind in _FORBIDDEN_EVENT_KINDS:
        raise AdditionForbiddenError(
            f"line {lineno}: topology additions are not modeled ({kind})"
        )
    if kind not in EVENT_KINDS:
        raise ScenarioFormatError(f"unknown event kind {kind!r}", lineno, columns[2])
    args = tokens[3:]
    arg_cols = columns[3:]
    if kind == "remove-node":
        if len(args) != 1:
            raise ScenarioFormatError("usage: event <step> remove-node <i>", lineno, columns[2])
        node = _parse_node_token(args[0], n, lineno, arg_cols[0])
        if node == DESTINATION:
            raise ScenarioFormatError("the destination cannot be removed", lineno, arg_cols[0])
        return SimEvent(at_step, kind, node=node)
    if kind == "remove-link":
        if len(args) != 1:
            raise ScenarioFormatError("usage: event <step> remove-link <a>-<b>", lineno, columns[2])
        edge = _parse_edge_token(args[0], n, lineno, arg_cols[0])
        return SimEvent(at_step, kind, edge=edge)
    if kind == "sleep":
        if len(args) != 2:
            raise ScenarioFormatError("usage: event <step> sleep <i> <duration>", lineno, columns[2])
        node = _parse_node_token(args[0], n, lineno, arg_cols[0])
        duration = _parse_int(args[1], "sleep duration", lineno, arg_cols[1], minimum=1)
        return SimEvent(at_step, kind, node=node, duration=duration)
    if len(args) != 1:
        raise ScenarioFormatError("usage: event <step> wake <i>", lineno, columns[2])
    node = _parse_node_token(args[0], n, lineno, arg_cols[0])
    return SimEvent(at_step, kind, node=node)


# --- serialization ----------------------------------------------------------


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario back to text; parse(serialize(s)) == s."""
    lines = [HEADER]
    if scenario.name:
        lines.append(f"name {scenario.name}")
    lines.append(f"nodes {scenario.n}")
    edge_tokens = [f"{_node_name(a)}-{_node_name(b)}" for a, b in scenario.edges]
    for start in range(0, len(edge_tokens), 12):
        lines.append("edges " + " ".join(edge_tokens[start : start + 12]))
    if scenario.explicit_heights:
        lines.append("heights " + " ".join(str(h) for h in scenario.heights.values))
    if scenario.seed is not None:
        lines.append(f"seed {scenario.seed}")
    for ev in scenario.events:
        lines.append(f"event {ev.at_step} {ev.describe()}")
    return "\n".join(lines) + "\n"


def load_scenario(path: str | Path) -> Scenario:
    """Parse the scenario file at path, named after its stem unless it names itself.

    The file must be UTF-8 text: one that is not raises ScenarioFormatError
    naming the offset and line of the first byte that does not decode.  One
    leading byte order mark, as some editors save UTF-8, is dropped; a
    U+FEFF anywhere else is text, which the parser refuses.
    """
    p = Path(path)
    raw = p.read_bytes()
    try:
        # Decoded before the mark is dropped, so an offset counts the file's bytes.
        text = raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ScenarioFormatError(
            f"not UTF-8 text: byte 0x{raw[exc.start]:02x} at offset {exc.start} does not decode",
            raw.count(b"\n", 0, exc.start) + 1,
        ) from None
    return parse_scenario(text, name=p.stem)

"""Exception types shared across the package."""

from __future__ import annotations


class LinkrevError(Exception):
    """Base class for every error raised by this package."""


class SchemeMismatchError(LinkrevError):
    """A state value does not belong to the scheme it was used with."""


class PhaseAdjacencyError(LinkrevError):
    """Two cyclic phase values are two steps apart, so their order is undefined.

    The two-bit schemes rely on neighboring update counts never differing by
    more than one.  A node that slept through several updates of a neighbor
    can violate that assumption; comparing such states raises instead of
    guessing a direction.
    """


class UnknownNodeError(LinkrevError):
    """A node id is not present in the topology under consideration."""


class EmptyNeighborhoodError(LinkrevError):
    """A neighbor-aware update was attempted with no reachable neighbors."""


class OverflowRiskError(LinkrevError):
    """A height or threshold value would leave the signed 64-bit range."""


class ScheduleError(LinkrevError):
    """A schedule selected nodes that are not currently stuck, or ran out."""


class EmptyStuckSetError(LinkrevError):
    """step() was called although the network is already destination-oriented."""


class EventError(LinkrevError):
    """A topology event refers to a node or link that cannot accept it."""


class AdditionForbiddenError(EventError):
    """Only removals, sleeps and wakes are modeled; additions are rejected."""


class ExplosionGuardError(LinkrevError):
    """Exhaustive schedule enumeration exceeded its state budget.

    It stopped with states_explored distinct state vectors found, of which
    frontier were still waiting to be expanded.
    """

    def __init__(self, message: str, states_explored: int, frontier: int):
        self.states_explored = states_explored
        self.frontier = frontier
        super().__init__(f"{message} ({states_explored} states explored, {frontier} on the frontier)")


class ScenarioError(LinkrevError):
    """Problem in a scenario file.  Carries a line number when one is known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where = f" ({where})"
        super().__init__(f"{message}{where}")


class ScenarioFormatError(ScenarioError):
    """Syntactic problem in a scenario file."""


class DisconnectedGraphError(ScenarioError):
    """The described communication graph is not connected."""


class HeightRangeError(ScenarioError):
    """An initial height is outside the accepted positive range."""

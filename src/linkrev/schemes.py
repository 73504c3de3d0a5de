"""The reversal schemes: their states, update rules and orders, one spec each.

Every fact that sets one scheme apart from another is a field of its
SchemeSpec in SPECS, the one table of this module: the state class, the
update rule and whether it reads neighbor states, the reversal family, the
order that orients links, the state width, the counted schemes' closed
forms and height bands, and the invariants the verifier checks across an
update and between neighbors.  The rest of the package reads spec fields
and never asks which scheme it runs.  Adding a scheme adds its SchemeId
member and its row in SPECS, with its rule and, if no existing class fits,
its state class, all in this module.

Neighbor-aware rules receive a snapshot of the neighbors' current states.
Neighbor-oblivious rules receive at most constants fixed at deployment
time (the maximum initial height), never any neighbor state; keeping the
two signatures distinct makes obliviousness a checkable property of the
API rather than a comment.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    EmptyNeighborhoodError,
    OverflowRiskError,
    PhaseAdjacencyError,
    SchemeMismatchError,
)

if TYPE_CHECKING:
    from .model import HeightAssignment, Topology

#: Cyclic counters wrap modulo 4.  Two bits suffice because the update
#: counts of neighboring nodes never drift more than one apart.
PHASE_MODULUS = 4

#: Largest value representable by a signed 64-bit integer.
INT63_MAX = 2**63 - 1


class SchemeId(str, Enum):
    """Identifier of a reversal scheme (seven schemes plus a baseline)."""

    GB_FULL = "gb-full"
    GB_PARTIAL = "gb-partial"
    NO_FULL = "no-full"
    TWO_BIT_FULL = "two-bit-full"
    ONE_BIT_FULL = "one-bit-full"
    NO_PARTIAL = "no-partial"
    TWO_BIT_PARTIAL = "two-bit-partial"
    BASELINE_INCREMENT = "baseline-increment"

    def __str__(self) -> str:
        return self.value


class HeightState(NamedTuple):
    """State of the classical neighbor-aware full scheme and the baseline."""

    node: int
    height: int


class LevelHeightState(NamedTuple):
    """State of the neighbor-aware partial scheme: a reversal level plus height."""

    node: int
    level: int
    height: int


class CountedHeightState(NamedTuple):
    """State of the neighbor-oblivious schemes: update count plus derived height."""

    node: int
    updates: int
    height: int


class PhaseState(NamedTuple):
    """Two-bit state: the update count modulo 4."""

    node: int
    phase: int


class FlagState(NamedTuple):
    """One-bit state: a parity flag toggled on every update."""

    node: int
    flag: int


State = HeightState | LevelHeightState | CountedHeightState | PhaseState | FlagState

Orientation = Callable[[State, State], bool]


def _guard(value: int, what: str) -> int:
    if value > INT63_MAX:
        raise OverflowRiskError(f"{what} {value} exceeds the signed 64-bit range")
    return value


def threshold(updates: int, max_height: int) -> int:
    """Upper bound of the height band reached after the given update count.

    The sequence starts at 0 and doubles from its second term on; a node
    that has updated t times holds a height strictly between threshold(t-1)
    and threshold(t), so bands of distinct update counts never overlap.
    """
    if updates < 0:
        raise ValueError("update count cannot be negative")
    if max_height < 1:
        raise ValueError("maximum initial height must be positive")
    if updates == 0:
        return 0
    return _guard(2 ** (updates - 1) * (2 * max_height + 1), "threshold")


# --- closed forms and height bands of the counted schemes --------------------


def _full_height(updates: int, initial_height: int, max_height: int) -> int:
    return _guard(initial_height + updates * max_height, "height")


def _partial_height(updates: int, initial_height: int, max_height: int) -> int:
    if updates == 0:
        return initial_height
    if updates % 2 == 0:
        total = sum(threshold(2 * l - 1, max_height) for l in range(1, updates // 2 + 1))
        return _guard(total + initial_height, "height")
    total = threshold(1, max_height)
    total += sum(threshold(2 * l, max_height) for l in range(1, (updates - 1) // 2 + 1))
    return _guard(total - initial_height, "height")


def _in_full_band(updates: int, height: int, max_height: int) -> bool:
    return updates * max_height < height <= (updates + 1) * max_height


def _in_partial_band(updates: int, height: int, max_height: int) -> bool:
    return updates < 1 or threshold(updates - 1, max_height) < height < threshold(updates, max_height)


# --- update rules -----------------------------------------------------------


def gb_full_update(own: HeightState, neighbors: Sequence[HeightState]) -> HeightState:
    """Climb just above the highest neighbor."""
    if not neighbors:
        raise EmptyNeighborhoodError(f"node {own.node} has no reachable neighbor")
    return HeightState(own.node, _guard(max(s.height for s in neighbors) + 1, "height"))


def gb_partial_update(
    own: LevelHeightState, neighbors: Sequence[LevelHeightState]
) -> LevelHeightState:
    """Move one level past the lowest neighbor level.

    If some neighbor already sits on the new level, drop just below the
    lowest height among those neighbors so their links stay outgoing;
    otherwise the level bump alone clears every link.
    """
    if not neighbors:
        raise EmptyNeighborhoodError(f"node {own.node} has no reachable neighbor")
    level = min(s.level for s in neighbors) + 1
    peers = [s.height for s in neighbors if s.level == level]
    height = min(peers) - 1 if peers else own.height
    return LevelHeightState(own.node, level, height)


def no_full_update(own: CountedHeightState, max_height: int) -> CountedHeightState:
    """Add the global maximum initial height, which clears every neighbor."""
    return CountedHeightState(
        own.node, own.updates + 1, _guard(own.height + max_height, "height")
    )


def no_partial_update(own: CountedHeightState, max_height: int) -> CountedHeightState:
    """Reflect the height off the next band threshold.

    The new height lands inside the next band, above every neighbor that
    has updated less and below those that slipped ahead, and within a band
    the reflection reverses the height order each update.
    """
    updates = own.updates + 1
    return CountedHeightState(own.node, updates, threshold(updates, max_height) - own.height)


def two_bit_update(own: PhaseState) -> PhaseState:
    """Advance the cyclic phase."""
    return PhaseState(own.node, (own.phase + 1) % PHASE_MODULUS)


def one_bit_update(own: FlagState) -> FlagState:
    """Toggle the parity flag."""
    return FlagState(own.node, own.flag ^ 1)


def baseline_increment_update(own: HeightState) -> HeightState:
    """Naive comparison baseline: raise the height by one."""
    return HeightState(own.node, _guard(own.height + 1, "height"))


# --- orders -----------------------------------------------------------------


def _check_pair(a: State, b: State, spec: SchemeSpec) -> None:
    want = spec.state
    if type(a) is not want or type(b) is not want:
        raise SchemeMismatchError(
            f"scheme {spec.scheme} orders {want.__name__} values, got {type(a).__name__}/{type(b).__name__}"
        )
    if a.node == b.node:
        raise ValueError(f"cannot order two states of the same node {a.node}")


def _key_points_from(spec: SchemeSpec) -> Orientation:
    want, key = spec.state, spec.sort_key

    def points_from(a: State, b: State) -> bool:
        if type(a) is not want or type(b) is not want or a[0] == b[0]:
            _check_pair(a, b, spec)
        return key(a) > key(b)

    return points_from


def _phase_points_from(
    odd_reverses: bool, spec: SchemeSpec, ranks: tuple[int, ...], a: State, b: State
) -> bool:
    if type(a) is not spec.state or type(b) is not spec.state or a.node == b.node:
        _check_pair(a, b, spec)
    gap = (a.phase - b.phase) % PHASE_MODULUS
    if gap == 1:
        return True
    if gap == 3:
        return False
    if gap == 2:
        raise PhaseAdjacencyError(
            f"phases of nodes {a.node} and {b.node} are two apart "
            f"({a.phase} vs {b.phase}); their order is undefined"
        )
    initially_above = ranks[a.node] > ranks[b.node]
    if a.phase % 2 and odd_reverses:
        return not initially_above
    return initially_above


def _flag_points_from(spec: SchemeSpec, ranks: tuple[int, ...], a: State, b: State) -> bool:
    if type(a) is not spec.state or type(b) is not spec.state or a.node == b.node:
        _check_pair(a, b, spec)
    # Equal flags keep the initial direction of the pair; opposite flags
    # reverse it.
    initially_above = ranks[a.node] > ranks[b.node]
    return initially_above if a.flag == b.flag else not initially_above


# --- invariants the verifier checks -----------------------------------------


def _phase_advance_failure(old: PhaseState, new: PhaseState) -> str | None:
    if new.phase != (old.phase + 1) % PHASE_MODULUS:
        return f"phase of node {old.node} moved {old.phase}->{new.phase}, not one step"
    return None


def _flag_advance_failure(old: FlagState, new: FlagState) -> str | None:
    if new.flag != old.flag ^ 1:
        return f"flag of node {old.node} did not toggle ({old.flag}->{new.flag})"
    return None


def _count_link_failures(a: CountedHeightState, b: CountedHeightState) -> list[str]:
    failures = []
    if abs(a.updates - b.updates) > 1:
        failures.append(f"update counts of {a.node},{b.node} differ by {abs(a.updates - b.updates)}")
    if a.updates > b.updates and not a.height > b.height:
        failures.append(f"node {a.node} updated more but is not higher than {b.node}")
    if b.updates > a.updates and not b.height > a.height:
        failures.append(f"node {b.node} updated more but is not higher than {a.node}")
    return failures


def _phase_link_failures(a: PhaseState, b: PhaseState) -> Sequence[str]:
    if (a.phase - b.phase) % PHASE_MODULUS == 2:
        return (f"phases of neighbors {a.node},{b.node} drifted two apart",)
    return ()


def _level_link_failures(a: LevelHeightState, b: LevelHeightState) -> Sequence[str]:
    if abs(a.level - b.level) > 1:
        return (f"levels of neighbors {a.node},{b.node} drifted apart",)
    return ()


# --- the specs --------------------------------------------------------------


@dataclass(frozen=True)
class SchemeSpec:
    """Everything that sets one scheme apart from the others."""

    scheme: SchemeId
    #: Class of a node's state; its first field is the node.
    state: type
    #: The state before the node's first update, initial(node, initial height).
    initial: Callable[[int, int], State]
    #: The update rule, called as update(own, neighbor states or None, max initial height).
    update: Callable[[State, Sequence[State] | None, int], State]
    #: Whether the rule reads the neighbors' states.
    neighbor_aware: bool
    #: "full" or "partial" reversal; None for the baseline, which is neither.
    reversal: str | None
    #: Key of the total order of the ordered schemes; links point down it.
    sort_key: Callable[[State], tuple[int, ...]] | None = None
    #: Link direction of the other schemes, called as pairwise(spec, ranks,
    #: a, b): ties are broken by the initial (height, id) ranks.
    pairwise: Callable[..., bool] | None = None
    #: Fixed state width of the finite-state schemes, in bits.
    bits: int | None = None
    #: Height after a given update count, closed_form(updates, initial
    #: height, max initial height), and whether a height lies in the band of
    #: its update count, in_band(updates, height, max initial height).
    closed_form: Callable[[int, int, int], int] | None = None
    in_band: Callable[[int, int, int], bool] | None = None
    #: Why the second state is not one update past the first, for the
    #: schemes without a sort key, whose states cycle instead of rising.
    advance_failure: Callable[[State, State], str | None] | None = None
    #: The invariants two neighbors' states break, one message each.
    link_failures: Callable[[State, State], Sequence[str]] | None = None

    @cached_property
    def counted(self) -> bool:
        """Whether the state carries the node's update count."""
        return "updates" in self.state._fields

    def orientation(self, heights: HeightAssignment) -> Orientation:
        """The compiled link direction: True when the link points a.node -> b.node.

        The pairwise orders break ties by the initial heights' ranks.
        """
        if self.sort_key is not None:
            return _key_points_from(self)
        return partial(self.pairwise, self, heights.initial_ranks)


SPECS: Mapping[SchemeId, SchemeSpec] = {
    spec.scheme: spec
    for spec in (
        SchemeSpec(
            SchemeId.GB_FULL, HeightState, HeightState,
            lambda own, neighbors, max_height: gb_full_update(own, neighbors or ()),
            neighbor_aware=True, reversal="full",
            sort_key=itemgetter(1, 0),  # (height, node)
        ),
        SchemeSpec(
            SchemeId.GB_PARTIAL, LevelHeightState, lambda i, h: LevelHeightState(i, 0, h),
            lambda own, neighbors, max_height: gb_partial_update(own, neighbors or ()),
            neighbor_aware=True, reversal="partial",
            sort_key=itemgetter(1, 2, 0),  # (level, height, node)
            link_failures=_level_link_failures,
        ),
        SchemeSpec(
            SchemeId.NO_FULL, CountedHeightState, lambda i, h: CountedHeightState(i, 0, h),
            lambda own, neighbors, max_height: no_full_update(own, max_height),
            neighbor_aware=False, reversal="full",
            sort_key=itemgetter(1, 2, 0),  # (updates, height, node)
            closed_form=_full_height, in_band=_in_full_band,
            link_failures=_count_link_failures,
        ),
        SchemeSpec(
            SchemeId.TWO_BIT_FULL, PhaseState, lambda i, h: PhaseState(i, 0),
            lambda own, neighbors, max_height: two_bit_update(own),
            neighbor_aware=False, reversal="full",
            pairwise=partial(_phase_points_from, False), bits=2,
            advance_failure=_phase_advance_failure, link_failures=_phase_link_failures,
        ),
        SchemeSpec(
            SchemeId.ONE_BIT_FULL, FlagState, lambda i, h: FlagState(i, 0),
            lambda own, neighbors, max_height: one_bit_update(own),
            neighbor_aware=False, reversal="full",
            pairwise=_flag_points_from, bits=1,
            advance_failure=_flag_advance_failure,
        ),
        SchemeSpec(
            SchemeId.NO_PARTIAL, CountedHeightState, lambda i, h: CountedHeightState(i, 0, h),
            lambda own, neighbors, max_height: no_partial_update(own, max_height),
            neighbor_aware=False, reversal="partial",
            # odd counts flip the sign of the id tie-break
            sort_key=lambda s: (s.updates, s.height, -s.node if s.updates % 2 else s.node),
            closed_form=_partial_height, in_band=_in_partial_band,
            link_failures=_count_link_failures,
        ),
        SchemeSpec(
            SchemeId.TWO_BIT_PARTIAL, PhaseState, lambda i, h: PhaseState(i, 0),
            lambda own, neighbors, max_height: two_bit_update(own),
            neighbor_aware=False, reversal="partial",
            # odd phases reverse the initial order
            pairwise=partial(_phase_points_from, True), bits=2,
            advance_failure=_phase_advance_failure, link_failures=_phase_link_failures,
        ),
        SchemeSpec(
            SchemeId.BASELINE_INCREMENT, HeightState, HeightState,
            lambda own, neighbors, max_height: baseline_increment_update(own),
            neighbor_aware=False, reversal=None,
            sort_key=itemgetter(1, 0),  # (height, node)
        ),
    )
}

ALL_SCHEMES: tuple[SchemeId, ...] = tuple(SPECS)

#: The seven schemes under study, in presentation order: every scheme but the baseline.
CORE_SCHEMES: tuple[SchemeId, ...] = tuple(s for s in ALL_SCHEMES if SPECS[s].reversal)


# --- the schemes through their specs ----------------------------------------


def closed_form_height(
    scheme: SchemeId, updates: int, initial_height: int, max_height: int
) -> int:
    """Height of a neighbor-oblivious node after a given number of updates.

    Only the two counted-height schemes admit a closed form.
    """
    if updates < 0:
        raise ValueError("update count cannot be negative")
    closed_form = SPECS[scheme].closed_form
    if closed_form is None:
        raise SchemeMismatchError(f"scheme {scheme} has no closed-form height")
    return closed_form(updates, initial_height, max_height)


def initial_states(
    scheme: SchemeId, topo: Topology, heights: HeightAssignment
) -> dict[int, State]:
    initial = SPECS[scheme].initial
    return {i: initial(i, heights.of(i)) for i in topo.nodes}


def apply_update(
    scheme: SchemeId,
    own: State,
    neighbors: Sequence[State] | None,
    heights: HeightAssignment,
) -> State:
    """Apply the scheme's rule.

    The neighbors argument is consulted only for the two neighbor-aware
    schemes; passing None for the others keeps accidental coupling loud.
    """
    return SPECS[scheme].update(own, neighbors, heights.max_height)


def state_bits(scheme: SchemeId, state: State) -> int:
    """Dynamic state size in bits, the figure the finite-state schemes optimize."""
    bits = SPECS[scheme].bits
    return bits if bits is not None else sum(value.bit_length() for value in state[1:])

"""Update rules of the reversal schemes, as pure state transformers.

Neighbor-aware rules receive a snapshot of the neighbors' current states.
Neighbor-oblivious rules receive at most constants fixed at deployment
time (the maximum initial height), never any neighbor state; keeping the
two signatures distinct makes obliviousness a checkable property of the
API rather than a comment.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .errors import EmptyNeighborhoodError, OverflowRiskError, SchemeMismatchError
from .model import (
    DESTINATION,
    PHASE_MODULUS,
    CountedHeightState,
    FlagState,
    HeightAssignment,
    HeightState,
    LevelHeightState,
    PhaseState,
    SchemeId,
    State,
    STATE_CLASSES,
    Topology,
)

#: Largest value representable by a signed 64-bit integer.
INT63_MAX = 2**63 - 1


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


def closed_form_height(
    scheme: SchemeId, updates: int, initial_height: int, max_height: int
) -> int:
    """Height of a neighbor-oblivious node after a given number of updates.

    Only the two counted-height schemes admit a closed form.
    """
    if updates < 0:
        raise ValueError("update count cannot be negative")
    if scheme is SchemeId.NO_FULL:
        return _guard(initial_height + updates * max_height, "height")
    if scheme is SchemeId.NO_PARTIAL:
        if updates == 0:
            return initial_height
        if updates % 2 == 0:
            total = sum(threshold(2 * l - 1, max_height) for l in range(1, updates // 2 + 1))
            return _guard(total + initial_height, "height")
        total = threshold(1, max_height)
        total += sum(threshold(2 * l, max_height) for l in range(1, (updates - 1) // 2 + 1))
        return _guard(total - initial_height, "height")
    raise SchemeMismatchError(f"scheme {scheme} has no closed-form height")


# --- update rules -----------------------------------------------------------


def gb_full_update(own: HeightState, neighbors: Sequence[HeightState]) -> HeightState:
    """Climb just above the highest neighbor."""
    if not neighbors:
        raise EmptyNeighborhoodError(f"node {own.node} has no reachable neighbor")
    return own._replace(height=_guard(max(s.height for s in neighbors) + 1, "height"))


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
    return own._replace(level=level, height=height)


def no_full_update(own: CountedHeightState, max_height: int) -> CountedHeightState:
    """Add the global maximum initial height, which clears every neighbor."""
    return own._replace(
        updates=own.updates + 1,
        height=_guard(own.height + max_height, "height"),
    )


def no_partial_update(own: CountedHeightState, max_height: int) -> CountedHeightState:
    """Reflect the height off the next band threshold.

    The new height lands inside the next band, above every neighbor that
    has updated less and below those that slipped ahead, and within a band
    the reflection reverses the height order each update.
    """
    updates = own.updates + 1
    return own._replace(updates=updates, height=threshold(updates, max_height) - own.height)


def two_bit_update(own: PhaseState) -> PhaseState:
    """Advance the cyclic phase."""
    return own._replace(phase=(own.phase + 1) % PHASE_MODULUS)


def one_bit_update(own: FlagState) -> FlagState:
    """Toggle the parity flag."""
    return own._replace(flag=own.flag ^ 1)


def baseline_increment_update(own: HeightState) -> HeightState:
    """Naive comparison baseline: raise the height by one."""
    return own._replace(height=_guard(own.height + 1, "height"))


@dataclass(frozen=True)
class RuleInfo:
    """Registry entry describing one scheme's rule."""

    scheme: SchemeId
    state_class: type
    neighbor_aware: bool
    baseline: bool = False


RULES: Mapping[SchemeId, RuleInfo] = {
    SchemeId.GB_FULL: RuleInfo(SchemeId.GB_FULL, HeightState, neighbor_aware=True),
    SchemeId.GB_PARTIAL: RuleInfo(SchemeId.GB_PARTIAL, LevelHeightState, neighbor_aware=True),
    SchemeId.NO_FULL: RuleInfo(SchemeId.NO_FULL, CountedHeightState, neighbor_aware=False),
    SchemeId.TWO_BIT_FULL: RuleInfo(SchemeId.TWO_BIT_FULL, PhaseState, neighbor_aware=False),
    SchemeId.ONE_BIT_FULL: RuleInfo(SchemeId.ONE_BIT_FULL, FlagState, neighbor_aware=False),
    SchemeId.NO_PARTIAL: RuleInfo(SchemeId.NO_PARTIAL, CountedHeightState, neighbor_aware=False),
    SchemeId.TWO_BIT_PARTIAL: RuleInfo(SchemeId.TWO_BIT_PARTIAL, PhaseState, neighbor_aware=False),
    SchemeId.BASELINE_INCREMENT: RuleInfo(
        SchemeId.BASELINE_INCREMENT, HeightState, neighbor_aware=False, baseline=True
    ),
}


def initial_state(scheme: SchemeId, node: int, heights: HeightAssignment) -> State:
    if node == DESTINATION:
        raise ValueError("the destination carries no mutable state")
    h = heights.of(node)
    cls = STATE_CLASSES[scheme]
    if cls is HeightState:
        return HeightState(node, h)
    if cls is LevelHeightState:
        return LevelHeightState(node, 0, h)
    if cls is CountedHeightState:
        return CountedHeightState(node, 0, h)
    if cls is PhaseState:
        return PhaseState(node, 0)
    return FlagState(node, 0)


def initial_states(
    scheme: SchemeId, topo: Topology, heights: HeightAssignment
) -> dict[int, State]:
    return {i: initial_state(scheme, i, heights) for i in topo.nodes}


def apply_update(
    scheme: SchemeId,
    own: State,
    neighbors: Sequence[State] | None,
    heights: HeightAssignment,
) -> State:
    """Dispatch to the scheme's rule.

    The neighbors argument is consulted only for the two neighbor-aware
    schemes; passing None for the others keeps accidental coupling loud.
    """
    if scheme is SchemeId.GB_FULL:
        return gb_full_update(own, neighbors or ())
    if scheme is SchemeId.GB_PARTIAL:
        return gb_partial_update(own, neighbors or ())
    if scheme is SchemeId.NO_FULL:
        return no_full_update(own, heights.max_height)
    if scheme is SchemeId.NO_PARTIAL:
        return no_partial_update(own, heights.max_height)
    if scheme is SchemeId.TWO_BIT_FULL or scheme is SchemeId.TWO_BIT_PARTIAL:
        return two_bit_update(own)
    if scheme is SchemeId.ONE_BIT_FULL:
        return one_bit_update(own)
    if scheme is SchemeId.BASELINE_INCREMENT:
        return baseline_increment_update(own)
    raise SchemeMismatchError(f"unknown scheme {scheme!r}")


def state_bits(scheme: SchemeId, state: State) -> int:
    """Dynamic state size in bits, the figure the finite-state schemes optimize."""
    if isinstance(state, PhaseState):
        return 2
    if isinstance(state, FlagState):
        return 1
    if isinstance(state, HeightState):
        return state.height.bit_length()
    if isinstance(state, LevelHeightState):
        return state.level.bit_length() + abs(state.height).bit_length()
    return state.updates.bit_length() + state.height.bit_length()


def state_payload(scheme: SchemeId, state: State) -> dict[str, int]:
    """JSON-friendly field dict, without the node id."""
    if isinstance(state, HeightState):
        return {"height": state.height}
    if isinstance(state, LevelHeightState):
        return {"level": state.level, "height": state.height}
    if isinstance(state, CountedHeightState):
        return {"updates": state.updates, "height": state.height}
    if isinstance(state, PhaseState):
        return {"phase": state.phase}
    return {"flag": state.flag}


def state_from_payload(scheme: SchemeId, node: int, payload: Mapping[str, int]) -> State:
    cls = STATE_CLASSES[scheme]
    if cls is HeightState:
        return HeightState(node, payload["height"])
    if cls is LevelHeightState:
        return LevelHeightState(node, payload["level"], payload["height"])
    if cls is CountedHeightState:
        return CountedHeightState(node, payload["updates"], payload["height"])
    if cls is PhaseState:
        return PhaseState(node, payload["phase"])
    return FlagState(node, payload["flag"])

"""Reference answers about an orientation, for the tests' oracles.

Each function reads an orientation as its arcs, (source, target) pairs in
canonical edge order, and answers from the arcs alone by the plainest
means, kept apart from the package's incremental and memoized paths so
that a test can hold those paths against them.  rerun_digests reads the
orientations of a trace off a fresh rerun, one step at a time.
apply_update applies one scheme's rule by its id, looking the spec up on
every call, where the package binds each spec's rule once per run or
enumeration.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import starmap

from linkrev.model import DESTINATION, HeightAssignment, Topology, arc_label, arcs_digest, routing_dag
from linkrev.schemes import SPECS, SchemeId, State
from linkrev.sim import Simulation, Trace


def stuck_set(arcs: Iterable[tuple[int, int]], topo: Topology) -> frozenset[int]:
    """Nondestination nodes with no outgoing link."""
    return frozenset(topo.nodes).difference(s for s, _ in arcs)


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


def orientation_flips(
    before: Iterable[tuple[int, int]], after: Iterable[tuple[int, int]]
) -> tuple[tuple[int, int], ...]:
    """Canonical edges common to both orientations whose direction changed, in after's order."""
    prev = {(min(s, d), max(s, d)): (s, d) for s, d in before}
    flipped = []
    for s, d in after:
        e = (min(s, d), max(s, d))
        old = prev.get(e)
        if old is not None and old != (s, d):
            flipped.append(e)
    return tuple(flipped)


def reaching_destination(arcs: Iterable[tuple[int, int]]) -> set[int]:
    """The nodes with a directed path to the destination, the destination included.

    Grows the set until no arc leads into it from outside, one pass over
    the arcs at a time.
    """
    arcs = list(arcs)
    reached = {DESTINATION}
    grown = True
    while grown:
        grown = False
        for s, d in arcs:
            if d in reached and s not in reached:
                reached.add(s)
                grown = True
    return reached


def rerun_digests(trace: Trace) -> list[str]:
    """The digest of a fresh rerun's sim.arcs after each advance(), then of its final orientation.

    What traceio.orientation_digests must derive from the trace alone.  The
    final orientation is checked against a from-scratch routing_dag of the
    awake topology.
    """
    sim = Simulation(trace.scenario, trace.scheme, trace.schedule, trace.step_limit)
    digests = []
    while sim.advance() is not None:
        digests.append(arcs_digest(starmap(arc_label, sim.arcs)))
    arcs = routing_dag(sim.states, sim.awake_topology(), trace.scheme, sim.heights)
    assert sim.arcs == arcs
    digests.append(arcs_digest(starmap(arc_label, arcs)))
    return digests

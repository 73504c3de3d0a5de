"""Reference answers about an orientation, for the tests' oracles.

Each function reads an orientation as its arcs, (source, target) pairs in
canonical edge order, and answers from the arcs alone by the plainest
means, kept apart from the package's incremental and memoized paths so
that a test can hold those paths against them.
"""

from __future__ import annotations

from collections.abc import Iterable

from linkrev.model import DESTINATION, Topology


def stuck_set(arcs: Iterable[tuple[int, int]], topo: Topology) -> frozenset[int]:
    """Nondestination nodes with no outgoing link."""
    return frozenset(topo.nodes).difference(s for s, _ in arcs)


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

"""Trace exports: JSON lines, a one-row CSV summary, and Graphviz frames.

The JSONL format writes one self-contained record per simulation step and
a final totals record, so a truncated file is still a valid prefix.  Every
line is formatted directly, each step line from its StepRecord and the
totals line from the Trace, with the bytes that json.dumps(record,
sort_keys=True, separators=(",", ":")) would write: the keys in sorted
order, and every text that can hold arbitrary characters (the schedule's
description, the certificate, the events) escaped by
json.encoder.encode_basestring_ascii, the encoder json.dumps itself uses.
The lines are made one at a time.  Each node id's text and each reversed
edge's "[a,b]" are made on first use and reused by every later line of
the trace.  The totals line's updates_by_node template, its keys in
string order, is kept per node set, so the traces of a scenario sort and
format those keys once.  trace_to_jsonl joins the lines; write_trace
writes each to the file as it is made, so it never holds the whole text,
and a file cut short is still a valid prefix.

This module is the one place that builds an orientation's text and
hashes it for a trace; the simulator and the verifier's step check hash
nothing.  The trace keeps no digest: orientation_digests derives each as
the lines are written, and Trace.initial_digest reads initial_digest.
The writer builds the initial text (model.text_digest: the arc labels
joined by ";") from the topology's label table, Topology.label_slots, and
hashes it once per export, for the totals line and for every step up to
the first flip.  An event-free step's orientation is the last one with
the step's reversed edges flipped, so the writer keeps the text as bytes,
rewrites each flipped link's slice of it in place, and hashes only after
a step that flipped a link; a step that flipped none shares the last
digest.  An event can bring a link back (a wake) whose direction no
reversed edge reports, so the step after an event is re-oriented from
scratch: the states replayed up to it, over the awake topology that the
events so far leave, through routing_dag.

Step records keep no orientations, so the Graphviz frames are rebuilt by
rerunning the trace's scenario, scheme, schedule and step limit: runs are
deterministic, and each rerun step must reproduce the recorded one.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterator
from functools import lru_cache
from itertools import groupby, islice
from operator import itemgetter
from pathlib import Path

from .model import Topology, routing_dag, text_digest
from .scenario import SimEvent, _node_name
from .schemes import SPECS, initial_states
from .sim import Simulation, Trace

#: JSON string literal of a text, escaped to ASCII as json.dumps writes it.
_text = json.encoder.encode_basestring_ascii
#: The "[a,b]" text of an edge.
_EDGE = "[{0[0]},{0[1]}]"
#: The number of step records made before a logged event.
_records_made = itemgetter(0)

EXPORT_FORMATS = ("jsonl", "csv", "dot-frames")


def _state_template(cls: type) -> str:
    """str.format template of one '"node":{payload}' entry of a step line.

    The payload holds every field but the node, keyed by field name in
    sorted order; format it with the state's fields.
    """
    fields = sorted((name, k) for k, name in enumerate(cls._fields) if name != "node")
    payload = ",".join(f'"{name}":{{{k}}}' for name, k in fields)
    return '"{%d}":{{%s}}' % (cls._fields.index("node"), payload)


_STATE_TEMPLATES = {spec.state: _state_template(spec.state) for spec in SPECS.values()}


class _Memo(dict):
    """A dict that fills a missing key with make(key) on first use."""

    __slots__ = ("_make",)

    def __init__(self, make) -> None:
        super().__init__()
        self._make = make

    def __missing__(self, key):
        text = self[key] = self._make(key)
        return text


@lru_cache(maxsize=128)
def _by_node_order(nodes: tuple[int, ...]) -> tuple[tuple[int, ...], str]:
    """The nodes in the order of their text, and the updates_by_node template.

    The nodes sort by their text, as json.dumps sorts the keys; the template
    holds each '"i":' entry in that order, to be formatted with the counts
    in that order.  Cached by the counts' keys in their order, so every
    trace of a scenario shares one entry.
    """
    order = tuple(sorted(nodes, key=str))
    return order, ",".join([f'"{i}":{{}}' for i in order])


def _text_of(arcs, topo: Topology) -> tuple[bytearray, bytearray]:
    """The turned flags and the digest text of an orientation of topo (see Topology.label_slots)."""
    turned = bytearray([s != a for (s, _), (a, _) in zip(arcs, topo.edges)])
    labels = [back if t else fwd for t, (_, _, _, fwd, back) in zip(turned, topo.label_slots.values())]
    return turned, bytearray(b";".join(labels))


def initial_digest(trace: Trace) -> str:
    """The digest of the trace's initial orientation: Trace.initial_digest."""
    return next(_digests(trace))


def _patched(steps, turned: bytearray, text: bytearray, slots, digest: str) -> Iterator[str]:
    """The digest after each step, each reversed edge's label rewritten in the text in place.

    Returns the last digest.  An edge that is no link flips nothing, and a
    step that flipped no link shares the last digest.  The text is written
    through a memoryview of it: a slice assignment there costs about half
    of one on the bytearray itself.
    """
    view = memoryview(text)
    for _, _, _, _, flipped in steps:
        if flipped:
            for edge in flipped:
                try:
                    k, lo, hi, fwd, back = slots[edge]
                except KeyError:
                    continue
                if turned[k]:
                    turned[k] = 0
                    view[lo:hi] = fwd
                else:
                    turned[k] = 1
                    view[lo:hi] = back
            digest = text_digest(text)
        yield digest
    return digest


def orientation_digests(trace: Trace) -> Iterator[str]:
    """The digest of the orientation after each step of the trace, then the final one's.

    Each is arcs_digest(starmap(arc_label, arcs)) of the arcs the awake
    graph holds after that step, and the last is that of the orientation
    the run ended in.
    """
    return islice(_digests(trace), 1, None)


def _digests(trace: Trace) -> Iterator[str]:
    """The initial orientation's digest, then those of orientation_digests.

    The initial text is built from the initial arcs and patched along each
    step's reversed edges.  Each group of events, logged with the number of
    step records made before it, joins the removed nodes, the sleepers or
    the removed links; the orientation after the next step, or the final
    one when no step followed, is then rebuilt over the awake topology they
    leave, from the states replayed up to it (see the module docstring).
    """
    scenario, steps = trace.scenario, trace.steps
    topo = base = scenario.topology
    turned, text = _text_of(trace.initial_arcs, topo)
    digest, done = text_digest(text), 0
    yield digest
    if trace.event_log:
        states = initial_states(trace.scheme, base, scenario.heights)
        removed: set[int] = set()
        asleep: set[int] = set()
        cut: set[tuple[int, int]] = set()
    for made, logged in groupby(trace.event_log, _records_made):
        digest = yield from _patched(steps[done:made], turned, text, topo.label_slots, digest)
        for rec in steps[done:made + 1]:
            for state in rec.new_states:
                states[state.node] = state
        for _, ev in logged:
            _apply(ev, removed, asleep, cut)
        topo = base.without(drop_nodes=removed | asleep, drop_edges=cut)
        arcs = routing_dag(states, topo, trace.scheme, scenario.heights)
        turned, text = _text_of(arcs, topo)
        digest = text_digest(text)
        if made < len(steps):
            yield digest
            made += 1
        done = made
    digest = yield from _patched(steps[done:], turned, text, topo.label_slots, digest)
    yield digest


def _apply(ev: SimEvent, removed: set[int], asleep: set[int], cut: set[tuple[int, int]]) -> None:
    """Record one event in the sets of removed nodes, sleepers and removed links."""
    if ev.kind == "remove-node":
        removed.add(ev.node)
    elif ev.kind == "remove-link":
        a, b = ev.edge
        cut.add((a, b) if a < b else (b, a))
    elif ev.kind == "sleep":
        asleep.add(ev.node)
    else:
        asleep.discard(ev.node)


def _jsonl_lines(trace: Trace) -> Iterator[str]:
    """Each step line, then the totals line, each with its newline.

    Every line is what json.dumps(..., sort_keys=True) with compact
    separators writes for its record.  A step's values are ints, int lists
    and a hex digest, so no text needs escaping; the digests come from
    _digests, the first and the last the totals line's.  The text of each
    node id, as str() writes it, and of each reversed edge is built on
    first use and reused for the rest of the trace.  Sorting the state
    entries sorts them by node key as a string: a key that is a prefix of
    another ends in '"', which sorts below every digit.  The updates_by_node
    keys of the totals line are sorted the same way, so "10" comes before
    "2", by a template kept per node set.
    """
    steps = trace.steps
    ids = _Memo(str).__getitem__
    edges = _Memo(_EDGE.format).__getitem__
    templates = _STATE_TEMPLATES
    digests = _digests(trace)
    initial = next(digests)
    for (index, stuck, updated, new_states, reversed_edges), digest in zip(steps, digests):
        if len(new_states) == 1:
            state = new_states[0]
            states = templates[type(state)].format(*state)
        else:
            states = ",".join(sorted([templates[type(s)].format(*s) for s in new_states]))
        yield (
            f'{{"dag":"{digest}","index":{index},"reversed":[{",".join(map(edges, reversed_edges))}],'
            f'"states":{{{states}}},"stuck":[{",".join(map(ids, stuck))}],"type":"step",'
            f'"updated":[{",".join(map(ids, updated))}]}}\n'
        )
    certificate = "null" if trace.certificate is None else _text(trace.certificate)
    events = ",".join(f"[{ev.at_step},{_text(ev.describe())}]" for _, ev in trace.event_log)
    counts = trace.update_counts
    order, template = _by_node_order(tuple(counts))
    yield (
        f'{{"certificate":{certificate},"events":[{events}],"final_dag":"{next(digests)}",'
        f'"initial_dag":"{initial}","n":{trace.scenario.n},"outcome":"{trace.outcome.value}",'
        f'"schedule":{_text(trace.schedule.describe())},"scheme":"{trace.scheme.value}",'
        f'"step_limit":{trace.step_limit},"steps":{len(steps)},'
        f'"total_reversals":{trace.total_reversals},"total_updates":{trace.total_updates},'
        f'"type":"totals","updates_by_node":{{{template.format(*[counts[i] for i in order])}}}}}\n'
    )


def trace_to_jsonl(trace: Trace) -> str:
    """One JSON object per step, then one totals object, each on its own line."""
    return "".join(_jsonl_lines(trace))


def trace_to_csv(trace: Trace) -> str:
    """Header plus a single totals row."""
    nodes = sorted(trace.update_counts)
    header = ["outcome", "scheme", "steps", "total_updates", "total_reversals"] + [
        f"updates_{i}" for i in nodes
    ]
    row = [
        trace.outcome.value,
        trace.scheme.value,
        len(trace.steps),
        trace.total_updates,
        trace.total_reversals,
    ] + [trace.update_counts[i] for i in nodes]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerow(row)
    return buffer.getvalue()


def _frame(name: str, label: str, arcs, highlight: tuple[int, ...] = ()) -> str:
    lines = [f"digraph {name} {{"]
    lines.append(f'  label="{label}";')
    lines.append('  "D" [shape=doublecircle];')
    for i in sorted(highlight):
        lines.append(f'  "{i}" [style=filled];')
    for s, d in arcs:
        lines.append(f'  "{_node_name(s)}" -> "{_node_name(d)}";')
    lines.append("}")
    return "\n".join(lines)


def trace_to_dot_frames(trace: Trace) -> str:
    """steps+1 digraph blocks: the initial orientation and one per step.

    The frames are drawn from a rerun of the trace's scenario, scheme,
    schedule and step limit, which must reproduce every recorded step
    record: its stuck set, updaters, new states and reversed edges.  With
    the initial arcs equal and the same events, equal flips at every step
    mean equal orientations.
    """
    sim = Simulation(trace.scenario, trace.scheme, trace.schedule, trace.step_limit)
    if sim.initial_arcs != trace.initial_arcs:
        raise ValueError("the rerun's initial orientation differs from the trace")
    frames = [_frame("frame_0", "initial", sim.initial_arcs)]
    recorded = trace.steps
    while (rec := sim.advance()) is not None:
        if rec.index > len(recorded) or rec != recorded[rec.index - 1]:
            raise ValueError(f"the rerun differs from the trace at step {rec.index}")
        updated = ",".join(str(i) for i in rec.updated)
        frames.append(
            _frame(f"frame_{rec.index}", f"step {rec.index}: updated {updated}", sim.arcs, rec.updated)
        )
    if len(sim.steps) != len(recorded):
        raise ValueError(f"the rerun took {len(sim.steps)} steps, the trace {len(recorded)}")
    return "\n\n".join(frames) + "\n"


def export_trace(trace: Trace, fmt: str) -> str:
    if fmt == "jsonl":
        return trace_to_jsonl(trace)
    if fmt == "csv":
        return trace_to_csv(trace)
    if fmt == "dot-frames":
        return trace_to_dot_frames(trace)
    raise ValueError(f"unknown trace format {fmt!r}; expected one of {EXPORT_FORMATS}")


def write_trace(trace: Trace, path: str | Path, fmt: str) -> None:
    """Write the trace's export to path; JSONL is written line by line as it is made."""
    if fmt != "jsonl":
        # Exported first, so an unknown format raises before the file exists.
        Path(path).write_text(export_trace(trace, fmt), encoding="utf-8")
        return
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(_jsonl_lines(trace))

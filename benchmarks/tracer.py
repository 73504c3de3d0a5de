"""Outside-in tracing of the linkrev package.

The benchmark measures its layers from outside the program: each target
function is wrapped once, and that one wrapper is rebound in every linkrev
module that holds the original.  ``sim``, ``verify`` and ``generate`` import
``routing_dag`` and ``link_points_from`` into their own namespaces, so a
wrapper per namespace would count a call once per hop; rebinding a single
wrapper counts it exactly once.

Three kinds of target:

- ``span``: records a span (name, start, end, parent) per call;
- ``generator``: records a span around each ``next()`` of the returned
  generator, so lazy generation is timed where it happens;
- ``count``: bumps a counter only.  ``link_points_from`` and ``hello_round``
  run hundreds of thousands of times per pass, and timing them would
  dominate what is measured.

Spans stay in memory and are summarised when the pass ends.  A target that
a later refactor deletes is listed in ``absent`` and reads as zero calls.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

PACKAGE = "linkrev"

#: Called after each call with (tracer, args, result, span seconds or None).
Observer = Callable[["Tracer", tuple, object, "float | None"], None]


@dataclass(frozen=True)
class Target:
    """One function of the package to wrap: ``<module>.<attribute path>``."""

    module: str
    name: str
    kind: str = "span"  # "span" | "generator" | "count"
    observe: Observer | None = None

    @property
    def label(self) -> str:
        return f"{self.module}.{self.name}"


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self, targets: Iterable[Target]):
        self.targets = tuple(targets)
        self.counts: dict[str, int] = {t.label: 0 for t in self.targets if t.kind == "count"}
        self.facts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.absent: list[str] = []
        self._labels: list[str] = []
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def __enter__(self) -> Tracer:
        modules = [
            m for name, m in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for target in self.targets:
            owner = sys.modules.get(f"{PACKAGE}.{target.module}")
            path = target.name.split(".")
            if len(path) == 1:
                original = getattr(owner, path[0], None)
                if not callable(original):
                    self.absent.append(target.label)
                    continue
                wrapper = self._wrap(target, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, attr, value))
                            setattr(module, attr, wrapper)
            else:
                cls = getattr(owner, path[0], None)
                raw = vars(cls).get(path[1]) if isinstance(cls, type) else None
                if raw is None:
                    self.absent.append(target.label)
                    continue
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(target, raw.__func__))
                else:
                    replacement = self._wrap(target, raw)
                self._undo.append((cls, path[1], raw))
                setattr(cls, path[1], replacement)
        return self

    def __exit__(self, *exc: object) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        if target.kind == "count":
            return self._counted(target, fn)
        if target.kind == "generator":
            return self._generator(target, fn)
        return self._spanned(target, fn)

    def _counted(self, target: Target, fn: Callable) -> Callable:
        counts, label, observe = self.counts, target.label, target.observe

        def wrapper(*args, **kwargs):
            counts[label] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, result, None)
            return result

        return wrapper

    def _spanned(self, target: Target, fn: Callable) -> Callable:
        name_id, observe = self._label_id(target.label), target.observe
        open_span, close_span = self._open, self._close

        def wrapper(*args, **kwargs):
            index = open_span(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(index)
            if observe is not None:
                observe(self, args, result, self._end[index] - self._start[index])
            return result

        return wrapper

    def _generator(self, target: Target, fn: Callable) -> Callable:
        name_id, observe = self._label_id(target.label), target.observe

        def traced(items: Iterator, args: tuple) -> Iterator:
            while True:
                index = self._open(name_id)
                try:
                    item = next(items)
                except StopIteration:
                    item = None
                finally:
                    self._close(index)
                if observe is not None:
                    # None tells the observer that the generator is exhausted.
                    observe(self, args, item, self._end[index] - self._start[index])
                if item is None:
                    return
                yield item

        def wrapper(*args, **kwargs):
            return traced(fn(*args, **kwargs), args)

        return wrapper

    # -- spans ---------------------------------------------------------------

    def _label_id(self, label: str) -> int:
        self._labels.append(label)
        return len(self._labels) - 1

    def _open(self, name_id: int) -> int:
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._stack.pop()

    def span_stats(self) -> dict[str, tuple[int, float, float]]:
        """Per label: (calls, inclusive seconds, self seconds).

        Self time is a span's length minus the time its child spans cover;
        spans nest strictly in one thread, so that is the sum of the
        children's lengths.
        """
        child = [0.0] * len(self._start)
        for i, parent in enumerate(self._parent):
            if parent >= 0:
                child[parent] += self._end[i] - self._start[i]
        stats = {label: [0, 0.0, 0.0] for label in self._labels}
        for i, name_id in enumerate(self._name):
            entry = stats[self._labels[name_id]]
            length = self._end[i] - self._start[i]
            entry[0] += 1
            entry[1] += length
            entry[2] += length - child[i]
        return {label: tuple(v) for label, v in stats.items()}

    def layer_seconds(self, module: str) -> float:
        """Time inside spans of one module, not counting spans nested in another of its spans."""
        prefix = module + "."
        in_layer = [label.startswith(prefix) for label in self._labels]
        total = 0.0
        for i, name_id in enumerate(self._name):
            if not in_layer[name_id]:
                continue
            parent = self._parent[i]
            while parent >= 0 and not in_layer[self._name[parent]]:
                parent = self._parent[parent]
            if parent < 0:
                total += self._end[i] - self._start[i]
        return total

    def root_seconds(self) -> float:
        """Time covered by spans that no other span encloses."""
        return sum(
            self._end[i] - self._start[i] for i, parent in enumerate(self._parent) if parent < 0
        )


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0

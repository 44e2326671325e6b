"""Layer-boundary spans recorded from outside the program.

The benchmark wraps each layer's public functions at the module attribute
where its caller looks them up, records one span per call (name, start,
end, parent) plus work counts, and puts every attribute back afterwards.
The program's source is never modified.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


# Counter hooks: (counts, span name, args, kwargs, result) -> None.
Counter = Callable[[dict, str, tuple, dict, object], None]


def _points(arg_index: int, kwarg: str) -> Counter:
    def count(counts, name, args, kwargs, result):
        x = args[arg_index] if len(args) > arg_index else kwargs[kwarg]
        counts[f"{name}.points"] += int(np.size(x))

    return count


def _trials(counts, name, args, kwargs, result):
    counts[f"{name}.trials"] += len(result)


def _evaluations(counts, name, args, kwargs, result):
    counts[f"{name}.evaluations"] += result.evaluations


@dataclass(frozen=True)
class Boundary:
    """One wrapped function: where it is looked up and what its span is called."""

    module: str
    attr: str
    span: str
    counter: Optional[Counter] = None


# ``cli`` imports load_scenario and the snapshot builders by name, so they
# are wrapped in ``splitphoton.cli``.  ``identity_suite`` and ``_Simulator``
# call ``integrate`` and ``crossing_events`` as module globals, so wrapping
# the module attribute catches both those calls and the ones from ``cli``.
BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("splitphoton.cli", "main", "cli.main"),
    Boundary("splitphoton.cli", "load_scenario", "scenario.load_scenario"),
    Boundary("splitphoton.cli", "reflection_snapshot", "snapshot.reflection_snapshot"),
    Boundary("splitphoton.cli", "free_snapshot", "snapshot.free_snapshot"),
    Boundary("splitphoton.experiments", "run_trials", "experiments.run_trials", _trials),
    Boundary("splitphoton.experiments", "aggregate", "experiments.aggregate"),
    Boundary("splitphoton.experiments", "crossing_events", "experiments.crossing_events"),
    Boundary("splitphoton.reflection", "reflect_field", "reflection.reflect_field",
             _points(2, "x")),
    Boundary("splitphoton.reflection", "energy_ledger", "reflection.energy_ledger"),
    Boundary("splitphoton.wavestate", "split_state", "wavestate.split_state", _points(1, "x")),
    Boundary("splitphoton.wavestate", "eigenmode", "wavestate.eigenmode", _points(1, "x")),
    Boundary("splitphoton.validation", "integrate", "validation.integrate", _evaluations),
    Boundary("splitphoton.validation", "identity_suite", "validation.identity_suite"),
    Boundary("splitphoton.validation", "locate_jumps", "validation.locate_jumps"),
)


class Tracer:
    """Spans and counts kept in memory; summarised when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _wrap(self, fn: Callable, boundary: Boundary) -> Callable:
        name, counter = boundary.span, boundary.counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(Span(name, 0.0, 0.0, parent))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = Span(name, start, end, parent)
                self.counts[f"{name}.calls"] += 1
            if counter is not None:
                counter(self.counts, name, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every boundary for the duration of the block, then restore it."""
        saved = []
        try:
            for b in BOUNDARIES:
                module = importlib.import_module(b.module)
                original = getattr(module, b.attr)
                saved.append((module, b.attr, original))
                setattr(module, b.attr, self._wrap(original, b))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name: duration minus the time its children cover.

    Spans come from one thread, so a span's children never overlap and the
    time they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            covered[sp.parent] += sp.end - sp.start
    totals: dict[str, float] = defaultdict(float)
    for sp, child in zip(spans, covered):
        totals[sp.name] += (sp.end - sp.start) - child
    return dict(totals)

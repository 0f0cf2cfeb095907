"""Span recording for the benchmark's traced runs.

The benchmark measures each layer of the program from outside: it
wraps the public functions a layer exposes, patched into the namespace
where the caller looks the name up (``repro.evaluation.metrics.recognize``,
``repro.fuzzing.grammar_fuzzer.parse``, a class attribute for methods),
and restores the originals afterwards. Spans stay in memory and are
written out once, as Chrome trace JSON, when the run ends.

A span's *self time* is its duration minus the time its child spans
cover, so the self times of every layer plus the time covered by no
span add up to the traced wall-clock exactly. A layer's calls and
inclusive seconds count only its outermost spans, so a layer that
calls itself (a batch entry point that probes one string at a time)
is not counted twice.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Tail percentiles tried, highest first; a layer reports the highest
#: one that still has at least ``TAIL_MIN_BEYOND`` calls beyond it.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10
#: Latency quantiles are reported only for layers called this often.
LATENCY_MIN_CALLS = 100


class LayerStats:
    """Aggregates of every span recorded under one layer name."""

    def __init__(self) -> None:
        self.calls = 0
        self.errors = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.chars = 0
        self.durations: List[float] = []
        #: Inclusive seconds per label (one subject, one ladder size).
        self.by_label: Dict[str, float] = {}

    def latency(self) -> Tuple[float, float, float]:
        """``(p50_ms, tail_ms, tail_pct)``; zeros below LATENCY_MIN_CALLS."""
        count = len(self.durations)
        if count < LATENCY_MIN_CALLS:
            return 0.0, 0.0, 0.0
        ordered = sorted(self.durations)
        for pct in TAIL_PERCENTILES:
            if count * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
                rank = max(1, math.ceil(pct / 100.0 * count))
                return (
                    1000.0 * statistics.median(ordered),
                    1000.0 * ordered[rank - 1],
                    pct,
                )
        return 1000.0 * statistics.median(ordered), 0.0, 0.0


class Recorder:
    """Records nested spans around wrapped calls.

    ``wrap`` returns a recording wrapper; ``patch`` installs one in
    place of a module or class attribute and ``restore`` puts every
    original back. Spans nest by call order on the one thread the
    benchmark runs.
    """

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.layers: Dict[str, LayerStats] = {}
        #: ``(layer, label, start, end, depth)`` per span, for the trace.
        self.events: List[Tuple[str, Optional[str], float, float, int]] = []
        self._children: List[List[float]] = []
        self._active: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    def stats(self, layer: str) -> LayerStats:
        found = self.layers.get(layer)
        if found is None:
            found = self.layers[layer] = LayerStats()
        return found

    def call(
        self,
        layer: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        label: Optional[str] = None,
        chars: int = 0,
    ):
        covered = [0.0]
        depth = len(self._children)
        self._children.append(covered)
        outermost = not self._active.get(layer)
        self._active[layer] = self._active.get(layer, 0) + 1
        failed = True
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = self.clock()
            self._children.pop()
            self._active[layer] -= 1
            duration = end - start
            if self._children:
                self._children[-1][0] += duration
            stats = self.stats(layer)
            stats.self_s += duration - covered[0]
            if outermost:
                stats.calls += 1
                stats.errors += failed
                stats.total_s += duration
                stats.chars += chars
                stats.durations.append(duration)
                if label is not None:
                    stats.by_label[label] = (
                        stats.by_label.get(label, 0.0) + duration
                    )
            self.events.append((layer, label, start, end, depth))

    def wrap(
        self,
        layer: str,
        fn: Callable,
        label_of: Optional[Callable[..., str]] = None,
        chars_of: Optional[Callable[..., int]] = None,
    ) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            return recorder.call(
                layer,
                fn,
                args,
                kwargs,
                label=label_of(*args, **kwargs) if label_of else None,
                chars=chars_of(*args, **kwargs) if chars_of else 0,
            )

        return recorded

    def patch(self, owner: Any, attr: str, layer: str, **how) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else (
            getattr(owner, attr)
        )
        self.install(owner, attr, self.wrap(layer, original, **how))

    def install(self, owner: Any, attr: str, replacement: Any) -> None:
        """Replace ``owner.attr``; :meth:`restore` undoes it."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_seconds(self) -> float:
        return sum(stats.self_s for stats in self.layers.values())

    def write_chrome_trace(self, path: str) -> None:
        """Write every span as a Chrome ``X`` (complete) event."""
        events = []
        for layer, label, start, end, depth in self.events:
            events.append({
                "name": layer if label is None else layer + ":" + label,
                "cat": layer,
                "ph": "X",
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"depth": depth},
            })
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)

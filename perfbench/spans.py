"""In-memory span recorder for the traced benchmark run.

A span wraps one call into a layer of pgblrc from the benchmark's side.
It records its name (``<layer>.<step>``), start and end
(``perf_counter_ns``), the span that was open when it started, the
operation it belongs to, and the round that holds it (a set-up repetition
or one pass of the workload).  Spans stay in memory until ``write`` dumps
them with each layer's self time at the end of the run.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

_NULL = nullcontext()


class NullTracer:
    """Stand-in used by the untraced run: spans cost one method call."""

    enabled = False

    def span(self, name: str, op: str | None = None):
        return _NULL

    def round(self, phase: str):
        return _NULL

    def count(self, name: str, value: float) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self) -> None:
        # (id, name, start_ns, end_ns, parent_id, op, round)
        self.spans: list[tuple] = []
        self.counts: dict[str, list[tuple[str, float]]] = {}
        self._stack: list[int] = []
        self._op: str | None = None
        self._round = "none:0"
        self._round_seq: dict[str, int] = {}

    @contextmanager
    def round(self, phase: str):
        """Group the spans recorded inside into one repetition of ``phase``."""
        idx = self._round_seq.get(phase, 0)
        self._round_seq[phase] = idx + 1
        outer = self._round
        self._round = f"{phase}:{idx}"
        try:
            yield
        finally:
            self._round = outer

    @contextmanager
    def span(self, name: str, op: str | None = None):
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id in start order
        parent = self._stack[-1] if self._stack else None
        outer_op = self._op
        if op is not None:
            self._op = op
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent, self._op,
                                   self._round)
            self._op = outer_op

    def count(self, name: str, value: float) -> None:
        """Record a count at a layer boundary, in the current round."""
        self.counts.setdefault(name, []).append((self._round, value))

    # ------------------------------------------------------------------
    # summaries

    def self_seconds(self, span_id: int) -> float:
        """Duration of one closed span minus the part its children cover."""
        _, _, start, end, _, _, _ = self.spans[span_id]
        children = sum(s[3] - s[2] for s in self.spans[span_id + 1:] if s[4] == span_id)
        return (end - start - children) / 1e9

    def self_times_ns(self) -> dict[int, int]:
        """Span id -> duration minus the part its children cover."""
        child_ns: dict[int, int] = {}
        for sid, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        return {sid: (end - start) - child_ns.get(sid, 0)
                for sid, _, start, end, _, _, _ in self.spans}

    def per_round_totals(self) -> dict[str, list[float]]:
        """Span name -> total seconds in each round that holds that name."""
        totals: dict[str, dict[str, int]] = {}
        for _, name, start, end, _, _, rnd in self.spans:
            by_round = totals.setdefault(name, {})
            by_round[rnd] = by_round.get(rnd, 0) + (end - start)
        return {name: [ns / 1e9 for ns in by_round.values()]
                for name, by_round in totals.items()}

    def median_seconds(self, name: str) -> float | None:
        """Median over rounds of the seconds spent in spans called ``name``."""
        values = self.per_round_totals().get(name)
        return statistics.median(values) if values else None

    def median_spans_per_round(self, phase: str) -> float | None:
        """Median over the rounds of ``phase`` of the spans each one recorded."""
        per_round: dict[str, int] = {}
        for *_, rnd in self.spans:
            if rnd.startswith(phase + ":"):
                per_round[rnd] = per_round.get(rnd, 0) + 1
        return statistics.median(per_round.values()) if per_round else None

    def median_count(self, name: str) -> float | None:
        per_round: dict[str, float] = {}
        for rnd, value in self.counts.get(name, ()):
            per_round[rnd] = per_round.get(rnd, 0) + value
        return statistics.median(per_round.values()) if per_round else None

    def layer_self_seconds(self) -> dict[str, float]:
        """Layer name -> self time summed over every span of that layer."""
        out: dict[str, float] = {}
        self_ns = self.self_times_ns()
        for sid, name, *_ in self.spans:
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_ns[sid] / 1e9
        return out

    def write(self, path: Path, extra: dict) -> None:
        self_ns = self.self_times_ns()
        payload = {
            "spans": [
                {"id": sid, "name": name, "start_ns": start, "end_ns": end,
                 "parent": parent, "op": op, "round": rnd,
                 "self_ns": self_ns[sid]}
                for sid, name, start, end, parent, op, rnd in self.spans
            ],
            "counts": {name: [{"round": r, "value": v} for r, v in values]
                       for name, values in self.counts.items()},
            "layer_self_s": self.layer_self_seconds(),
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1), encoding="utf-8")


def span_cost_ns(samples: int = 20_000) -> float:
    """Measured cost of recording one empty span, in nanoseconds.

    The traced run multiplies this by the spans one pass of the workload
    records to report the tracing overhead per pass: the wall time a traced
    pass adds over an untraced pass of the same calls.
    """
    best = float("inf")
    for _ in range(5):
        tracer = Tracer()
        start = time.perf_counter_ns()
        for _ in range(samples):
            with tracer.span("probe.empty"):
                pass
        null = NullTracer()
        mid = time.perf_counter_ns()
        for _ in range(samples):
            with null.span("probe.empty"):
                pass
        end = time.perf_counter_ns()
        best = min(best, ((mid - start) - (end - mid)) / samples)
    return best

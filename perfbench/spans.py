"""Spans around the calls into each relaxkv module, for the traced run.

The tracer replaces public functions by name with wrappers that record a span
(name, start, end, parent, step) and a few counts taken at the same boundary,
and puts every original back afterwards. A name that no longer exists is
skipped, so a refactor that removes it loses the layer metrics built on it
instead of crashing the benchmark.

A span is named after the module that defines the function, and that module
is its layer: ``cli``, ``rollout``, ``memory``, ``rope``, ``attention`` or
``metrics``. A layer's self time is the time its spans cover minus the time
their child spans cover. The root span's own self time, the part of the call
that no wrapped function covers, is kept apart, so the layers' self times sum
to the whole call only as far as the wrappers cover it.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT_SPAN = "cli.main"
_MARK = "__perfbench_original__"

# (module, attribute path, span name). Shared helpers are wrapped in every
# module namespace they are called through.
TARGETS = [
    ("relaxkv.cli", "cmd_rollout", "cli.cmd_rollout"),
    ("relaxkv.cli", "cmd_profile", "cli.cmd_profile"),
    ("relaxkv.cli", "run_rollout", "rollout.run_rollout"),
    ("relaxkv.cli", "trace_report", "cli.trace_report"),
    ("relaxkv.cli", "partition", "memory.partition"),
    ("relaxkv.cli", "restrict_candidates", "memory.restrict_candidates"),
    ("relaxkv.cli", "sample_pool", "memory.sample_pool"),
    ("relaxkv.cli", "count_step_cost", "attention.count_step_cost"),
    ("relaxkv.cli", "trace_metrics", "metrics.trace_metrics"),
    ("relaxkv.cli", "steady_cost", "metrics.steady_cost"),
    ("relaxkv.rollout", "structured_step_memory", "rollout.structured_step_memory"),
    ("relaxkv.rollout", "select_memory", "memory.select_memory"),
    ("relaxkv.rollout", "partition", "memory.partition"),
    ("relaxkv.rollout", "restrict_candidates", "memory.restrict_candidates"),
    ("relaxkv.rollout", "sample_pool", "memory.sample_pool"),
    ("relaxkv.rollout", "relaxed_positions", "rope.relaxed_positions"),
    ("relaxkv.rollout", "window_positions", "rope.window_positions"),
    ("relaxkv.rollout", "attend_chunk", "attention.attend_chunk"),
    ("relaxkv.rollout", "append_and_evict", "attention.append_and_evict"),
    ("relaxkv.memory", "partition", "memory.partition"),
    ("relaxkv.memory", "restrict_candidates", "memory.restrict_candidates"),
    ("relaxkv.memory", "sample_pool", "memory.sample_pool"),
    ("relaxkv.attention", "ToyAttentionStack.embed_chunk", "attention.embed_chunk"),
    ("relaxkv.attention", "rotate_tokens", "rope.rotate_tokens"),
    ("relaxkv.attention", "partition", "memory.partition"),
    ("relaxkv.attention", "restrict_candidates", "memory.restrict_candidates"),
    ("relaxkv.metrics", "trace_metrics", "metrics.trace_metrics"),
    ("relaxkv.metrics", "steady_cost", "metrics.steady_cost"),
]

# Counts are read from arguments and results; a failed read drops the metrics
# that need the count rather than the run.
_COUNT_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


def _frame_bytes(frame) -> int:
    return frame.keys.nbytes + frame.values.nbytes


def _count_attend(counts, args, result, _):
    mem, cache = args[1], args[3]
    counts["score_ops"] += result[3].score_ops
    counts["kv_gather_bytes"] += sum(_frame_bytes(cache.frames[f]) for f in mem.all_ids)


def _count_rotate(counts, args, result, _):
    vecs = args[0]
    counts["rotated_rows"] += vecs.size // vecs.shape[-1]


def _count_select(counts, args, result, _):
    mem, scored = result
    counts["candidates_scored"] += len(scored)
    counts["history_selected"] += len(mem.history_ids)


def _before_evict(args):
    cache, new_frames = args[0], args[1]
    held = len(cache.frames) + sum(1 for f in new_frames if f.id not in cache.frames)
    return held, _frame_bytes(new_frames[0]) if new_frames else 0


def _count_evict(counts, args, result, state):
    held, frame_bytes = state
    counts["evicted_frames"] += held - len(args[0].frames)
    counts["resident_frames_peak"] = max(counts["resident_frames_peak"], held)
    counts["resident_bytes_peak"] = max(counts["resident_bytes_peak"], held * frame_bytes)


# span name -> (read before the call, count after the call)
_COUNTERS = {
    "attention.attend_chunk": (None, _count_attend),
    "rope.rotate_tokens": (None, _count_rotate),
    "memory.select_memory": (None, _count_select),
    "attention.append_and_evict": (_before_evict, _count_evict),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    step: int | None  # rollout step; spans of one step share it
    call: int


class Tracer:
    """Records spans and counts in memory while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.call_counts: list[defaultdict] = []
        self.broken: set[str] = set()  # span names whose counts could not be read
        self.missing: set[str] = set()  # span names with no target found
        self._installed: list[tuple[object, str, object, bool]] = []
        self._stack: list[int] = []
        self._step: int | None = None

    def install(self) -> None:
        found: dict[str, bool] = {}
        for module_name, attr_path, span_name in self.targets:
            owner, attr = _resolve(module_name, attr_path)
            ok = owner is not None and callable(getattr(owner, attr, None))
            found[span_name] = found.get(span_name, False) or ok
            if ok:
                original = getattr(owner, attr)
                self._installed.append((owner, attr, original, attr in vars(owner)))
                setattr(owner, attr, self._wrap(original, span_name))
        self.missing = {name for name, ok in found.items() if not ok}

    def uninstall(self) -> None:
        """Put every original back and check that it is back."""
        for owner, attr, original, own in reversed(self._installed):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        installed, self._installed = self._installed, []
        for owner, attr, original, _ in installed:
            if getattr(owner, attr, None) is not original:
                raise RuntimeError(f"traced function {attr} was not restored")

    def _wrap(self, original, span_name):
        before, after = _COUNTERS.get(span_name, (None, None))
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = tracer._guard(span_name, before, args) if before else None
            idx = tracer.open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after:
                tracer._guard(span_name, after, tracer.call_counts[-1], args, result, state)
            return result

        setattr(wrapper, _MARK, original)
        return wrapper

    def _guard(self, span_name, fn, *args):
        if span_name in self.broken:
            return None
        try:
            return fn(*args)
        except _COUNT_ERRORS:
            self.broken.add(span_name)
            return None

    def begin_call(self) -> int:
        """Start a traced call; returns the index of its root span."""
        self.call_counts.append(defaultdict(int))
        self._step = None
        return self.open(ROOT_SPAN)

    def open(self, name: str) -> int:
        if name == "rollout.run_rollout":
            self._step = 0
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        call = len(self.call_counts) - 1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._step, call))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.name == "attention.append_and_evict" and self._step is not None:
            self._step += 1
        elif span.name == "rollout.run_rollout":
            self._step = None

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _resolve(module_name: str, attr_path: str):
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, ""
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, ""
    return owner, attr


def wrapped_targets(targets=TARGETS) -> list[str]:
    """Targets that currently hold a tracer wrapper (empty once restored)."""
    out = []
    for module_name, attr_path, _ in targets:
        owner, attr = _resolve(module_name, attr_path)
        if owner is not None and hasattr(getattr(owner, attr, None), _MARK):
            out.append(f"{module_name}.{attr_path}")
    return out


# ---------------------------------------------------------------------------
# per-layer metrics


def _tail_percentile(n: int) -> float | None:
    """Highest percentile on a fixed ladder with at least ten samples beyond it."""
    for pct in (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 50.0):
        if n * (100 - pct) / 100 >= 10 - 1e-9:
            return pct
    return None


def _percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = pct / 100 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def _call_breakdown(spans: list[Span], first: int, last: int):
    """Self and total time by span name, and step latencies, for one call."""
    child = defaultdict(float)
    for span in spans[first:last]:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    steps: list[float] = []
    step_start = None
    for idx in range(first, last):
        span = spans[idx]
        dur = span.end - span.start
        total_s[span.name] += dur
        self_s[span.name] += dur - child[idx]
        if span.name == "rollout.run_rollout":
            step_start = span.start
        elif span.name == "attention.append_and_evict" and span.step is not None:
            steps.append(span.end - step_start)
            step_start = span.end
    return self_s, total_s, steps


# metric -> span names it is built from; used to drop metrics of missing spans
_SOURCES = {
    "attention.attend_self_s": {"attention.attend_chunk", "rope.rotate_tokens"},
    "attention.ns_per_score_op": {"attention.attend_chunk", "rope.rotate_tokens"},
    "attention.score_ops": {"attention.attend_chunk"},
    "attention.embed_s": {"attention.embed_chunk"},
    "attention.kv_gather_mb": {"attention.attend_chunk"},
    "attention.evict_s": {"attention.append_and_evict"},
    "attention.evicted_frames": {"attention.append_and_evict"},
    "attention.resident_frames_peak": {"attention.append_and_evict"},
    "attention.resident_mb_peak": {"attention.append_and_evict"},
    "attention.count_cost_s": {"attention.count_step_cost"},
    "rope.rotate_s": {"rope.rotate_tokens"},
    "rope.rotated_rows": {"rope.rotate_tokens"},
    "rope.plan_s": {"rope.relaxed_positions", "rope.window_positions"},
    "memory.select_s": {"memory.select_memory"},
    "memory.partition_s": {"memory.partition", "memory.restrict_candidates"},
    "memory.candidates_scored": {"memory.select_memory"},
    "memory.history_selected": {"memory.select_memory"},
    "memory.select_yield": {"memory.select_memory"},
    "cli.report_s": {"cli.trace_report"},
    "cli.self_s": {
        "cli.cmd_rollout", "cli.cmd_profile", "rollout.run_rollout", "cli.trace_report",
    },
    "rollout.self_s": {"rollout.run_rollout", "rollout.structured_step_memory"},
    "rollout.step_ms_p50": {"rollout.run_rollout", "attention.append_and_evict"},
    "rollout.step_ms_tail": {"rollout.run_rollout", "attention.append_and_evict"},
    "rollout.step_tail_pct": {"rollout.run_rollout", "attention.append_and_evict"},
    "rollout.step_samples": {"rollout.run_rollout", "attention.append_and_evict"},
    "metrics.trace_metrics_s": {"metrics.trace_metrics", "metrics.steady_cost"},
}


def layer_metrics(tracer: Tracer, traced_s: list[float], untraced_s: list[float]) -> dict:
    """Per-layer metrics of a traced run: medians over its traced calls.

    ``traced_s`` and ``untraced_s`` are the wall times of the traced calls and
    of the untraced calls run alongside them, taken outside the root span.
    A metric built on a missing span, or on a count that could not be read,
    is left out.
    """
    spans = tracer.spans
    roots = [i for i, s in enumerate(spans) if s.name == ROOT_SPAN] + [len(spans)]
    per_call: list[dict] = []
    steps_ms: list[float] = []
    steps_per_call = []
    for call, (first, last) in enumerate(zip(roots, roots[1:])):
        self_s, total_s, steps = _call_breakdown(spans, first, last)
        counts = tracer.call_counts[call]
        root_self = self_s.pop(ROOT_SPAN, 0.0)
        layer = defaultdict(float)
        for name, value in self_s.items():
            layer[name.split(".", 1)[0]] += value
        steps_ms.extend(1e3 * s for s in steps)
        steps_per_call.append(len(steps))
        ops = counts["score_ops"]
        scored = counts["candidates_scored"]
        per_call.append(
            {
                "attention.attend_self_s": self_s["attention.attend_chunk"],
                "attention.ns_per_score_op": (
                    1e9 * self_s["attention.attend_chunk"] / ops if ops else 0.0
                ),
                "attention.score_ops": ops,
                "attention.embed_s": self_s["attention.embed_chunk"],
                "attention.kv_gather_mb": counts["kv_gather_bytes"] / 1e6,
                "attention.evict_s": self_s["attention.append_and_evict"],
                "attention.evicted_frames": counts["evicted_frames"],
                "attention.resident_frames_peak": counts["resident_frames_peak"],
                "attention.resident_mb_peak": counts["resident_bytes_peak"] / 1e6,
                "attention.count_cost_s": self_s["attention.count_step_cost"],
                "rope.rotate_s": self_s["rope.rotate_tokens"],
                "rope.rotated_rows": counts["rotated_rows"],
                "rope.plan_s": (
                    self_s["rope.relaxed_positions"] + self_s["rope.window_positions"]
                ),
                "memory.select_s": layer["memory"],
                "memory.partition_s": (
                    total_s["memory.partition"] + total_s["memory.restrict_candidates"]
                ),
                "memory.candidates_scored": scored,
                "memory.history_selected": counts["history_selected"],
                "memory.select_yield": (
                    counts["history_selected"] / scored if scored else 0.0
                ),
                "cli.report_s": total_s["cli.trace_report"],
                "cli.self_s": layer["cli"],
                "rollout.self_s": layer["rollout"],
                "metrics.trace_metrics_s": layer["metrics"],
                "trace.root_self_s": root_self,
                "trace.layer_sum_ratio": sum(layer.values()) / traced_s[call],
            }
        )
    # times: median over the traced calls; counts repeat exactly, so any call's
    out = {
        name: (
            statistics.median_low(c[name] for c in per_call)
            if isinstance(per_call[0][name], int)
            else statistics.median(c[name] for c in per_call)
        )
        for name in per_call[0]
    }
    # the percentile follows one call's step count, so it is the same every run
    pct = _tail_percentile(min(steps_per_call))
    out["rollout.step_ms_p50"] = statistics.median(steps_ms) if steps_ms else 0.0
    out["rollout.step_ms_tail"] = _percentile(steps_ms, pct) if pct else 0.0
    out["rollout.step_tail_pct"] = pct or 0.0
    out["rollout.step_samples"] = len(steps_ms)
    out["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(untraced_s)
    return {
        name: value
        for name, value in out.items()
        if not (_SOURCES.get(name, set()) & (tracer.missing | tracer.broken))
    }

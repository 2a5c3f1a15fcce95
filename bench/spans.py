"""Outside-in tracing of one ``run_analyze`` call.

While a :class:`Tracer` is active it replaces the module-level names that
``swimlap.pipeline`` looks up when it runs (the functions it imports and its
own per-trial helpers) with timing wrappers, and restores them afterwards.
The real ``run_analyze`` still drives every call, with its order, threads
and writes unchanged. Nothing in the package is edited.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps
from pathlib import Path

import numpy as np

# Pipeline global -> per-layer metric that its self time counts into.
LAYER_OF = {
    "parse_tag_csv": "ingest.parse_s",
    "master_timeline": "ingest.resample_s",
    "resample_linear": "ingest.resample_s",
    "estimate_orientation": "orientation.ahrs_s",
    "compute_kinematics": "kinematics.s",
    "dead_reckon": "localization.s",
    "curvature_radius": "localization.s",
    "thrust_power": "energetics.power_s",
    "fit_summary": "energetics.fit_s",
    "detect_laps": "segmentation.s",
    "classify_phases": "segmentation.s",
    "lap_metrics": "segmentation.s",
    "corner_circle_fits": "segmentation.s",
    "normalize_lap": "segmentation.normalize_s",
    "track_to_csv": "pipeline.write_s",
    "track_to_geojson": "pipeline.write_s",
    "write_laps_csv": "pipeline.write_s",
    "write_energetics_csv": "pipeline.write_s",
    "write_normalized_csv": "pipeline.write_s",
    "_sha256": "pipeline.write_s",  # input hashes recorded in the manifest
}

# The per-trial entry point; its span is the parent of a trial's layer spans.
TRIAL_FN = "_run_one_trial"


def _parse_counts(args, result) -> dict:
    return {"ingest.rows": len(np.union1d(result.t_imu, result.t_slow))
            + len(result.flagged_rows),
            "ingest.bytes": os.path.getsize(args[0]),
            "ingest.flagged_rows": len(result.flagged_rows)}


# Work counts read from a call's arguments and result after its span ends.
COUNTS_OF = {
    "parse_tag_csv": _parse_counts,
    "estimate_orientation": lambda args, result: {
        "orientation.samples": args[0].n_imu},
    "detect_laps": lambda args, result: {"segmentation.laps": len(result)},
}
COUNT_KEYS = ("ingest.rows", "ingest.bytes", "ingest.flagged_rows",
              "orientation.samples", "segmentation.laps")


@dataclass
class Span:
    name: str
    layer: str | None
    start: float
    end: float = 0.0
    thread: str = ""
    trial: str | None = None
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; one instance per traced call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, layer: str | None = None,
             trial: str | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trial is None and parent is not None:
            trial = self.spans[parent].trial
        record = Span(name=name, layer=layer, start=0.0,
                      thread=threading.current_thread().name, trial=trial,
                      parent=parent)
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def _wrap(self, name: str, fn):
        layer = LAYER_OF.get(name)
        counter = COUNTS_OF.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            trial = Path(args[1]).stem if name == TRIAL_FN else None
            with self.span(name, layer, trial) as record:
                result = fn(*args, **kwargs)
            if counter is not None:
                record.counts = counter(args, result)
            return result
        return traced

    @contextmanager
    def patched(self, module):
        """Wrap the traced names of ``module`` for the duration of the block."""
        saved = {}
        for name in (*LAYER_OF, TRIAL_FN):
            fn = getattr(module, name, None)
            if fn is None:
                self.missing.append(name)
                continue
            saved[name] = fn
            setattr(module, name, self._wrap(name, fn))
        try:
            yield self
        finally:
            for name, fn in saved.items():
                setattr(module, name, fn)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans: list[Span], wall_s: float) -> dict:
    """Self time per layer metric, work counts, and the wall time no layer covers.

    A span's self time is its duration minus that of its child spans (a
    child runs on its parent's thread, inside its interval). Times of spans
    on different threads add up, so a layer's time can exceed ``wall_s``.
    """
    out = {metric: 0.0 for metric in LAYER_OF.values()}
    out.update({key: 0 for key in COUNT_KEYS})
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    for s, children in zip(spans, child_time):
        if s.layer is not None:
            out[s.layer] += s.duration - children
        for key, value in s.counts.items():
            out[key] += value
    covered = _union_length([(s.start, s.end) for s in spans
                             if s.layer is not None])
    out["pipeline.other_s"] = wall_s - covered
    return out

"""Frame probe and layer spans, recorded from outside the program.

Nothing in semmap is edited. Public functions are replaced, for the
duration of one `cmd_run`, by wrappers installed where their callers
look them up: module globals of the calling module, or methods on the
class. Each wrapper records a span (name, start, end, parent) and the
counts its return value carries.

Untraced runs install only the frame clock, which times frames and
samples the machine's speed between them (see speed.py).
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

import numpy as np
import scipy.sparse.linalg

from semmap import (association, candidate, pipeline, posegraph,
                    simulator, tracker)
from speed import Stretch


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 at the top


@dataclass
class PipelineRun:
    frame_s: list[float] = field(default_factory=list)
    speed: Stretch = field(default_factory=Stretch)

    def scaled_frame_s(self) -> np.ndarray:
        """Frame times rescaled to the reference speed."""
        return (np.asarray(self.frame_s)
                * self.speed.frame_factors(len(self.frame_s)))


class FrameClock:
    """Frame times of untraced pipeline runs, with speed samples.

    A frame starts at a call of `semmap.pipeline.filter_detections`,
    which the pipeline makes once at the start of every frame, and ends
    at the next one or when `run_pipeline` returns. Speed samples are
    taken between frames and left out of frame times.
    """

    def __init__(self):
        self.runs: list[PipelineRun] = []
        self._open: float | None = None

    def run_start(self) -> None:
        self.runs.append(PipelineRun())
        self._open = None

    def frame_start(self) -> None:
        now = perf_counter()
        run = self.runs[-1]
        if self._open is not None:
            run.frame_s.append(now - self._open)
        run.speed.tick()
        self._open = perf_counter()

    def run_end(self) -> None:
        self.runs[-1].frame_s.append(perf_counter() - self._open)

    def targets(self):
        return (
            (pipeline, "filter_detections",
             lambda fn: _call_after(self.frame_start, fn)),
            (pipeline, "run_pipeline",
             lambda fn: _call_after(self.run_start, fn, self.run_end)),
        )


class RenderClock:
    """Speed samples while the simulator renders frames (the set-up)."""

    def __init__(self):
        self.speed = Stretch(every=2)

    def targets(self):
        return ((simulator, "render_detections",
                 lambda fn: _call_after(self.speed.tick, fn)),)


class Recorder:
    """Spans and counts of one traced round."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def targets(self):
        return tuple((owner, attr, partial(self.wrap, name, count=count))
                     for owner, attr, name, count in _LAYER_TARGETS)

    def wrap(self, name, fn, count=None):
        """`fn` with a span named `name` around each call."""
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(Span(name, perf_counter(), 0.0, parent))
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index].end = perf_counter()
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def inclusive_s(self, *names: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name in names)

    def self_s(self, name: str) -> float:
        """Time inside `name` spans not covered by any child span."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return sum(s.end - s.start - child[i]
                   for i, s in enumerate(self.spans) if s.name == name)

    def n_spans(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def max_ms(self, name: str) -> float:
        return 1000.0 * max((s.end - s.start for s in self.spans
                             if s.name == name), default=0.0)


def _count_promoted(c, args, result):
    c["tracker.promoted"] += len(result[0])


def _count_proposal(c, args, result):
    c["candidate.proposals"] += 1
    c["candidate.accepted"] += bool(result.accepted)


def _count_associate(c, args, result):
    c["association.associate_calls"] += 1
    c["association.created"] += isinstance(result, association.NewLandmark)


def _count_merges(c, args, result):
    c["association.merges"] += len(result)


def _count_thin_points(c, args, result):
    c["association.voxel_thin_points"] += len(args[0])


def _count_solve(c, args, result):
    c["posegraph.optimize_calls"] += 1
    c["posegraph.iterations"] += result.iterations


def _count_run(c, args, result):
    c["pipeline.landmarks"] += len(result.landmark_map)


# (owner, attribute, span name, counter); the owner is where the caller
# looks the name up at call time
_LAYER_TARGETS = (
    (pipeline, "run_pipeline", "pipeline.run", _count_run),
    (pipeline, "filter_detections", "tracker.filter", None),
    (tracker.IouTracker, "step", "tracker.step", _count_promoted),
    (pipeline, "propose_candidate", "candidate.propose", _count_proposal),
    (candidate, "extract_clouds", "candidate.extract", None),
    (candidate, "estimate_centroid", "candidate.localize", None),
    (association.LandmarkMap, "associate", "association.associate",
     _count_associate),
    (association.LandmarkMap, "merge_overlapping", "association.merge",
     _count_merges),
    (association, "voxel_thin", "association.voxel_thin",
     _count_thin_points),
    (association, "nn_cloud_distance", "association.nn_query", None),
    (posegraph.PoseGraph, "optimize", "posegraph.optimize", _count_solve),
    (scipy.sparse.linalg, "splu", "posegraph.factor", None),
    (pipeline, "apply_correction", "posegraph.apply_correction", None),
    (pipeline, "parse_detection_log", "io_formats.parse", None),
    (pipeline, "parse_tum_trajectory", "io_formats.parse", None),
    (pipeline, "write_tum_trajectory", "io_formats.write", None),
    (pipeline, "write_landmark_map", "io_formats.write", None),
    (pipeline, "write_g2o", "io_formats.write", None),
)


def _call_after(before, fn, after=None):
    def wrapper(*args, **kwargs):
        before()
        result = fn(*args, **kwargs)
        if after is not None:
            after()
        return result

    return wrapper


@contextmanager
def installed(probe):
    """Install a probe's wrappers (a clock or a Recorder) for the body
    of the block; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, make in probe.targets():
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, make(getattr(owner, attr)))
        yield probe
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


_UNITS = (("_ms_max", "ms"), ("_s", "s"), ("ratio", "ratio"),
          ("_per_created", "ratio"), ("_per_factorization", "ratio"),
          ("bytes_written", "bytes"))


def layer_metrics(rounds: list[dict]) -> dict[str, dict]:
    """Median over traced rounds of each per-layer figure, with its unit
    (a count unless the name says otherwise)."""
    out = {}
    for name in rounds[0]:
        unit = next((u for end, u in _UNITS if name.endswith(end)), "count")
        out[name] = {"value": statistics.median(r[name] for r in rounds),
                     "unit": unit}
    return out


def round_figures(rec: Recorder, bytes_written: int) -> dict[str, float]:
    """Per-layer figures of one traced round (spans of all its runs)."""
    c = rec.counts
    proposals = c["candidate.proposals"]
    created = c["association.created"]
    factorizations = rec.n_spans("posegraph.factor")
    return {
        "tracker.busy_s": rec.inclusive_s("tracker.filter", "tracker.step"),
        "tracker.promoted": c["tracker.promoted"],
        "candidate.busy_s": rec.inclusive_s("candidate.propose"),
        "candidate.localize_s": rec.inclusive_s("candidate.localize"),
        "candidate.extract_s": rec.inclusive_s("candidate.extract"),
        "candidate.proposals": proposals,
        "candidate.accept_ratio": (c["candidate.accepted"] / proposals
                                   if proposals else 0.0),
        "association.associate_s": rec.inclusive_s("association.associate"),
        "association.associate_calls": c["association.associate_calls"],
        "association.created": created,
        "association.merge_s": rec.inclusive_s("association.merge"),
        "association.merges": c["association.merges"],
        "association.voxel_thin_s": rec.inclusive_s("association.voxel_thin"),
        "association.voxel_thin_points": c["association.voxel_thin_points"],
        "association.nn_query_s": rec.inclusive_s("association.nn_query"),
        "association.kept_per_created": (c["pipeline.landmarks"] / created
                                         if created else 0.0),
        "posegraph.optimize_s": rec.inclusive_s("posegraph.optimize"),
        "posegraph.optimize_calls": c["posegraph.optimize_calls"],
        "posegraph.iterations": c["posegraph.iterations"],
        "posegraph.factorizations": factorizations,
        "posegraph.factor_s": rec.inclusive_s("posegraph.factor"),
        "posegraph.steps_per_factorization": (
            c["posegraph.iterations"] / factorizations
            if factorizations else 0.0),
        "posegraph.solve_ms_max": rec.max_ms("posegraph.optimize"),
        "posegraph.apply_correction_s": rec.inclusive_s(
            "posegraph.apply_correction"),
        "io_formats.parse_s": rec.inclusive_s("io_formats.parse"),
        "io_formats.write_s": rec.inclusive_s("io_formats.write"),
        "io_formats.bytes_written": bytes_written,
        "pipeline.other_s": rec.self_s("pipeline.run"),
    }

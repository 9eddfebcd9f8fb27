"""Greedy IOU tracker turning per-frame detections into short tracklets.

Detections are matched frame to frame by bounding-box overlap against
each tracklet's latest box. A tracklet that reaches min_tracklet_size
measurements is promoted (handed to candidate generation) and removed
from the active set; continued sightings of the same object simply start
a fresh tracklet and are reconciled later by data association.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfOrderTimestampError


@dataclass(frozen=True)
class BoundingBox:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("box must have positive width and height")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes, 0 when disjoint."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


@dataclass(frozen=True)
class Measurement:
    """One detection: a timestamped box with class, score and range hint."""

    timestamp: float
    frame_id: int
    class_id: str
    confidence: float
    box: BoundingBox
    depth_hint: float

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must lie in [0, 1]")
        if self.depth_hint <= 0.0:
            raise ValueError("depth_hint must be positive")


@dataclass
class Tracklet:
    """Measurements of one object, in time order. `last_update` is the
    stamp of the frame its latest measurement arrived in: the `now` of
    the IouTracker.step that appended it, whatever the measurement's
    own stamp."""

    id: int
    class_id: str
    measurements: list[Measurement] = field(default_factory=list)
    last_update: float = float("-inf")

    @property
    def latest_box(self) -> BoundingBox:
        return self.measurements[-1].box

    def append(self, m: Measurement, now: float | None = None) -> None:
        """Add m, which arrived in the frame stamped now (its own stamp
        when not given)."""
        assert m.class_id == self.class_id, "class changes within a tracklet"
        if self.measurements and m.timestamp <= self.measurements[-1].timestamp:
            raise OutOfOrderTimestampError(
                f"measurement at {m.timestamp} not after {self.measurements[-1].timestamp}"
            )
        self.measurements.append(m)
        self.last_update = m.timestamp if now is None else now

    def __len__(self) -> int:
        return len(self.measurements)


@dataclass(frozen=True)
class TrackerConfig:
    """Tracking and ingestion thresholds.

    Defaults follow the applied system configuration: detections below
    min_confidence or outside [min_distance, max_distance] never enter
    the tracker, boxes must overlap the tracklet's latest box by at
    least iou_threshold, a tracklet is promoted at min_tracklet_size
    measurements and dropped after max_gap seconds without a match.
    """

    min_confidence: float = 0.4
    min_distance: float = 0.2
    max_distance: float = 25.0
    iou_threshold: float = 0.2
    min_tracklet_size: int = 5
    max_gap: float = 0.5

    def __post_init__(self):
        # the motion gate and the localizer both need two views
        if self.min_tracklet_size < 2:
            raise ValueError("min_tracklet_size must be >= 2")
        if not 0.0 <= self.iou_threshold <= 1.0:
            raise ValueError("iou_threshold must lie in [0, 1]")
        if self.max_gap <= 0.0:
            raise ValueError("max_gap must be positive")
        if self.min_distance >= self.max_distance:
            raise ValueError("min_distance must be below max_distance")


def filter_detections(detections: list[Measurement], cfg: TrackerConfig) -> list[Measurement]:
    """Ingestion gate: drop low-confidence and out-of-range detections."""
    return [
        d
        for d in detections
        if d.confidence >= cfg.min_confidence
        and cfg.min_distance <= d.depth_hint <= cfg.max_distance
    ]


class IouTracker:
    """Single-owner mutable tracker state; one step() call per frame."""

    def __init__(self, cfg: TrackerConfig | None = None):
        self.cfg = cfg or TrackerConfig()
        self.active: dict[int, Tracklet] = {}
        self._next_id = 0

    def prune_expired(self, now: float) -> list[Tracklet]:
        """Remove and return tracklets whose silence exceeds max_gap: the
        frame stamp now against the frame stamp of their last update."""
        expired = [
            t for t in self.active.values() if now - t.last_update > self.cfg.max_gap
        ]
        for t in expired:
            del self.active[t.id]
        return expired

    def step(
        self, detections: list[Measurement], now: float
    ) -> tuple[list[Tracklet], list[Tracklet]]:
        """Advance one frame stamped now; returns (promoted, expired).

        The tracker runs on frame stamps alone: now must not precede
        the frame a tracklet was last updated in, and max_gap is
        measured between frame stamps. A detection's own stamp orders
        the measurements within a tracklet only.

        Detections are taken in input order; each attaches to the
        unmatched same-class tracklet with the highest IOU against its
        latest box, provided that IOU reaches the threshold. Ties go to
        the lower tracklet id. Unmatched detections seed new tracklets.
        Promotion happens exactly when a tracklet reaches
        min_tracklet_size and removes it from the active set.
        """
        for t in self.active.values():
            if now < t.last_update:
                raise OutOfOrderTimestampError(
                    f"step at {now} precedes tracklet {t.id} update {t.last_update}"
                )
        expired = self.prune_expired(now)

        promoted: list[Tracklet] = []
        matched_ids: set[int] = set()
        for det in detections:
            best_id = -1
            best_iou = 0.0
            # ids are issued in increasing order and tracklets are only
            # inserted or deleted, so insertion order already is id order
            for tid, t in self.active.items():
                if tid in matched_ids:
                    continue
                if t.class_id != det.class_id:
                    continue
                score = iou(t.latest_box, det.box)
                if score > best_iou:
                    best_iou = score
                    best_id = tid
            if best_id >= 0 and best_iou >= self.cfg.iou_threshold:
                target = self.active[best_id]
                matched_ids.add(best_id)
            else:
                target = Tracklet(self._next_id, det.class_id)
                self._next_id += 1
                self.active[target.id] = target
                matched_ids.add(target.id)
            target.append(det, now)
            if len(target) == self.cfg.min_tracklet_size:
                promoted.append(target)
                del self.active[target.id]
        return promoted, expired

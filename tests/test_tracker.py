"""IOU tracker tests.

The box overlap oracle counts integer grid cells: for boxes with
integer corners, area equals the number of unit cells covered, so IOU
computed from cell membership must equal the closed form exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semmap.errors import OutOfOrderTimestampError
from semmap.tracker import (
    BoundingBox,
    IouTracker,
    Measurement,
    Tracklet,
    TrackerConfig,
    filter_detections,
    iou,
)


def _det(t, box, class_id="cup", frame=0, conf=0.9, depth=2.0):
    return Measurement(
        timestamp=t, frame_id=frame, class_id=class_id, confidence=conf,
        box=box, depth_hint=depth,
    )


def _grid_iou(a: BoundingBox, b: BoundingBox) -> float:
    """Cell-counting oracle for integer-corner boxes."""
    inter = 0
    union = 0
    x_lo = int(min(a.x_min, b.x_min))
    x_hi = int(max(a.x_max, b.x_max))
    y_lo = int(min(a.y_min, b.y_min))
    y_hi = int(max(a.y_max, b.y_max))
    for i in range(x_lo, x_hi):
        for j in range(y_lo, y_hi):
            in_a = a.x_min <= i < a.x_max and a.y_min <= j < a.y_max
            in_b = b.x_min <= i < b.x_max and b.y_min <= j < b.y_max
            inter += in_a and in_b
            union += in_a or in_b
    return inter / union


@st.composite
def _boxes(draw, lo=0, hi=24):
    x1 = draw(st.integers(lo, hi - 1))
    x2 = draw(st.integers(x1 + 1, hi))
    y1 = draw(st.integers(lo, hi - 1))
    y2 = draw(st.integers(y1 + 1, hi))
    return BoundingBox(float(x1), float(y1), float(x2), float(y2))


class TestIou:
    def test_identical_boxes(self):
        b = BoundingBox(0.0, 0.0, 10.0, 10.0)
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        a = BoundingBox(0.0, 0.0, 1.0, 1.0)
        b = BoundingBox(5.0, 5.0, 6.0, 6.0)
        assert iou(a, b) == 0.0

    def test_touching_boxes_count_as_disjoint(self):
        a = BoundingBox(0.0, 0.0, 1.0, 1.0)
        b = BoundingBox(1.0, 0.0, 2.0, 1.0)
        assert iou(a, b) == 0.0

    def test_half_overlap(self):
        # boxes 2x1, overlap 1x1: inter 1, union 2 + 2 - 1 = 3
        a = BoundingBox(0.0, 0.0, 2.0, 1.0)
        b = BoundingBox(1.0, 0.0, 3.0, 1.0)
        assert iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_matches_grid_oracle(self):
        # 1000 random integer boxes against the cell counting oracle
        rng = np.random.default_rng(42)
        for _ in range(1000):
            xs = np.sort(rng.integers(0, 25, size=2))
            ys = np.sort(rng.integers(0, 25, size=2))
            a = BoundingBox(float(xs[0]), float(ys[0]), float(xs[1] + 1), float(ys[1] + 1))
            xs = np.sort(rng.integers(0, 25, size=2))
            ys = np.sort(rng.integers(0, 25, size=2))
            b = BoundingBox(float(xs[0]), float(ys[0]), float(xs[1] + 1), float(ys[1] + 1))
            assert iou(a, b) == _grid_iou(a, b)

    @given(_boxes(), _boxes())
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(_boxes())
    def test_self_iou_is_one(self, b):
        assert iou(b, b) == 1.0


class TestBoundingBox:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(0.0, 0.0, 0.0, 1.0)

    def test_center(self):
        assert BoundingBox(0.0, 0.0, 4.0, 2.0).center == (2.0, 1.0)


class TestTrackerStep:
    def test_promotion_at_exact_size(self):
        tracker = IouTracker(TrackerConfig(min_tracklet_size=5))
        box = BoundingBox(10.0, 10.0, 20.0, 20.0)
        for i in range(4):
            promoted, _ = tracker.step([_det(i * 0.1, box, frame=i)], i * 0.1)
            assert promoted == []
        promoted, _ = tracker.step([_det(0.4, box, frame=4)], 0.4)
        assert len(promoted) == 1
        assert len(promoted[0]) == 5
        # promotion removes the tracklet from the active set
        assert tracker.active == {}

    def test_promoted_tracklet_timestamps_increase(self):
        tracker = IouTracker(TrackerConfig(min_tracklet_size=5))
        box = BoundingBox(0.0, 0.0, 5.0, 5.0)
        for i in range(5):
            promoted, _ = tracker.step([_det(i * 0.1, box, frame=i)], i * 0.1)
        stamps = [m.timestamp for m in promoted[0].measurements]
        assert stamps == sorted(stamps) and len(set(stamps)) == 5

    def test_gap_expiry(self):
        # silence longer than max_gap=0.5 expires the tracklet
        tracker = IouTracker(TrackerConfig())
        box = BoundingBox(0.0, 0.0, 5.0, 5.0)
        tracker.step([_det(0.0, box)], 0.0)
        _, expired = tracker.step([], 0.6)
        assert len(expired) == 1
        assert tracker.active == {}

    def test_gap_within_limit_survives(self):
        tracker = IouTracker(TrackerConfig())
        box = BoundingBox(0.0, 0.0, 5.0, 5.0)
        tracker.step([_det(0.0, box)], 0.0)
        tracker.step([_det(0.4, box, frame=1)], 0.4)
        _, expired = tracker.step([], 0.6)  # 0.2 s since last match
        assert expired == []
        assert len(tracker.active) == 1

    def test_class_gate(self):
        # same box, different class never matches
        tracker = IouTracker(TrackerConfig())
        box = BoundingBox(0.0, 0.0, 5.0, 5.0)
        tracker.step([_det(0.0, box, class_id="cup")], 0.0)
        tracker.step([_det(0.1, box, class_id="book", frame=1)], 0.1)
        assert len(tracker.active) == 2
        sizes = sorted(len(t) for t in tracker.active.values())
        assert sizes == [1, 1]

    def test_low_iou_starts_new_tracklet(self):
        tracker = IouTracker(TrackerConfig(iou_threshold=0.2))
        tracker.step([_det(0.0, BoundingBox(0.0, 0.0, 10.0, 10.0))], 0.0)
        # shifted so IOU = 25/175 ~ 0.14 < 0.2
        tracker.step([_det(0.1, BoundingBox(5.0, 5.0, 15.0, 15.0), frame=1)], 0.1)
        assert len(tracker.active) == 2

    def test_one_detection_per_tracklet_per_frame(self):
        tracker = IouTracker(TrackerConfig())
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        tracker.step([_det(0.0, box)], 0.0)
        # two identical detections in the next frame: one matches, the
        # other must open a fresh tracklet instead of double-attaching
        tracker.step([_det(0.1, box, frame=1), _det(0.1, box, frame=1)], 0.1)
        sizes = sorted(len(t) for t in tracker.active.values())
        assert sizes == [1, 2]

    def test_tie_broken_by_lower_id(self):
        tracker = IouTracker(TrackerConfig())
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        tracker.step([_det(0.0, box), _det(0.0, box)], 0.0)  # tracklets 0 and 1
        tracker.step([_det(0.1, box, frame=1)], 0.1)
        assert len(tracker.active[0]) == 2
        assert len(tracker.active[1]) == 1

    def test_out_of_order_step_raises(self):
        tracker = IouTracker(TrackerConfig())
        tracker.step([_det(1.0, BoundingBox(0.0, 0.0, 5.0, 5.0))], 1.0)
        with pytest.raises(OutOfOrderTimestampError):
            tracker.step([], 0.5)

    def test_runs_on_the_frame_clock(self):
        # detections stamped 18 ms after their frame, at 60 Hz: the next
        # frame's stamp precedes the detection's, and the gap to max_gap
        # is measured from the frame the tracklet was last updated in
        tracker = IouTracker(TrackerConfig(max_gap=0.5))
        box = BoundingBox(0.0, 0.0, 5.0, 5.0)
        tracker.step([_det(0.018, box)], 0.0)
        tracker.step([], 1.0 / 60.0)
        assert tracker.active[0].last_update == 0.0
        assert tracker.prune_expired(0.5) == []
        assert len(tracker.prune_expired(0.5 + 1e-9)) == 1

    def test_deterministic_ids(self):
        def run():
            tracker = IouTracker(TrackerConfig())
            boxes = [BoundingBox(i * 3.0, 0.0, i * 3.0 + 10.0, 10.0) for i in range(4)]
            out = []
            for f in range(6):
                dets = [_det(f * 0.1, b, frame=f) for b in boxes]
                promoted, _ = tracker.step(dets, f * 0.1)
                out.extend(t.id for t in promoted)
            return out, sorted(tracker.active.keys())

        assert run() == run()


class TestSuccessors:
    """A detection that matches no active tracklet but overlaps a kept
    promoted tracklet's latest box continues it."""

    @staticmethod
    def _promoted(box, class_id="cup"):
        """A tracker (min_tracklet_size 2, max_gap 0.5) whose tracklet 0,
        seen at 0.0 and 0.1, was promoted at 0.1."""
        tracker = IouTracker(TrackerConfig(min_tracklet_size=2, max_gap=0.5))
        tracker.step([_det(0.0, box, class_id=class_id)], 0.0)
        promoted, _ = tracker.step([_det(0.1, box, class_id=class_id, frame=1)], 0.1)
        assert [t.id for t in promoted] == [0] and promoted[0].parent is None
        return tracker

    def test_successor_within_max_gap_gets_its_parent(self):
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        tracker = self._promoted(box)
        # shifted by 2 px: IOU 64/136 against the kept box, 0.5 s later
        tracker.step([_det(0.6, BoundingBox(2.0, 2.0, 12.0, 12.0), frame=6)], 0.6)
        assert [(t.id, t.parent) for t in tracker.active.values()] == [(1, 0)]
        # and its own promotion makes it a parent in turn
        promoted, _ = tracker.step([_det(0.7, box, frame=7)], 0.7)
        assert promoted[0].parent == 0
        tracker.step([_det(0.8, box, frame=8)], 0.8)
        assert tracker.active[2].parent == 1

    @pytest.mark.parametrize("stamp, class_id, box", [
        (0.6 + 1e-9, "cup", (0.0, 0.0, 10.0, 10.0)),  # after max_gap
        (0.2, "book", (0.0, 0.0, 10.0, 10.0)),  # another class
        (0.2, "cup", (5.0, 5.0, 15.0, 15.0)),  # IOU 25/175 below 0.2
    ], ids=["after_max_gap", "other_class", "low_iou"])
    def test_no_parent(self, stamp, class_id, box):
        tracker = self._promoted(BoundingBox(0.0, 0.0, 10.0, 10.0))
        tracker.step([_det(stamp, BoundingBox(*box), class_id=class_id, frame=2)], stamp)
        assert [t.parent for t in tracker.active.values()] == [None]

    def test_kept_box_parents_one_successor(self):
        # two unmatched detections on the kept box in one frame: the
        # first continues tracklet 0, the second starts afresh, and so
        # does one a frame later
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        tracker = self._promoted(box)
        tracker.step([_det(0.2, box, frame=2), _det(0.2, box, frame=2)], 0.2)
        assert [(t.id, t.parent) for t in tracker.active.values()] == [(1, 0), (2, None)]
        assert tracker.promoted == {}

    def test_no_successor_in_the_frame_of_promotion(self):
        # a second detection in the frame that promotes tracklet 0 is not
        # its successor: the kept box parents from the next frame on
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        tracker = IouTracker(TrackerConfig(min_tracklet_size=2))
        tracker.step([_det(0.0, box)], 0.0)
        tracker.step([_det(0.1, box, frame=1), _det(0.1, box, frame=1)], 0.1)
        assert [(t.id, t.parent) for t in tracker.active.values()] == [(1, None)]
        assert list(tracker.promoted) == [0]

    def test_equal_overlap_goes_to_the_lower_id(self):
        # tracklet 1 (box b) is promoted before tracklet 0 (box a); a box
        # between them overlaps both by 60/140, and continues tracklet 0
        # whatever the promotion order
        a, b = BoundingBox(0.0, 0.0, 10.0, 10.0), BoundingBox(8.0, 0.0, 18.0, 10.0)
        tracker = IouTracker(TrackerConfig(min_tracklet_size=2))
        for f, box in enumerate((a, b, b, a)):
            tracker.step([_det(0.1 * f, box, frame=f)], 0.1 * f)
        assert list(tracker.promoted) == [1, 0]
        tracker.step([_det(0.4, BoundingBox(4.0, 0.0, 14.0, 10.0), frame=4)], 0.4)
        assert [(t.id, t.parent) for t in tracker.active.values()] == [(2, 0)]


class TestPruneExpired:
    def test_idempotent(self):
        tracker = IouTracker(TrackerConfig())
        tracker.step([_det(0.0, BoundingBox(0.0, 0.0, 5.0, 5.0))], 0.0)
        first = tracker.prune_expired(1.0)
        assert len(first) == 1
        assert tracker.prune_expired(1.0) == []

    def test_boundary_not_expired(self):
        # gap exactly equal to max_gap is kept (strict >)
        tracker = IouTracker(TrackerConfig(max_gap=0.5))
        tracker.step([_det(0.0, BoundingBox(0.0, 0.0, 5.0, 5.0))], 0.0)
        assert tracker.prune_expired(0.5) == []
        assert len(tracker.prune_expired(0.5 + 1e-9)) == 1


class TestFilterDetections:
    def test_confidence_and_range_gate(self):
        cfg = TrackerConfig()
        box = BoundingBox(0.0, 0.0, 5.0, 5.0)
        dets = [
            _det(0.0, box, conf=0.39),          # below 0.4
            _det(0.0, box, conf=0.4),           # boundary kept
            _det(0.0, box, depth=0.1),          # too close
            _det(0.0, box, depth=26.0),         # too far
            _det(0.0, box, depth=25.0),         # boundary kept
        ]
        kept = filter_detections(dets, cfg)
        assert len(kept) == 2
        assert {d.depth_hint for d in kept} == {2.0, 25.0}


class TestTrackletInvariants:
    def test_append_rejects_stale_timestamp(self):
        t = Tracklet(0, "cup")
        t.append(_det(1.0, BoundingBox(0.0, 0.0, 5.0, 5.0)))
        with pytest.raises(OutOfOrderTimestampError):
            t.append(_det(1.0, BoundingBox(0.0, 0.0, 5.0, 5.0)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrackerConfig(min_tracklet_size=0)
        # a one-view tracklet can pass neither the motion gate nor the
        # localizer, which both need two views
        with pytest.raises(ValueError, match="min_tracklet_size"):
            TrackerConfig(min_tracklet_size=1)
        assert TrackerConfig(min_tracklet_size=2).min_tracklet_size == 2
        with pytest.raises(ValueError):
            TrackerConfig(max_gap=0.0)
        with pytest.raises(ValueError):
            TrackerConfig(min_distance=30.0)

"""Candidate validation and localization tests.

The estimate is checked against a dense grid-search oracle of the
likelihood and against a plain per-view loop triangulation (see
oracles.py).
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    grid_search_max,
    loop_box_center_rays,
    loop_extract_clouds,
    loop_triangulate_midpoint,
    meshgrid_box_sampler,
    pinhole_uv,
)

from semmap import candidate
from semmap.candidate import (
    Candidate,
    _frustum_grid,
    Views,
    cuboid_half_depth,
    estimate_centroid,
    extract_clouds,
    mad_deviation,
    propose_candidate,
    triangulate_midpoint,
)
from semmap.errors import (
    BehindCameraError,
    EmptyCloudError,
    TooFewMeasurementsError,
)
from semmap.geometry import (
    CameraIntrinsics,
    Pixel,
    Pose,
    Trajectory,
    backproject,
    quat_from_matrix,
)
from semmap.io_formats import parse_detection_log
from semmap.tracker import BoundingBox, Measurement, Tracklet


def _k():
    return CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


def _extract(t, poses, k=None):
    """extract_clouds over the poses' view stacks: the stacked cloud and
    each view's mean."""
    return extract_clouds(t, Views.of(poses), k or _k())


def _cov(sigma):
    """The isotropic pixel covariance the oracles take, in px^2."""
    return np.eye(2) * sigma * sigma


def _look_at(eye, target):
    """Camera pose at `eye` with +z toward `target`, world +z up."""
    eye = np.asarray(eye, dtype=float)
    forward = np.asarray(target, dtype=float) - eye
    forward = forward / np.linalg.norm(forward)
    up = np.array([0.0, 0.0, 1.0])
    if abs(forward @ up) > 0.99:
        up = np.array([0.0, 1.0, 0.0])
    right = np.cross(forward, up)
    right /= np.linalg.norm(right)
    down = np.cross(forward, right)
    rot = np.column_stack([right, down, forward])
    return Pose(quat_from_matrix(rot), eye)


def _box_at(px, half=20.0):
    return BoundingBox(px[0] - half, px[1] - half, px[0] + half, px[1] + half)


def _tracklet_viewing(point, eyes, k, tid=0, class_id="cup", px_noise=None, rng=None):
    """Tracklet whose box centers are the projections of `point`."""
    t = Tracklet(tid, class_id)
    poses = []
    for i, eye in enumerate(eyes):
        pose = _look_at(eye, point)
        px = np.array(pinhole_uv(point, pose, k))
        if px_noise is not None:
            px = px + rng.normal(0.0, px_noise, 2)
        depth = float(np.linalg.norm(np.asarray(point) - np.asarray(eye)))
        t.append(
            Measurement(
                timestamp=0.1 * i, frame_id=i, class_id=class_id, confidence=0.9,
                box=_box_at(px), depth_hint=depth,
            )
        )
        poses.append(pose)
    return t, poses


class TestMadGate:
    def test_identical_centroids_accepted(self):
        cents = np.tile([1.0, 2.0, 3.0], (5, 1))
        assert mad_deviation(cents) == 0.0
        assert mad_deviation(cents) <= 0.15

    def test_marching_centroids_rejected(self):
        # x positions 0, .5, 1, 1.5, 2: mean 1, |dev| = (1+.5+0+.5+1)/5 = 0.6
        cents = np.zeros((5, 3))
        cents[:, 0] = np.arange(5) * 0.5
        assert mad_deviation(cents) == pytest.approx(0.6, abs=1e-12)
        assert mad_deviation(cents) > 0.2

    def test_jitter_within_threshold_accepted(self):
        rng = np.random.default_rng(5)
        cents = np.array([1.0, 2.0, 3.0]) + rng.uniform(-0.01, 0.01, size=(6, 3))
        # per-axis MAD <= 0.01 so the norm is <= sqrt(3) * 0.01
        assert mad_deviation(cents) <= math.sqrt(3.0) * 0.01
        assert mad_deviation(cents) <= 0.15

    def test_too_few_centroids(self):
        with pytest.raises(TooFewMeasurementsError):
            mad_deviation(np.array([[0.0, 0.0, 0.0]]))

    @given(st.floats(min_value=1.0, max_value=100.0))
    def test_scaling_deviations_scales_mad(self, scale):
        base = np.array(
            [[0.0, 0.1, -0.2], [0.3, -0.1, 0.0], [-0.3, 0.0, 0.2], [0.1, 0.0, 0.0]]
        )
        m0 = mad_deviation(base)
        m1 = mad_deviation(base * scale)
        assert m1 == pytest.approx(m0 * scale, rel=1e-9)
        # growing the motion never flips a rejection into an acceptance
        if m0 > 0.15:
            assert m1 > 0.15


def _random_tracklet_views(rng, count=None):
    """Box centers, poses and true point of a random 3-8 view tracklet,
    or of `count` views.

    A third of the tracklets sit about 1 km from the origin. Some views
    look almost edge-on: the optical axis points 80-85 degrees away from
    the object, which lies far outside the image. Closer to the image
    plane both evaluators lose digits to the tiny depth alike.
    """
    point = rng.normal(0.0, 1.0, 3)
    if rng.random() < 1.0 / 3.0:
        point += 1e3 * rng.choice([-1.0, 1.0], 3) * rng.uniform(0.5, 1.0, 3)
    k = _k()
    centers, poses = [], []
    for _ in range(int(rng.integers(3, 9)) if count is None else count):
        edge_on = rng.random() < 0.25
        eye = point + rng.uniform(2.0 if edge_on else 1.0, 4.0) * _unit(rng)
        if edge_on:
            to_point = (point - eye) / np.linalg.norm(point - eye)
            side = np.cross(to_point, _unit(rng))
            side /= np.linalg.norm(side)
            angle = math.radians(rng.uniform(80.0, 85.0))
            target = eye + math.cos(angle) * to_point + math.sin(angle) * side
        else:
            target = point + rng.normal(0.0, 0.2, 3)
        pose = _look_at(eye, target)
        centers.append(np.array(pinhole_uv(point, pose, k)) + rng.normal(0.0, 3.0, 2))
        poses.append(pose)
    return np.array(centers), poses, point


def _unit(rng):
    v = rng.normal(0.0, 1.0, 3)
    return v / np.linalg.norm(v)


def _random_tracklet(rng, wide=0.0):
    """Tracklet and poses over _random_tracklet_views: boxes of random
    size around the centers, range hints within 20 % of the truth. A
    `wide` share of the views get boxes 3-10 fx wide, whose near depth
    layer lies behind the camera."""
    centers, poses, point = _random_tracklet_views(rng)
    t = Tracklet(int(rng.integers(0, 1000)), "cup")
    for i, (c, pose) in enumerate(zip(centers, poses)):
        hw, hh = rng.uniform(2.0, 60.0, 2)
        if wide and rng.random() < wide:
            hw = rng.uniform(1.5, 5.0) * _k().fx
        box = BoundingBox(c[0] - hw, c[1] - hh, c[0] + hw, c[1] + hh)
        depth = float(np.linalg.norm(point - pose.translation)) * rng.uniform(0.8, 1.2)
        t.append(Measurement(0.1 * i, 10 + i, "cup", 0.9, box, depth))
    return t, poses


def _overflowing(m):
    """`m` with a box whose half depth overflows: x 0 to 1e300 px at a
    range hint of 1e10 leaves no sample with a positive depth."""
    return replace(m, box=BoundingBox(0.0, m.box.y_min, 1e300, m.box.y_max),
                   depth_hint=1e10)


def _loop_estimate(t, poses):
    """estimate_centroid one view at a time: per-view rotation matrices,
    the loop triangulation and per-view depths; None where it falls back
    to the range hint."""
    k = _k()
    centers = np.array([m.box.center for m in t.measurements])
    origins = np.stack([p.translation for p in poses])
    seed = loop_triangulate_midpoint(origins, loop_box_center_rays(centers, poses, k))
    if seed is None or any(pinhole_uv(seed, pose, k) is None for pose in poses):
        return None
    return seed


class TestTriangulationSeed:
    def test_two_crossing_rays(self):
        # rays from (0,0,0) along +x and from (0,1,0) along x-y diagonal
        # meet at (1, 0, 0)
        origins = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        d2 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
        dirs = np.array([[1.0, 0.0, 0.0], d2])
        np.testing.assert_allclose(
            triangulate_midpoint(origins, dirs), [1.0, 0.0, 0.0], atol=1e-12
        )

    def test_parallel_rays_degenerate(self):
        origins = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        dirs = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert triangulate_midpoint(origins, dirs) is None


class TestEstimateCentroid:
    def test_ten_noise_free_views(self):
        point = np.array([0.4, 2.5, 1.2])
        angles = np.linspace(-0.8, 0.8, 10)
        eyes = [point + 2.5 * np.array([math.sin(a), -math.cos(a), 0.1 * a]) for a in angles]
        tracklet, poses = _tracklet_viewing(point, eyes, _k())
        est = estimate_centroid(tracklet, Views.of(poses), _k())
        assert np.linalg.norm(est.point - point) < 1e-3
        assert not est.low_confidence

    def test_two_views_one_px_noise_vs_grid_oracle(self):
        # the triangulation must land within the grid oracle's own error
        # of the likelihood maximum + 2 cm
        point = np.array([0.0, 2.0, 1.0])
        eyes = [np.array([-0.4, 0.0, 1.0]), np.array([0.4, 0.0, 1.0])]
        rng = np.random.default_rng(8)
        tracklet, poses = _tracklet_viewing(
            point, eyes, _k(), px_noise=1.0, rng=rng
        )
        sigma = 1.0
        est = estimate_centroid(tracklet, Views.of(poses), _k())
        centers = [m.box.center for m in tracklet.measurements]
        oracle_pt, _ = grid_search_max(
            centers, poses, _k(), _cov(sigma), around=point, half=0.5, step=0.01
        )
        oracle_err = np.linalg.norm(oracle_pt - point)
        assert np.linalg.norm(est.point - point) <= oracle_err + 0.02

    @staticmethod
    def _diverging(second_eye, second_target, second_point):
        """Two views whose box-center rays meet only behind the first
        camera: one at the origin looking along +z at (0.3, 0, 1), the
        other at second_eye looking at second_target, its box centered
        on second_point; range hints of 2 m."""
        k = _k()
        t = Tracklet(0, "cup")
        poses = [_look_at([0.0, 0.0, 0.0], [0.0, 0.0, 1.0]),
                 _look_at(second_eye, second_target)]
        for i, (pose, seen) in enumerate(zip(poses, ([0.3, 0.0, 1.0], second_point))):
            px = pinhole_uv(seen, pose, k)
            t.append(Measurement(0.1 * i, i, "cup", 0.9, _box_at(px), 2.0))
        return t, poses

    def test_point_behind_a_camera_falls_back_to_depth_hint(self):
        # rays from (0, 0, 0) and (1, 0, 0), both looking along +z, that
        # spread apart: they meet behind both cameras, so the estimate
        # is the last box center back-projected at its range hint
        t, poses = self._diverging([1.0, 0.0, 0.0], [1.0, 0.0, 1.0], [1.3, 0.0, 1.0])
        est = estimate_centroid(t, Views.of(poses), _k())
        assert est.low_confidence
        # depth 2 along the optical axis, on the ray through (1.3, 0, 1)
        np.testing.assert_allclose(est.point, [1.6, 0.0, 2.0], atol=1e-9)

    def test_no_point_in_front_of_every_camera_raises(self):
        # the second camera at z = -5 looks along -z: the rays meet at
        # (-0.75, 0, -2.5), behind both cameras, and the range-hint point
        # in front of the second camera is behind the first
        t, poses = self._diverging([0.0, 0.0, -5.0], [0.0, 0.0, -6.0], [0.3, 0.0, -6.0])
        with pytest.raises(BehindCameraError):
            estimate_centroid(t, Views.of(poses), _k())

    def test_zero_baseline_falls_back_to_depth_hint(self):
        point = np.array([0.0, 0.0, 2.0])
        eye = np.array([0.0, -2.0, 2.0])
        tracklet, poses = _tracklet_viewing(point, [eye, eye + 1e-12, eye], _k())
        est = estimate_centroid(tracklet, Views.of(poses), _k())
        assert est.low_confidence
        # fallback point = backprojected box center at the range hint
        np.testing.assert_allclose(est.point, point, atol=1e-6)

    def test_deterministic_given_seed(self):
        point = np.array([0.1, 2.2, 1.0])
        eyes = [np.array([-0.3, 0.0, 1.0]), np.array([0.3, 0.1, 1.1])]
        rng = np.random.default_rng(33)
        tracklet, poses = _tracklet_viewing(point, eyes, _k(), px_noise=2.0, rng=rng)
        # no stream seeds the estimate: repeated calls give the same bits
        views = Views.of(poses)
        a = estimate_centroid(tracklet, views, _k())
        b = estimate_centroid(tracklet, views, _k())
        assert a.point.tobytes() == b.point.tobytes()
        assert a.low_confidence == b.low_confidence

    def test_single_measurement_rejected(self):
        t = Tracklet(0, "cup")
        t.append(
            Measurement(0.0, 0, "cup", 0.9, BoundingBox(300, 220, 340, 260), 2.0)
        )
        with pytest.raises(TooFewMeasurementsError):
            estimate_centroid(t, Views.of([Pose.identity()]), _k())


class TestExtractClouds:
    def test_single_ray_on_axis(self):
        # a box centred on the principal point: the grid's centre column
        # (u, v) = (cx, cy) lifts onto the optical axis at its 3 depths
        t = Tracklet(0, "cup")
        t.append(Measurement(0.0, 0, "cup", 0.9, BoundingBox(300, 220, 340, 260), 2.0))
        cloud, means = _extract(t, [Pose.identity()])
        assert len(cloud) == 75 and means.shape == (1, 3)
        axis = cloud.points.reshape(5, 5, 3, 3)[2, 2]
        np.testing.assert_allclose(
            axis, [[0.0, 0.0, 2.0 - 0.16 / 3.0], [0.0, 0.0, 2.0], [0.0, 0.0, 2.0 + 0.16 / 3.0]],
            atol=1e-12)

    def test_default_sampler_fills_frustum(self):
        t = Tracklet(0, "cup")
        m = Measurement(0.0, 0, "cup", 0.9, BoundingBox(300, 220, 340, 260), 2.0)
        t.append(m)
        cloud, _ = _extract(t, [Pose.identity()])
        assert len(cloud) == 5 * 5 * 3
        h = cuboid_half_depth(m.box.width, m.depth_hint, _k())
        # box is 40 px wide at depth 2 with fx=500 -> 0.16 m wide, h = 0.08
        assert h == pytest.approx(0.5 * 40.0 * 2.0 / 500.0, abs=1e-12)
        zs = cloud.points[:, 2]
        assert np.all(np.abs(zs - 2.0) <= h + 1e-12)

    def test_out_of_frustum_samples_dropped(self, tmp_path):
        # logged boxes wider than 3 fx put the near depth layer behind
        # the camera: a 1600 px box at depth 2 keeps its middle and far
        # layers; at 1e20 px the middle layer rounds to depth 0 as well
        log = tmp_path / "detections.txt"
        log.write_text("0.0 0 cup 0.9 -480 220 1120 260 2.0\n"
                       "0.1 1 cup 0.9 -5e19 220 5e19 260 2.0\n", encoding="utf-8")
        frames = parse_detection_log(str(log))
        for frame, kept in zip(frames, (50, 25)):
            t = Tracklet(0, "cup")
            t.append(frame.detections[0])
            cloud, means = _extract(t, [Pose.identity()])
            assert len(cloud) == kept
            assert means.tobytes() == cloud.points.mean(axis=0, keepdims=True).tobytes()
            assert np.all(cloud.points[:, 2] > 0)

    def test_exhausted_measurement_raises(self, tmp_path):
        # a half depth that overflows leaves no sample in front of the
        # camera; the parser accepts the box, extraction names the frame
        log = tmp_path / "detections.txt"
        log.write_text("0.0 7 cup 0.9 0 220 1e300 260 1e10\n", encoding="utf-8")
        t = Tracklet(0, "cup")
        t.append(parse_detection_log(str(log))[0].detections[0])
        with warnings.catch_warnings(), pytest.raises(EmptyCloudError, match="frame 7"):
            warnings.simplefilter("error")
            _extract(t, [Pose.identity()])

    def test_lift_matches_scalar_backproject(self):
        # every kept sample lands where backproject puts its pixel and depth
        rng = np.random.default_rng(3)
        k = _k()
        t, poses = _random_tracklet(rng)
        grid = meshgrid_box_sampler(k)
        cloud, _ = _extract(t, poses, k)
        assert len(cloud) == 75 * len(poses)
        for i, (m, pose) in enumerate(zip(t.measurements, poses)):
            for (u, v, d), p in zip(grid(m), cloud.points[75 * i:75 * (i + 1)]):
                np.testing.assert_allclose(p, backproject(Pixel(u, v), d, pose, k), atol=1e-12)

    def test_sphere_surface_centroid(self):
        # a sphere's box with its visible surface's mean depth as range
        # hint: the cloud centroid must sit near the visible (front)
        # surface centroid
        k = _k()
        center = np.array([0.0, 0.0, 3.0])
        radius = 0.4
        rng = np.random.default_rng(12)
        # visible hemisphere: surface points with z < center z
        n = 4000
        dirs = rng.normal(size=(n, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        dirs = dirs[dirs[:, 2] < 0.0]
        front_mean = (center + radius * dirs).mean(axis=0)
        half_px = k.fx * radius / center[2] + 20
        box = BoundingBox(
            320 - half_px, 240 - half_px, 320 + half_px, 240 + half_px
        )
        t = Tracklet(0, "ball")
        t.append(Measurement(0.0, 0, "ball", 0.9, box, float(front_mean[2])))
        cloud, _ = _extract(t, [Pose.identity()], k)
        assert len(cloud) == 75
        assert np.linalg.norm(cloud.points.mean(axis=0) - front_mean) < 0.05


class TestStackedViews:
    """The stacked proposal path against the one-view-at-a-time oracles:
    the same bytes on random tracklets."""

    def test_sampler_matches_meshgrid_oracle(self):
        rng = np.random.default_rng(71)
        oracle = meshgrid_box_sampler(_k())
        for _ in range(60):
            t, _ = _random_tracklet(rng, wide=0.3)
            got = _frustum_grid(t.measurements, _k())
            assert got.shape == (len(t), 75, 3)
            for g, m in zip(got, t.measurements):
                assert g.tobytes() == oracle(m).tobytes()

    @pytest.mark.parametrize("ragged", [False, True], ids=["grid", "ragged"])
    def test_clouds_match_loop_oracle(self, ragged):
        # ragged: wide boxes put their near layer behind the camera, so
        # views keep 50 or 75 samples; lifting every cell and dropping
        # afterwards must give each kept cell, and each view's mean, the
        # bits of lifting that view's kept cells alone
        rng = np.random.default_rng(72 + ragged)
        sizes = set()
        for _ in range(100):
            t, poses = _random_tracklet(rng, wide=0.5 if ragged else 0.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got, means = _extract(t, poses)
            want = loop_extract_clouds(t, poses, _k(), meshgrid_box_sampler(_k()))
            assert len(want) == len(poses)
            assert got.points.tobytes() == np.concatenate(want).tobytes()
            assert means.tobytes() == np.array([w.mean(axis=0) for w in want]).tobytes()
            sizes.update(len(w) for w in want)
        assert sizes == ({50, 75} if ragged else {75})

    def test_first_exhausted_frame_named(self):
        rng = np.random.default_rng(75)
        for _ in range(40):
            t, poses = _random_tracklet(rng, wide=0.3)
            n = len(poses)
            exhausted = {int(i) for i in rng.choice(n, int(rng.integers(1, n + 1)),
                                                    replace=False)}
            t.measurements = [_overflowing(m) if i in exhausted else m
                              for i, m in enumerate(t.measurements)]
            with warnings.catch_warnings(), pytest.raises(EmptyCloudError) as got:
                warnings.simplefilter("error")
                _extract(t, poses)
            with np.errstate(invalid="ignore"), pytest.raises(EmptyCloudError) as want:
                loop_extract_clouds(t, poses, _k(), meshgrid_box_sampler(_k()))
            assert str(got.value) == str(want.value)
            assert f"frame {10 + min(exhausted)}" in str(got.value)

    def test_triangulation_matches_loop_oracle(self):
        # up to 39 views, so a reduction that summed the views in any
        # order other than one at a time would show in the bytes
        rng = np.random.default_rng(76)
        degenerate = 0
        for trial in range(300):
            n = int(rng.integers(2, 40))
            origins = rng.normal(0.0, 1.0, (n, 3)) * (1e3 if trial % 3 == 0 else 1.0)
            if trial % 5 == 0:  # parallel rays: no intersection
                dirs = np.tile(_unit(rng), (n, 1))
            elif trial % 5 == 1:  # rays in the x = -0 plane: exact zeros
                dirs = np.stack([_unit(rng) for _ in range(n)])
                dirs[:, 0] = -0.0
                dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
                origins[:, :2] = -0.0
            else:
                dirs = np.stack([_unit(rng) for _ in range(n)])
            got = triangulate_midpoint(origins, dirs)
            want = loop_triangulate_midpoint(origins, dirs)
            if want is None:
                degenerate += 1
                assert got is None
            else:
                assert got.tobytes() == want.tobytes()
        assert degenerate >= 50

    def test_estimate_matches_loop_oracle(self):
        # the estimate is the loop triangulation, bit for bit, wherever
        # that point is in front of every camera
        rng = np.random.default_rng(77)
        placed = 0
        for _ in range(80):
            t, poses = _random_tracklet(rng)
            want = _loop_estimate(t, poses)
            try:
                got = estimate_centroid(t, Views.of(poses), _k())
            except BehindCameraError:
                assert want is None
                continue
            if want is None:
                assert got.low_confidence
                continue
            placed += 1
            assert not got.low_confidence
            assert got.point.tobytes() == want.tobytes()
        assert placed >= 60


class TestProposeCandidate:
    def _trajectory_and_tracklet(self, speed=0.0, n=5, fps=10.0):
        k = _k()
        point = np.array([0.0, 2.5, 1.0])
        stamps = [i / fps for i in range(n)]
        eyes = [np.array([-0.6 + 0.3 * i_, 0.0, 1.0]) for i_ in range(n)]
        poses = [_look_at(e, point) for e in eyes]
        traj = Trajectory(stamps, poses)
        t = Tracklet(3, "cup")
        for i, (ts, pose) in enumerate(zip(stamps, poses)):
            obj = point + np.array([speed * ts, 0.0, 0.0])
            px = np.array(pinhole_uv(obj, pose, k))
            depth = float(np.linalg.norm(obj - pose.translation))
            t.append(Measurement(ts, i, "cup", 0.9, _box_at(px), depth))
        return t, traj, point

    def test_static_object_accepted(self):
        t, traj, point = self._trajectory_and_tracklet(speed=0.0)
        prop = propose_candidate(
            t, Views.of(traj.poses), _k(), mad_threshold=0.15,
        )
        assert prop.accepted
        assert prop.mad < 0.15
        cand = prop.candidate
        assert isinstance(cand, Candidate)
        assert cand.size_estimate > 0
        # the candidate keeps the extracted cloud of all views, whose
        # per-view slice means fed the gate
        poses = [traj.poses[m.frame_id] for m in t.measurements]
        views = loop_extract_clouds(t, poses, _k(), meshgrid_box_sampler(_k()))
        assert cand.cloud.points.tobytes() == np.concatenate(views).tobytes()
        assert prop.mad == mad_deviation(np.array([v.mean(axis=0) for v in views]))
        assert np.linalg.norm(cand.map_centroid - point) < 0.05

    def test_fast_object_rejected(self):
        # 1.5 m/s at 10 fps moves 0.15 m per frame; per-axis MAD of a
        # 5 step march is 1.2 * 0.15 = 0.18 > 0.15
        t, traj, _ = self._trajectory_and_tracklet(speed=1.5)
        prop = propose_candidate(
            t, Views.of(traj.poses), _k(), mad_threshold=0.15,
        )
        assert not prop.accepted
        assert prop.candidate is None
        assert prop.mad > 0.15

    def test_views_are_the_frames_odometry_rows(self, monkeypatch):
        # measurements stamped off their frames' stamps, each frame with
        # other frames between it and the next: extraction and the
        # localizer both see, bit for bit, the stacked poses of the
        # measurements' frame ids
        t, traj, _ = self._trajectory_and_tracklet()
        rng = np.random.default_rng(78)
        poses = [_look_at(rng.normal(0.0, 1.0, 3), rng.normal(0.0, 1.0, 3))
                 for _ in range(3 * len(t))]
        poses[1::3] = traj.poses
        odometry = Trajectory([0.1 * i for i in range(len(poses))], poses)
        shifted = Tracklet(t.id, t.class_id)
        for i, (m, shift) in enumerate(zip(t.measurements, (-0.005, 0.0, 0.005, 0.0199, 0.01))):
            row = 3 * i + 1
            shifted.append(replace(m, frame_id=row,
                                   timestamp=float(odometry.stamps[row]) + shift))
        seen = []

        def spy(real):
            def wrapper(tracklet, views, *args):
                seen.append(views)
                return real(tracklet, views, *args)
            return wrapper

        monkeypatch.setattr(candidate, "extract_clouds", spy(extract_clouds))
        monkeypatch.setattr(candidate, "estimate_centroid", spy(estimate_centroid))
        prop = propose_candidate(shifted, Views.of(odometry.poses), _k(), 0.15)
        assert prop.accepted and len(seen) == 2
        want = Views.of([odometry.poses[m.frame_id] for m in shifted.measurements])
        for views in seen:
            for got, w in zip(views, want):
                assert got.shape == w.shape
                assert got.tobytes() == w.tobytes()

"""Evaluation: alignment against the quaternion-eigen oracle, ATE
closed forms, landmark scoring, timing aggregation."""

import math

import numpy as np
import pytest

from oracles import horn_quaternion_align
from semmap.association import Landmark
from semmap.errors import DegenerateConfigurationError, TimestampMismatchError
from semmap.evaluation import (
    AlignedError,
    align_umeyama,
    ate_rmse,
    evaluate_ate,
    match_indices,
    score_landmarks,
    timing_report,
)
from semmap.geometry import PointCloud, Pose, Trajectory, quat_from_rotvec
from semmap.simulator import SceneObject


def _traj_from_positions(positions, t0=0.0, dt=0.1):
    return Trajectory(
        [t0 + i * dt for i in range(len(positions))],
        [Pose(rotation=np.array([1.0, 0, 0, 0]), translation=np.asarray(p, float))
         for p in positions],
    )


def _circle_positions(n=40, radius=2.0):
    angles = 2 * np.pi * np.arange(n) / n
    return np.column_stack(
        [radius * np.cos(angles), radius * np.sin(angles), 0.1 * np.arange(n)]
    )


def _random_rigid(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return Pose(
        rotation=quat_from_rotvec(axis * rng.uniform(0.1, 2.5)),
        translation=rng.normal(scale=3.0, size=3),
    )


class TestMatchTimestamps:
    def test_identical_grids_match_fully(self):
        a = _traj_from_positions(_circle_positions(10))
        pairs, dropped = match_indices(a, a)
        assert len(pairs) == 10 and dropped == 0

    def test_outside_window_dropped(self):
        a = _traj_from_positions(np.zeros((5, 3)), t0=0.0)
        b = _traj_from_positions(np.zeros((5, 3)), t0=0.05)  # 50 ms off the grid
        pairs, dropped = match_indices(a, b)
        assert pairs == [] and dropped == 5

    def test_each_partner_used_once(self):
        a = Trajectory([0.0, 0.011], [Pose.identity(), Pose.identity()])
        b = Trajectory([0.01], [Pose.identity()])
        pairs, dropped = match_indices(a, b)
        # the 1 ms pair beats the 10 ms pair for the single partner
        assert len(pairs) == 1 and dropped == 1


class TestAlignUmeyama:
    def test_identity_for_equal_trajectories(self):
        p = _circle_positions()
        s = align_umeyama(p, p)
        np.testing.assert_allclose(s.translation, np.zeros(3), atol=1e-9)
        np.testing.assert_allclose(s.rotation_matrix(), np.eye(3), atol=1e-9)

    def test_exact_rigid_recovered(self):
        rng = np.random.default_rng(0)
        p = _circle_positions()
        t = _random_rigid(rng)
        q = (t.rotation_matrix() @ p.T).T + t.translation
        s = align_umeyama(p, q)
        residual = (s.rotation_matrix() @ p.T).T + s.translation - q
        assert np.abs(residual).max() < 1e-9

    def test_noisy_case_matches_quaternion_eigen_oracle(self):
        rng = np.random.default_rng(1)
        p = rng.normal(scale=2.0, size=(60, 3))
        t = _random_rigid(rng)
        q = (t.rotation_matrix() @ p.T).T + t.translation
        q += rng.normal(scale=0.05, size=q.shape)
        s = align_umeyama(p, q)
        r_oracle, t_oracle = horn_quaternion_align(p, q)
        np.testing.assert_allclose(s.rotation_matrix(), r_oracle, atol=1e-6)
        np.testing.assert_allclose(s.translation, t_oracle, atol=1e-6)

    def test_fewer_than_three_points_raises(self):
        with pytest.raises(DegenerateConfigurationError):
            align_umeyama(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_collinear_points_raise(self):
        p = np.outer(np.arange(10.0), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(DegenerateConfigurationError):
            align_umeyama(p, p)


class TestAte:
    def test_identical_trajectories_zero(self):
        traj = _traj_from_positions(_circle_positions())
        assert ate_rmse(traj, traj) < 1e-9

    def test_constant_offset_removed_by_alignment(self):
        p = _circle_positions()
        est = _traj_from_positions(p + np.array([5.0, -2.0, 1.0]))
        gt = _traj_from_positions(p)
        assert ate_rmse(est, gt) < 1e-9

    def test_displaced_pose_closed_form_and_oracle(self):
        n = 20
        d = 0.5
        p = _circle_positions(n)
        q = p.copy()
        q[7] = q[7] + np.array([0.0, 0.0, d])
        est = _traj_from_positions(q)
        gt = _traj_from_positions(p)
        # pre-alignment: one error of d among n -> rmse = d / sqrt(n)
        pre = np.sqrt(np.mean(np.linalg.norm(q - p, axis=1) ** 2))
        assert pre == pytest.approx(d / math.sqrt(n), abs=1e-12)
        # post-alignment oracle: align with the independent quaternion
        # method, then recompute the rmse it leaves
        r_o, t_o = horn_quaternion_align(q, p)
        resid = (r_o @ q.T).T + t_o - p
        oracle_rmse = np.sqrt(np.mean(np.linalg.norm(resid, axis=1) ** 2))
        got = ate_rmse(est, gt)
        assert got == pytest.approx(oracle_rmse, abs=1e-9)
        assert got < pre  # alignment can only reduce the quadratic mean

    def test_invariant_under_rigid_transform_of_estimate(self):
        rng = np.random.default_rng(3)
        p = _circle_positions()
        gt = _traj_from_positions(p)
        est = _traj_from_positions(p + rng.normal(scale=0.05, size=p.shape))
        base = ate_rmse(est, gt)
        for _ in range(3):
            t = _random_rigid(rng)
            moved = Trajectory(est.stamps, [t.compose(pose) for pose in est.poses])
            assert ate_rmse(moved, gt) == pytest.approx(base, abs=1e-9)

    def test_alignment_is_global_minimum(self):
        rng = np.random.default_rng(4)
        p = _circle_positions()
        gt = _traj_from_positions(p)
        est = _traj_from_positions(p + rng.normal(scale=0.1, size=p.shape))
        report = evaluate_ate(est, gt)
        best = sum(e**2 for e in report.per_frame_errors)
        est_pos = est.positions()
        gt_pos = gt.positions()
        s = report.transform
        for _ in range(20):
            step = np.zeros(6)
            step[rng.integers(6)] = rng.uniform(-0.1, 0.1)
            perturbed = s.retract(step)
            moved = (perturbed.rotation_matrix() @ est_pos.T).T + perturbed.translation
            cost = float(((moved - gt_pos) ** 2).sum())
            assert cost >= best - 1e-12

    def test_disjoint_timestamps_raise(self):
        a = _traj_from_positions(_circle_positions(10), t0=0.0)
        b = _traj_from_positions(_circle_positions(10), t0=100.0)
        with pytest.raises(TimestampMismatchError):
            evaluate_ate(a, b)

    def test_rigid_alignment_is_umeyama_bit_for_bit(self):
        rng = np.random.default_rng(6)
        p = _circle_positions()
        est = _traj_from_positions(p + rng.normal(scale=0.05, size=p.shape))
        gt = _traj_from_positions(p)
        report = evaluate_ate(est, gt)
        s = align_umeyama(est.positions(), gt.positions())
        resid = ((s.rotation_matrix() @ est.positions().T).T + s.translation) - p
        assert report.alignment == "rigid"
        assert report.transform.rotation.tobytes() == s.rotation.tobytes()
        assert report.transform.translation.tobytes() == s.translation.tobytes()
        assert report.rmse == float(np.sqrt(np.mean(np.linalg.norm(resid, axis=1) ** 2)))

    def test_straight_path_aligned_by_translation(self):
        # a straight line determines no rotation about itself: the
        # estimate is shifted by the centroid difference, not rotated
        rng = np.random.default_rng(7)
        p = np.outer(np.arange(10.0), np.array([1.0, 0.5, 0.0]))
        noise = rng.normal(scale=0.05, size=p.shape)
        est = _traj_from_positions(p + noise + np.array([3.0, -1.0, 2.0]))
        report = evaluate_ate(est, _traj_from_positions(p))
        assert report.alignment == "translation"
        np.testing.assert_array_equal(report.transform.rotation, [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(report.transform.translation,
                                   -noise.mean(axis=0) - [3.0, -1.0, 2.0], atol=1e-12)
        centred = noise - noise.mean(axis=0)
        np.testing.assert_allclose(report.per_frame_errors,
                                   np.linalg.norm(centred, axis=1), atol=1e-12)

    def test_report_invariants(self):
        p = _circle_positions()
        rng = np.random.default_rng(5)
        est = _traj_from_positions(p + rng.normal(scale=0.02, size=p.shape))
        gt = _traj_from_positions(p)
        report = evaluate_ate(est, gt)
        assert isinstance(report, AlignedError)
        assert len(report.per_frame_errors) == len(p)
        manual = math.sqrt(
            sum(e**2 for e in report.per_frame_errors) / len(report.per_frame_errors)
        )
        assert report.rmse == pytest.approx(manual, abs=1e-12)


def _lm(lid, class_id, centroid, size=0.3):
    centroid = np.asarray(centroid, dtype=float)
    cloud = PointCloud(centroid.reshape(1, 3))
    return Landmark(id=lid, class_id=class_id, centroid=centroid, cloud=cloud,
                    size=size, last_association=0.0)


class TestScoreLandmarks:
    REGISTRY = (
        SceneObject("cup", (1.0, 0.0, 0.8), (0.1, 0.1, 0.12)),
        SceneObject("monitor", (0.0, 1.0, 1.0), (0.5, 0.1, 0.3)),
        SceneObject("person", (5.0, 0.0, 0.9), (0.5, 0.5, 1.7),
                    velocity=(-0.5, 0.0, 0.0)),
    )

    def test_perfect_map(self):
        lms = [_lm(0, "cup", (1.0, 0.0, 0.8)), _lm(1, "monitor", (0.0, 1.0, 1.0))]
        score = score_landmarks(lms, self.REGISTRY, duration=10.0)
        assert score.precision == 1.0
        assert score.recall == 1.0
        assert score.mean_centroid_error == pytest.approx(0.0, abs=1e-12)
        assert not score.dynamic_matches

    def test_empty_map_convention(self):
        score = score_landmarks([], self.REGISTRY, duration=10.0)
        assert score.empty_map
        assert score.precision == 1.0
        assert score.recall == 0.0
        assert math.isnan(score.mean_centroid_error)

    def test_duplicate_lowers_precision(self):
        lms = [
            _lm(0, "cup", (1.0, 0.0, 0.8)),
            _lm(1, "cup", (1.05, 0.0, 0.8)),
            _lm(2, "monitor", (0.0, 1.0, 1.0)),
        ]
        score = score_landmarks(lms, self.REGISTRY, duration=10.0)
        # 2 of 3 landmarks matched: the closer cup wins the single slot
        assert score.precision == pytest.approx(2.0 / 3.0)
        assert score.recall == 1.0
        assert score.unmatched_landmark_ids == (1,)

    def test_class_must_agree(self):
        lms = [_lm(0, "monitor", (1.0, 0.0, 0.8))]  # at the cup position
        score = score_landmarks(lms, self.REGISTRY, duration=10.0)
        assert score.precision == 0.0
        assert score.recall == 0.0

    def test_distance_gate_two_extents(self):
        # cup max extent 0.12 -> gate 0.24
        inside = score_landmarks([_lm(0, "cup", (1.2, 0.0, 0.8))], self.REGISTRY)
        outside = score_landmarks([_lm(0, "cup", (1.3, 0.0, 0.8))], self.REGISTRY)
        assert inside.precision == 1.0
        assert outside.precision == 0.0

    def test_dynamic_object_matched_on_swept_path_not_recall(self):
        # person walks from x=5 to x=0 over 10 s; a landmark midway on
        # the path flags contamination
        lms = [_lm(0, "person", (2.5, 0.0, 0.9))]
        score = score_landmarks(lms, self.REGISTRY, duration=10.0)
        assert len(score.dynamic_matches) == 1
        assert score.recall == 0.0  # static objects unmatched
        assert score.precision == 0.0  # not a static match either


class TestTimingReport:
    def test_empty_trace_flagged(self):
        report = timing_report({})
        assert report.no_data
        assert report.stages["optimize"].mean_ms == 0.0
        assert report.stages["association_path1"].count == 0

    def test_two_event_stats(self):
        report = timing_report({"optimize": [0.003, 0.005]})
        assert not report.no_data
        assert report.stages["optimize"].mean_ms == pytest.approx(4.0)
        assert report.stages["optimize"].max_ms == pytest.approx(5.0)
        assert report.stages["optimize"].count == 2

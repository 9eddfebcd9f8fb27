"""Pose graph: factor Jacobians against central differences, LM solver
behavior on satisfiable and inconsistent graphs."""

import dataclasses
import math
import re
from functools import partial

import numpy as np
import pytest
import scipy.sparse.linalg

from oracles import (
    _SparseLayout,
    first_pose_forward_solve,
    linearize_every_trial_optimize,
    lower_band,
    observation_residual_jacobians,
    odometry_residual_jacobians,
    prior_residual_jacobian,
    sequential_normal_equations,
    solve_stacks,
)

from semmap import posegraph
from semmap.association import AssociationConfig, Landmark, LandmarkMap
from semmap.errors import SingularSystemError, UnknownNodeError
from semmap.geometry import (
    CameraIntrinsics,
    PointCloud,
    Pose,
    quat_from_matrix,
    quat_from_rotvec,
    quat_to_matrix,
)
from semmap.posegraph import (
    OptimizerConfig,
    PoseGraph,
    apply_correction,
    observation_jacobian,
    observation_residual,
    odometry_jacobian,
    odometry_residual,
)

K = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


def _random_pose(rng, rot_scale=1.0, t_scale=2.0):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, rot_scale)
    return Pose(
        rotation=quat_from_rotvec(axis * angle),
        translation=rng.normal(scale=t_scale, size=3),
    )


def _num_jac_pose(fn, poses, dim_out, h=1e-6):
    """Central differences through the right retraction, one Jacobian
    (dim_out, 6) per factor. fn maps a list of poses to the stacked
    residuals (n, dim_out), row i depending on poses[i] only, so every
    factor is perturbed at once."""
    j = np.zeros((len(poses), dim_out, 6))
    for k in range(6):
        step = np.zeros(6)
        step[k] = h
        plus = fn([p.retract(step) for p in poses])
        minus = fn([p.retract(-step) for p in poses])
        j[:, :, k] = (plus - minus) / (2.0 * h)
    return j


def _num_jac_point(fn, points, dim_out, h=1e-6):
    """Central differences wrt stacked points (n, 3), as _num_jac_pose."""
    j = np.zeros((len(points), dim_out, 3))
    for k in range(3):
        step = np.zeros(3)
        step[k] = h
        j[:, :, k] = (fn(points + step) - fn(points - step)) / (2.0 * h)
    return j


def _rel_err(analytic, numeric):
    """Worst per-factor error relative to that factor's largest entry."""
    return max(
        float(np.max(np.abs(a - n))) / max(float(np.max(np.abs(a))), 1.0)
        for a, n in zip(analytic, numeric)
    )


def _stack(poses):
    """Quaternions (n, 4) and translations (n, 3) of a list of poses."""
    return (np.stack([p.rotation for p in poses]),
            np.stack([p.translation for p in poses]))


def _odometry(poses_i, poses_j, meas):
    """The odometry kernel's two halves on lists of poses: residuals and
    [J_i | J_j]."""
    (q_i, t_i), (q_z, t_z) = _stack(poses_i), _stack(meas)
    rz_t = np.swapaxes(quat_to_matrix(q_z), 1, 2)
    r, mid = odometry_residual(q_i, t_i, *_stack(poses_j), q_z, t_z,
                               quat_to_matrix(q_i), rz_t)
    return r, odometry_jacobian(rz_t, *mid)


def _prior(poses, priors):
    """The prior log(P^-1 X) as the solver linearizes it: the odometry
    kernel from the identity to X, keeping the J_j half."""
    ident = [Pose.identity()] * len(poses)
    r, jac = _odometry(ident, poses, priors)
    return r, jac[:, :, 6:]


def _observation(poses, landmarks, pixels):
    """The observation kernel's two halves on a list of poses: residuals,
    [J_pose | J_landmark] and the active mask."""
    q, t = _stack(poses)
    rot = quat_to_matrix(q)
    r, active, p = observation_residual(rot, t, np.asarray(landmarks, float),
                                        np.asarray(pixels, float), K)
    return r, observation_jacobian(rot, p, active, K), active


def _odometry_fd_error(poses_i, poses_j, meas):
    """Worst FD error of both halves of the odometry kernel's Jacobian."""
    _, jac = _odometry(poses_i, poses_j, meas)
    num_i = _num_jac_pose(lambda ps: _odometry(ps, poses_j, meas)[0], poses_i, 6)
    num_j = _num_jac_pose(lambda ps: _odometry(poses_i, ps, meas)[0], poses_j, 6)
    return max(_rel_err(jac[:, :, :6], num_i), _rel_err(jac[:, :, 6:], num_j))


def _prior_fd_error(poses, priors):
    _, jac = _prior(poses, priors)
    num = _num_jac_pose(lambda ps: _prior(ps, priors)[0], poses, 6)
    return _rel_err(jac, num)


def _observation_fd_error(poses, landmarks, pixels):
    """Worst FD error of both halves of the observation kernel's Jacobian;
    every observation must be active."""
    _, jac, active = _observation(poses, landmarks, pixels)
    assert active.all()
    num_pose = _num_jac_pose(lambda ps: _observation(ps, landmarks, pixels)[0], poses, 2)
    num_lm = _num_jac_point(lambda ls: _observation(poses, ls, pixels)[0],
                            np.asarray(landmarks, float), 2)
    return max(_rel_err(jac[:, :, :6], num_pose), _rel_err(jac[:, :, 6:], num_lm))


class TestOdometryJacobians:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        factors = []
        for _ in range(30):
            pose_i, pose_j = _random_pose(rng), _random_pose(rng)
            # measurement near the estimated relative motion keeps the
            # rotation residual well inside the principal log branch
            meas = pose_i.inverse().compose(pose_j).compose(_random_pose(rng, 0.2, 0.1))
            factors.append((pose_i, pose_j, meas))
        assert _odometry_fd_error(*zip(*factors)) < 1e-6

    def test_zero_residual_at_exact_measurement(self):
        rng = np.random.default_rng(8)
        poses_i = [_random_pose(rng) for _ in range(5)]
        poses_j = [_random_pose(rng) for _ in range(5)]
        meas = [a.inverse().compose(b) for a, b in zip(poses_i, poses_j)]
        r, _ = _odometry(poses_i, poses_j, meas)
        np.testing.assert_allclose(r, np.zeros((5, 6)), atol=1e-12)


class TestPriorJacobian:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(9)
        factors = []
        for _ in range(30):
            pose = _random_pose(rng)
            factors.append((pose, pose.compose(_random_pose(rng, 0.3, 0.2))))
        assert _prior_fd_error(*zip(*factors)) < 1e-6


class TestObservationJacobians:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(10)
        factors = []
        for _ in range(30):
            pose = _random_pose(rng)
            p_cam = np.array(
                [rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0), rng.uniform(1.0, 8.0)]
            )
            landmark = pose.rotation_matrix() @ p_cam + pose.translation
            pixel = np.array([K.fx * p_cam[0] / p_cam[2] + K.cx,
                              K.fy * p_cam[1] / p_cam[2] + K.cy])
            pixel += rng.normal(scale=3.0, size=2)
            factors.append((pose, landmark, pixel))
        assert _observation_fd_error(*zip(*factors)) < 1e-6

    def test_behind_camera_is_inactive(self):
        # the middle landmark is behind the identity camera
        landmarks = [[0.0, 0.0, 2.0], [0.0, 0.0, -1.0], [0.5, 0.0, 2.0]]
        r, jac, active = _observation([Pose.identity()] * 3, landmarks,
                                      [[300.0, 240.0]] * 3)
        np.testing.assert_array_equal(active, [True, False, True])
        np.testing.assert_array_equal(r[1], 0.0)
        np.testing.assert_array_equal(jac[1], 0.0)
        assert np.all(r[[0, 2], 0] != 0.0)

    def test_residual_zero_at_exact_projection(self):
        # u = 500 * 0.5/2 + 320 = 445, v = 240; u = 500 * -1/4 + 320 = 195
        r, _, _ = _observation(
            [Pose.identity()] * 2, [[0.5, 0.0, 2.0], [-1.0, 0.0, 4.0]],
            [[445.0, 240.0], [195.0, 240.0]],
        )
        np.testing.assert_allclose(r, np.zeros((2, 2)), atol=1e-12)


def _look_at(center, target):
    """Camera at center looking at target, image x horizontal."""
    forward = np.asarray(target, float) - center
    forward /= np.linalg.norm(forward)
    right = np.cross(forward, [0.0, 0.0, 1.0])
    right /= np.linalg.norm(right)
    down = np.cross(forward, right)
    return Pose(rotation=quat_from_matrix(np.column_stack([right, down, forward])),
                translation=center)


def _circle_scene(n_poses=10, n_landmarks=6, radius=3.0):
    """Poses on a circle looking inward, landmarks near the center."""
    rng = np.random.default_rng(42)
    poses = []
    for i in range(n_poses):
        a = 2.0 * math.pi * i / n_poses
        center = np.array([radius * math.cos(a), radius * math.sin(a), 0.0])
        poses.append(_look_at(center, np.zeros(3)))
    landmarks = rng.uniform(-0.8, 0.8, size=(n_landmarks, 3))
    return poses, landmarks


def _pixel_of(pose, point):
    p = pose.rotation_matrix().T @ (point - pose.translation)
    return np.array([K.fx * p[0] / p[2] + K.cx, K.fy * p[1] / p[2] + K.cy])


def _build_consistent_graph(perturb_scale=0.0, seed=0):
    poses, landmarks = _circle_scene()
    rng = np.random.default_rng(seed)
    g = PoseGraph(K)
    g.add_prior(0, poses[0])
    for i in range(1, len(poses)):
        rel = poses[i - 1].inverse().compose(poses[i])
        g.add_odometry(i - 1, i, rel)
    obs_info = np.eye(2) / 16.0
    for lid, point in enumerate(landmarks):
        for pid in range(0, len(poses), 2):
            g.add_observation(pid, lid, _pixel_of(poses[pid], point), obs_info,
                              landmark_position=point)
    if perturb_scale > 0.0:
        for pid in list(g.poses)[1:]:
            g.poses[pid] = g.poses[pid].retract(rng.normal(scale=perturb_scale, size=6))
        for lid in g.landmarks:
            g.landmarks[lid] = g.landmarks[lid] + rng.normal(scale=perturb_scale, size=3)
    return g, poses, landmarks


def _composed_chain_with_one_observation(n_poses=40):
    """The walking preset's camera path and odometry sigmas: the chain
    is initialized by composing its own odometry, and one landmark sits
    0.5 m off the point its pixel was taken from."""
    target = (0.0, 2.0, 0.9)
    path = [_look_at(np.array([-1.0 + i / 60.0, -6.0, 1.5]), target) for i in range(n_poses)]
    info = np.diag([1.0 / 0.002**2] * 3 + [1.0 / math.radians(0.05)**2] * 3)
    g = PoseGraph(K)
    g.add_prior(0, path[0])
    for i in range(1, n_poses):
        g.add_odometry(i - 1, i, path[i - 1].inverse().compose(path[i]), info)
    point = np.array([1.4, 2.2, 0.9])
    last = n_poses - 1
    g.add_observation(last, 0, _pixel_of(g.poses[last], point), np.eye(2) / 16.0,
                      landmark_position=point + np.array([0.5, -0.5, 0.25]))
    return g


def _drift_biased_circle(n_poses=12, yaw_bias=0.03):
    """The circle scene seen through odometry with a constant yaw bias
    per step, stiff enough (2 mm, 0.5 mrad) that the optimum keeps most
    of the bias and leaves most pixel residuals above 1.25 sigma (5 px
    for the 4 px pixel noise): the drift_loop scene's pattern. The
    chain is initialized by composing the biased odometry."""
    poses, landmarks = _circle_scene(n_poses=n_poses)
    bias = Pose(quat_from_rotvec(np.array([0.0, yaw_bias, 0.0])), np.zeros(3))
    info = np.diag([1.0 / 0.002**2] * 3 + [1.0 / 0.0005**2] * 3)
    g = PoseGraph(K)
    g.add_prior(0, poses[0])
    for i in range(1, n_poses):
        g.add_odometry(i - 1, i, poses[i - 1].inverse().compose(poses[i]).compose(bias),
                       info)
    for lid, point in enumerate(landmarks):
        for pid in range(n_poses):
            g.add_observation(pid, lid, _pixel_of(poses[pid], point), np.eye(2) / 16.0,
                              landmark_position=point)
    return g


class TestOptimize:
    def test_exactly_satisfiable_graph_reaches_zero_cost(self):
        g, poses, landmarks = _build_consistent_graph(perturb_scale=0.02)
        report = g.optimize()
        assert report.converged
        assert report.final_cost < 1e-12
        for pid, truth in enumerate(poses):
            err = truth.inverse().compose(g.poses[pid])
            assert np.linalg.norm(err.translation) < 1e-6
        for lid, truth in enumerate(landmarks):
            np.testing.assert_allclose(g.landmarks[lid], truth, atol=1e-6)

    def test_accepted_costs_strictly_decrease(self):
        g, _, _ = _build_consistent_graph(perturb_scale=0.05, seed=3)
        report = g.optimize()
        trace = report.cost_trace
        assert len(trace) >= 2
        assert all(b < a for a, b in zip(trace, trace[1:]))
        assert report.initial_cost == trace[0]
        assert report.final_cost == pytest.approx(trace[-1])

    def test_inconsistent_pair_closed_form(self):
        # pose 0 held at the identity by its prior sees one landmark at
        # two pixels, u1 = 330 and u2 = 310, each with information w.
        # Whatever the pose and the landmark, both pixels see the same
        # projection u, so least squares puts it at (u1 + u2) / 2 with
        # cost w (u1 - u2)^2 / 2.
        w = 0.25
        g = PoseGraph(K)
        g.add_prior(0, Pose.identity())
        g.add_observation(0, 0, np.array([330.0, 240.0]), w * np.eye(2),
                          landmark_position=np.array([0.1, 0.05, 2.0]))
        g.add_observation(0, 0, np.array([310.0, 240.0]), w * np.eye(2))
        report = g.optimize()
        assert report.converged
        assert report.final_cost == pytest.approx(w * (330.0 - 310.0) ** 2 / 2, rel=1e-9)
        np.testing.assert_allclose(_pixel_of(g.poses[0], g.landmarks[0]), [320.0, 240.0],
                                   atol=1e-6)

    def test_noisy_odometry_pulled_toward_truth_by_observations(self):
        g, poses, _ = _build_consistent_graph()
        rng = np.random.default_rng(11)
        for pid in list(g.poses)[1:]:
            g.poses[pid] = g.poses[pid].retract(rng.normal(scale=0.03, size=6))
        before = sum(
            np.linalg.norm(g.poses[pid].translation - poses[pid].translation)
            for pid in g.poses
        )
        report = g.optimize()
        after = sum(
            np.linalg.norm(g.poses[pid].translation - poses[pid].translation)
            for pid in g.poses
        )
        assert report.converged
        assert after < 0.1 * before

    def test_behind_camera_observation_deactivated_not_fatal(self):
        g, poses, _ = _build_consistent_graph()
        # extra landmark outside the circle: behind pose 0 (which looks
        # inward) but in front of the far-side cameras, whose pixels are
        # consistent with it. It stays behind pose 0 at the optimum, so
        # that factor is deactivated through convergence instead of
        # aborting the solve.
        behind = poses[0].translation * 1.5
        g.add_observation(0, 99, np.array([320.0, 240.0]), np.eye(2) / 16.0,
                          landmark_position=behind)
        g.add_observation(5, 99, _pixel_of(poses[5], behind), np.eye(2) / 16.0)
        g.add_observation(4, 99, _pixel_of(poses[4], behind), np.eye(2) / 16.0)
        report = g.optimize()
        assert report.deactivated_observations == 1
        assert report.final_cost < 1e-12

    def test_fully_deactivated_landmark_is_frozen_not_fatal(self):
        # a landmark whose every observation sits behind its camera is
        # rank-deficient only at this linearization point; damping
        # freezes it for the solve instead of aborting
        g = PoseGraph(K)
        g.add_prior(0, Pose.identity())
        g.add_observation(0, 0, np.array([320.0, 240.0]), np.eye(2),
                          landmark_position=np.array([0.0, 0.0, -2.0]))
        report = g.optimize()
        assert report.deactivated_observations == 1
        np.testing.assert_array_equal(g.landmarks[0], [0.0, 0.0, -2.0])

    def test_landmark_without_any_factor_raises(self):
        g = PoseGraph(K)
        g.add_prior(0, Pose.identity())
        g.landmarks[7] = np.array([1.0, 0.0, 3.0])
        with pytest.raises(SingularSystemError):
            g.optimize()

    def test_no_prior_raises(self):
        g = PoseGraph(K)
        g.add_prior(0, Pose.identity())
        g.prior = None
        with pytest.raises(SingularSystemError):
            g.optimize()

    @pytest.mark.parametrize("perturb, outlier, cfg, reason", [
        (0.0, False, OptimizerConfig(), "gradient"),
        (0.05, True, OptimizerConfig(), "rel_decrease"),
        (0.05, False, OptimizerConfig(lambda_init=1e13), "stalled"),
        (0.05, False, OptimizerConfig(max_iterations=1), "max_iterations"),
        (0.05, False, OptimizerConfig(), "small_step"),
    ])
    def test_stop_reason(self, perturb, outlier, cfg, reason):
        g, _, _ = _build_consistent_graph(perturb_scale=perturb, seed=3)
        if outlier:
            # a far outlier pixel leaves a nonzero optimum, so the
            # gradient never reaches gradient_tol
            g.add_observation(2, 0, np.array([900.0, -50.0]), np.eye(2) / 16.0)
        assert g.optimize(cfg).stop_reason == reason

    def test_noise_floor_ends_by_step_size_not_damping(self):
        # the walking scene's pattern: a chain composed exactly from its
        # odometry, far from the origin, plus one observation of a
        # landmark initialized off its pixel. The cost falls to rounding
        # noise, where the relative-decrease test never fires; without
        # the step-size test damping climbs to lambda_max
        g = _composed_chain_with_one_observation()
        report = g.optimize()
        assert report.final_cost < 1e-12
        assert report.converged
        assert report.stop_reason == "small_step"
        assert report.steps <= 10
        assert report.iterations < report.steps

    def test_step_size_rule_ends_a_fixed_pose_solve(self):
        # with the gradient test off only the step-size rule can end the
        # landmark-only solve short of lambda_max
        g = _composed_chain_with_one_observation()
        report = g.optimize(OptimizerConfig(gradient_tol=0.0), fix_poses=True)
        assert report.final_cost < 1e-12
        assert report.stop_reason == "small_step"
        assert report.steps <= 10

    def test_large_pixel_residuals_converge_in_few_steps(self):
        # plain least squares is solved by Gauss-Newton steps; a robust
        # kernel down-weighting every residual above 1.25 sigma turned
        # this solve into reweighting that took 49 accepted steps
        g = _drift_biased_circle()
        report = g.optimize()
        assert report.stop_reason == "rel_decrease"
        assert report.iterations <= 5
        assert report.steps <= 5
        obs = g.observations
        r, _, active = _observation([g.poses[f.pose_id] for f in obs],
                                    [g.landmarks[f.landmark_id] for f in obs],
                                    [f.pixel for f in obs])
        assert active.all()
        assert np.count_nonzero(np.linalg.norm(r, axis=1) > 5.0) > len(obs) / 2

    def test_deterministic_repeat(self):
        g1, _, _ = _build_consistent_graph(perturb_scale=0.05, seed=5)
        g2, _, _ = _build_consistent_graph(perturb_scale=0.05, seed=5)
        r1 = g1.optimize()
        r2 = g2.optimize()
        assert r1.cost_trace == r2.cost_trace
        assert r1.lambda_trace == r2.lambda_trace
        for pid in g1.poses:
            np.testing.assert_array_equal(
                g1.poses[pid].translation, g2.poses[pid].translation
            )


class TestGraphConstruction:
    def test_odometry_initializes_missing_target_by_composition(self):
        g = PoseGraph(K)
        start = Pose(rotation=quat_from_rotvec(np.array([0.0, 0.0, 0.3])),
                     translation=np.array([1.0, 2.0, 0.0]))
        g.add_prior(0, start)
        rel = Pose(rotation=np.array([1.0, 0, 0, 0]), translation=np.array([0.5, 0, 0]))
        g.add_odometry(0, 1, rel)
        expected = start.compose(rel)
        np.testing.assert_allclose(g.poses[1].translation, expected.translation)

    def test_odometry_node_has_the_bits_of_compose(self):
        # each new node is its `from` estimate composed with the step,
        # read back from the arrays; the `from` node was stored, solved or
        # composed itself
        rng = np.random.default_rng(5)
        steps = [Pose.exp(rng.normal(scale=0.3, size=6)) for _ in range(12)]
        g = PoseGraph(K)
        g.add_prior(0, Pose.exp(rng.normal(size=6)))
        for i, rel in enumerate(steps[:6], start=1):
            want = g.poses[i - 1].compose(rel)
            g.add_odometry(i - 1, i, rel)
            assert g.poses[i].rotation.tobytes() == want.rotation.tobytes()
            assert g.poses[i].translation.tobytes() == want.translation.tobytes()
        g.optimize()
        for i, rel in enumerate(steps[6:], start=7):
            want = g.poses[i - 1].compose(rel)
            g.add_odometry(i - 1, i, rel)
            assert g.poses[i].rotation.tobytes() == want.rotation.tobytes()
            assert g.poses[i].translation.tobytes() == want.translation.tobytes()

    def test_odometry_to_a_non_finite_node_raises(self):
        g = PoseGraph(K)
        g.add_prior(0, Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([1e308, 0.0, 0.0])))
        far = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([1e308, 0.0, 0.0]))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            g.add_odometry(0, 1, far)

    def test_odometry_from_unknown_pose_raises(self):
        g = PoseGraph(K)
        g.add_prior(0, Pose.identity())
        with pytest.raises(UnknownNodeError):
            g.add_odometry(3, 4, Pose.identity())

    @pytest.mark.parametrize("to_id", [5, -1, 1000])
    def test_odometry_to_a_new_id_other_than_the_next_row_raises(self, to_id):
        # pose ids are the rows 0..n-1: a new pose takes row n = 4
        g = _drift_biased_circle(n_poses=4)
        before = _estimate_bits(g), list(g.odometry)
        with pytest.raises(UnknownNodeError, match=f"3 -> {to_id} does not extend.*next row, 4"):
            g.add_odometry(3, to_id, Pose.identity())
        assert (_estimate_bits(g), g.odometry) == before
        assert len(g.poses) == 4

    @pytest.mark.parametrize("from_id, to_id", [
        (2, 3),  # a duplicate of the factor into the last pose
        (3, 2),  # that factor reversed
        (1, 3),  # into an existing row
        (3, 0),  # a loop closure
        (2, 4),  # to the next row, but not from the last pose
        (3.0, 4), (3, 4.0),  # float ids: the rows are integers
    ])
    def test_odometry_off_the_chain_raises_and_changes_nothing(self, from_id, to_id):
        # the graph is a chain by construction: odometry only joins the
        # last pose, 3, to the next row, 4
        g = _drift_biased_circle(n_poses=4)
        g.optimize()
        before = _estimate_bits(g), list(g.odometry)
        with pytest.raises(UnknownNodeError,
                           match=re.escape(f"{from_id!r} -> {to_id!r} does not extend")):
            g.add_odometry(from_id, to_id, Pose.identity())
        assert (_estimate_bits(g), g.odometry) == before
        assert len(g.poses) == 4
        # the chain rows are untouched: the next solve equals a fresh build's
        _solve_like_fresh(g, False)

    @pytest.mark.parametrize("pose_id", [1, -1, 0.0])
    def test_prior_on_an_empty_graph_must_create_pose_0(self, pose_id):
        g = PoseGraph(K)
        with pytest.raises(UnknownNodeError, match="next row, 0"):
            g.add_prior(pose_id, Pose.identity())
        assert g.prior is None and len(g.poses) == 0

    def test_observation_from_unknown_pose_raises(self):
        g = PoseGraph(K)
        g.add_prior(0, Pose.identity())
        with pytest.raises(UnknownNodeError):
            g.add_observation(9, 0, np.array([1.0, 1.0]), np.eye(2),
                              landmark_position=np.zeros(3))

    def test_new_landmark_without_position_raises(self):
        g = PoseGraph(K)
        g.add_prior(0, Pose.identity())
        with pytest.raises(UnknownNodeError):
            g.add_observation(0, 0, np.array([1.0, 1.0]), np.eye(2))

    def test_second_prior_raises(self):
        g = PoseGraph(K)
        g.add_prior(0, Pose.identity())
        with pytest.raises(ValueError):
            g.add_prior(1, Pose.identity())

    def test_merge_landmarks_repoints_factors(self):
        g = PoseGraph(K)
        g.add_prior(0, Pose.identity())
        g.add_observation(0, 3, np.array([320.0, 240.0]), np.eye(2),
                          landmark_position=np.array([0.0, 0.0, 2.0]))
        g.add_observation(0, 7, np.array([322.0, 240.0]), np.eye(2),
                          landmark_position=np.array([0.02, 0.0, 2.0]))
        g.merge_landmarks(7, 3)
        assert set(g.landmarks) == {3}
        assert all(f.landmark_id == 3 for f in g.observations)

    def test_self_merge_changes_nothing(self):
        # a self-merge used to delete the node and leave its factors
        # pointing at it: the next solve raised KeyError
        g = PoseGraph(K)
        g.add_prior(0, Pose.identity())
        g.add_odometry(0, 1, Pose.exp(np.array([0.1, 0.0, 0.0, 0.0, 0.0, 0.0])))
        for pid, u in ((0, 320.0), (1, 270.0)):
            g.add_observation(pid, 5, np.array([u, 240.0]), np.eye(2),
                              landmark_position=np.array([0.0, 0.0, 1.0]))
        g.merge_landmarks(5, 5)
        # landmark 9 has no node: nothing to merge
        g.merge_landmarks(9, 5)
        assert set(g.landmarks) == {5}
        assert [f.landmark_id for f in g.observations] == [5, 5]
        assert g.optimize().converged

    def test_merge_landmarks_renames_when_survivor_absent(self):
        g = PoseGraph(K)
        g.add_prior(0, Pose.identity())
        g.add_observation(0, 7, np.array([322.0, 240.0]), np.eye(2),
                          landmark_position=np.array([0.02, 0.0, 2.0]))
        g.merge_landmarks(7, 3)
        assert set(g.landmarks) == {3}
        np.testing.assert_allclose(g.landmarks[3], [0.02, 0.0, 2.0])


class TestPoseEstimates:
    """Pose estimates live in arrays; graph.poses reads them as Poses."""

    def test_a_read_is_a_copy_of_its_row(self):
        g, _, _ = _build_consistent_graph(perturb_scale=0.05, seed=3)
        moved = g.poses[2].retract(np.full(6, 1e-3))
        g.poses[2] = moved
        read = g.poses[2]
        assert read is not moved
        assert (read.rotation.tobytes(), read.translation.tobytes()) == (
            moved.rotation.tobytes(), moved.translation.tobytes())
        read.translation[:] = 0.0
        assert g.poses[2].translation.tobytes() == moved.translation.tobytes()
        q, t = g.poses.arrays()
        g.optimize()
        assert g.poses[2].translation.tobytes() == t[2].tobytes()
        assert g.poses[2].rotation.tobytes() == q[2].tobytes()

    def test_ids_are_the_rows(self):
        g, poses, _ = _build_consistent_graph()
        n = len(poses)
        assert list(g.poses) == list(range(n)) and len(g.poses) == n
        assert n - 1 in g.poses and np.int64(n - 1) in g.poses
        for absent in (n, -1, 2.0, "0"):
            assert absent not in g.poses
        for absent in (n, -1):
            with pytest.raises(KeyError):
                g.poses[absent]

    def test_assigning_a_row_past_the_end_raises(self):
        g, poses, _ = _build_consistent_graph()
        n = len(poses)
        before = _estimate_bits(g)
        for pid in (n, n + 3, -1):
            with pytest.raises(KeyError, match=f"pose {pid} is not a row"):
                g.poses[pid] = Pose.identity()
        assert _estimate_bits(g) == before
        g.poses[n - 1] = Pose.identity()
        assert len(g.poses) == n


class TestApplyCorrection:
    def test_registry_centroids_and_clouds_follow_graph(self):
        g = PoseGraph(K)
        g.add_prior(0, Pose.identity())
        g.add_observation(0, 0, np.array([320.0, 240.0]), np.eye(2),
                          landmark_position=np.array([0.1, 0.0, 2.0]))
        lm_map = LandmarkMap()
        cloud = PointCloud(np.array([[0.0, 0.0, 1.9], [0.0, 0.0, 2.1]]))
        lm_map.landmarks[0] = Landmark(
            id=0, class_id="cup", centroid=np.array([0.0, 0.0, 2.0]),
            cloud=cloud, size=0.2, last_association=0.0,
        )
        apply_correction(g, lm_map)
        np.testing.assert_allclose(lm_map.landmarks[0].centroid, [0.1, 0.0, 2.0])
        np.testing.assert_allclose(
            lm_map.landmarks[0].cloud.points[:, 0], [0.1, 0.1]
        )


class TestBatchedAssembly:
    """The solver linearizes factors in stacked arrays; the per-factor
    residual functions in oracles.py are the reference for that assembly."""

    def _dense_oracle(self, g, pose_ids, lm_ids):
        pose_index = {pid: 6 * i for i, pid in enumerate(pose_ids)}
        base = 6 * len(pose_ids)
        lm_index = {lid: base + 3 * i for i, lid in enumerate(lm_ids)}
        dim = base + 3 * len(lm_ids)
        h = np.zeros((dim, dim))
        grad = np.zeros(dim)
        cost = 0.0
        deactivated = 0

        def add(blocks, r, info):
            for off_a, j_a in blocks:
                grad[off_a:off_a + j_a.shape[1]] += j_a.T @ (info @ r)
                for off_b, j_b in blocks:
                    hb = j_a.T @ info @ j_b
                    h[off_a:off_a + hb.shape[0], off_b:off_b + hb.shape[1]] += hb

        r, j = prior_residual_jacobian(g.poses[g.prior.pose_id], g.prior.pose)
        add([(pose_index[g.prior.pose_id], j)], r, g.prior.information)
        cost += float(r @ g.prior.information @ r)
        for f in g.odometry:
            r, j_i, j_j = odometry_residual_jacobians(
                g.poses[f.from_id], g.poses[f.to_id], f.rel)
            add([(pose_index[f.from_id], j_i), (pose_index[f.to_id], j_j)],
                r, f.information)
            cost += float(r @ f.information @ r)
        for f in g.observations:
            out = observation_residual_jacobians(
                g.poses[f.pose_id], g.landmarks[f.landmark_id], f.pixel, g.intrinsics)
            if out is None:
                deactivated += 1
                continue
            r, j_pose, j_lm = out
            add([(pose_index[f.pose_id], j_pose), (lm_index[f.landmark_id], j_lm)],
                r, f.information)
            cost += float(r @ f.information @ r)
        return h, grad, cost, deactivated

    def test_matches_per_factor_assembly(self):
        g, poses, landmarks = _build_consistent_graph(perturb_scale=0.4, seed=11)
        # one landmark behind its only strong view plus a far outlier
        # pixel exercises deactivation and a large residual
        g.add_observation(0, 50, np.array([11.0, 13.0]), np.eye(2) / 16.0,
                          landmark_position=poses[0].translation * 1.5)
        g.add_observation(2, 0, np.array([900.0, -50.0]), np.eye(2) / 16.0)
        band, cols, _, _, cost, deact = _linearized(g)
        h_ref, grad_ref, cost_ref, deact_ref = self._dense_oracle(
            g, sorted(g.poses), sorted(g.landmarks))
        assert deact == deact_ref == 1
        assert cost == pytest.approx(cost_ref, rel=1e-12)
        np.testing.assert_allclose(cols[:, 0], grad_ref, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(
            _dense_from_blocks(band, cols), h_ref, rtol=1e-9, atol=1e-9)
        # LAPACK takes the band as it is
        assert band.flags.f_contiguous and cols.flags.f_contiguous
        # the sparse-LU reference assembles the same matrix from the
        # sequential oracle's values
        h_sparse, _ = _SparseLayout(g, False).assemble(_oracle_system(g)[2])
        np.testing.assert_allclose(h_sparse.toarray(), h_ref, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("scene", ["circle", "one_pose", "composed_chain"])
    @pytest.mark.parametrize("fix_poses", [False, True])
    def test_block_sums_equal_the_sequential_oracle_bit_for_bit(self, scene, fix_poses):
        # the solver sums each entry in factor order, as one += per
        # factor term from zero does: the band, [g | B], C and the
        # gradient keep the oracle's bits, and so does a damped step
        if scene == "circle":
            # six observations on each even pose, a deactivated one and
            # an outlier
            g, poses, _ = _build_consistent_graph(perturb_scale=0.3, seed=7)
            g.add_observation(0, 50, np.array([11.0, 13.0]), np.eye(2) / 16.0,
                              landmark_position=poses[0].translation * 1.5)
            g.add_observation(2, 0, np.array([900.0, -50.0]), np.eye(2) / 16.0)
            assert _linearized(g)[-1] == 1
        elif scene == "one_pose":
            g, _ = _one_pose_graph()
            g.landmarks[0] = g.landmarks[0] + 0.1
        else:
            g = _composed_chain_with_one_observation(n_poses=12)
        # two observations of one landmark from one pose, at two pixels
        pid, lid = len(g.poses) - 1, min(g.landmarks)
        g.add_observation(pid, lid, _pixel_of(g.poses[pid], g.landmarks[lid]) + 3.0,
                          _OBS_INFO)
        g.add_observation(pid, lid, _pixel_of(g.poses[pid], g.landmarks[lid]) - 5.0,
                          _OBS_INFO * 2.0)
        band, cols = _linearized(g)[:2]
        oracle_band, oracle_cols, _ = _oracle_system(g)
        base = 6 * len(g.poses)
        for got, want in ((band, oracle_band), (cols[:, 0], oracle_cols[:, 0]),
                          (cols[:base, 1:], oracle_cols[:base, 1:]),
                          (cols[base:, 1:], oracle_cols[base:, 1:])):
            _assert_same_bits(got, want)
        _assert_same_bits(
            posegraph._damped_step(band, cols, 1e-3, fix_poses),
            posegraph._damped_step(np.asfortranarray(oracle_band), oracle_cols, 1e-3,
                                   fix_poses))


def _linearized(g):
    """The solver's band and columns [g | H[:, 6 n:]] (see
    PoseGraph._linear_system), the state and the solve's stacks
    (oracles.solve_stacks: observations, chain rotations) they came
    from, the cost and the deactivated count at the graph's estimates."""
    lm_ids = sorted(g.landmarks)
    obs, rz_t = solve_stacks(g, lm_ids)
    q, t, lm = g._state_arrays(lm_ids)
    state, cost, deact = g._residuals(q, t, lm, quat_to_matrix(q), rz_t, obs)
    band, cols = g._linear_system(state, rz_t, obs)
    return band, cols, state, (obs, rz_t), cost, deact


def _factor_terms(g):
    """Each factor's dofs, Hessian and gradient at the graph's estimates
    as the solver's kernels compute them, in factor order: the prior,
    the odometry, the observations."""
    _, _, state, (obs, rz_t), _, _ = _linearized(g)
    r = state.odo_r
    jac = odometry_jacobian(rz_t, *state.odo_mid)
    h_prior, g_prior = posegraph._normal_entries(jac[:1, :, 6:], r[:1],
                                                 g.prior.information[None])
    h_odo, g_odo = posegraph._normal_entries(
        jac[1:], r[1:], np.array([f.information for f in g.odometry]).reshape(-1, 6, 6))
    terms = [(np.arange(6), h_prior[0], g_prior[0])]
    terms += [(6 * k + np.arange(12), h, grad)
              for k, (h, grad) in enumerate(zip(h_odo, g_odo))]
    if state.obs is not None:
        rot, r, active, p_cam = state.obs
        h_obs, g_obs = posegraph._normal_entries(
            observation_jacobian(rot, p_cam, active, g.intrinsics), r, obs.info)
        base = 6 * len(g.poses)
        terms += [(np.concatenate([6 * p + np.arange(6), base + 3 * l + np.arange(3)]),
                   h, grad)
                  for p, l, h, grad in zip(obs.p, obs.l, h_obs, g_obs)]
    return terms


def _oracle_system(g):
    """The band, the columns [g | H[:, 6 n:]] and every factor's Hessian
    values in factor order (what _SparseLayout assembles), summed by the
    sequential oracle from the solver's factor terms."""
    terms = _factor_terms(g)
    base = 6 * len(g.poses)
    h, grad = sequential_normal_equations(base + 3 * len(g.landmarks), terms)
    return (lower_band(h[:base, :base], posegraph._CHAIN_KD),
            np.column_stack([grad, h[:, base:]]),
            np.concatenate([h_f.ravel() for _, h_f, _ in terms]))


def _assert_same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def _dense_from_blocks(band, cols):
    """The full normal matrix from the solver's block storage: the lower
    band, the border B (pose rows of cols after the first column) and
    the landmark block C (the rows below them)."""
    p = band.shape[1]
    border = cols[:p, 1:]
    a = np.zeros((p, p))
    for d in range(band.shape[0]):
        # entries past the end of a diagonal are padding, always zero
        assert not band[d, max(p - d, 0):].any()
        idx = np.arange(p - d)
        a[idx + d, idx] = band[d, :p - d]
    a += np.tril(a, -1).T
    return np.block([[a, border], [border.T, cols[p:, 1:]]])


def _damped_steps(g, lam=1e-3, fix_poses=False):
    """One damped step of the banded Schur solve on the solver's system
    and one of the sparse-LU reference on the sequential oracle's."""
    band, cols = _linearized(g)[:2]
    _, oracle_cols, vals = _oracle_system(g)
    sparse = _SparseLayout(g, fix_poses)
    return [posegraph._damped_step(band, cols, lam, fix_poses),
            sparse.step(sparse.assemble(vals), oracle_cols[:, 0], lam)]


def _assert_same_step(step, ref):
    assert step.shape == ref.shape
    assert np.max(np.abs(step - ref)) <= 1e-9 * np.max(np.abs(ref))


class TestChainSolve:
    """The banded pose chain plus landmark Schur complement against the
    sparse LU solve of the full normal equations."""

    def test_step_matches_sparse_lu(self):
        g, _, _ = _build_consistent_graph(perturb_scale=0.05, seed=4)
        for lam in (1e-6, 1e-3, 10.0):
            _assert_same_step(*_damped_steps(g, lam))

    def test_single_pose_graph(self):
        # one pose is narrower than the chain's band: the band keeps kd
        # 11, and its rows past the sixth are padding
        poses, landmarks = _circle_scene()
        g = PoseGraph(K)
        g.add_prior(0, poses[0])
        for lid, point in enumerate(landmarks[:3]):
            g.add_observation(0, lid, _pixel_of(poses[0], point) + 2.0, np.eye(2) / 16.0,
                              landmark_position=point)
        g.poses[0] = g.poses[0].retract(np.full(6, 1e-3))
        assert _linearized(g)[0].shape == (12, 6)
        step, ref = _damped_steps(g)
        _assert_same_step(step, ref)
        report = g.optimize()
        assert report.converged

    def test_fully_deactivated_landmark_step_is_exactly_zero(self):
        g, poses, _ = _build_consistent_graph(perturb_scale=0.05, seed=8)
        behind = poses[0].translation * 1.5
        g.add_observation(0, 99, np.array([320.0, 240.0]), np.eye(2) / 16.0,
                          landmark_position=behind)
        step, ref = _damped_steps(g)
        _assert_same_step(step, ref)
        # landmark 99 sorts last; it has no active factor
        np.testing.assert_array_equal(step[-3:], 0.0)
        report = g.optimize()
        assert report.deactivated_observations == 1
        np.testing.assert_array_equal(g.landmarks[99], behind)

    def test_far_outlier_pixel(self):
        g, _, _ = _build_consistent_graph(perturb_scale=0.05, seed=9)
        g.add_observation(2, 0, np.array([900.0, -50.0]), np.eye(2) / 16.0)
        _assert_same_step(*_damped_steps(g))

    def test_fixed_poses(self):
        g, _, _ = _build_consistent_graph(perturb_scale=0.05, seed=10)
        step, ref = _damped_steps(g, fix_poses=True)
        assert step.shape == (3 * len(g.landmarks),)
        _assert_same_step(step, ref)

    def test_not_positive_definite_returns_none(self):
        # LM raises the damping when the factorization fails
        spd = np.array([[4.0, 4.0], [1.0, 0.0]])  # A = [[4, 1], [1, 4]]
        gb = np.asfortranarray([[1.0, 1.0], [1.0, 0.0]])  # g_pose = 1, B = [1, 0]
        g_lm = np.ones(1)
        assert posegraph.solve_chain_schur(
            spd.copy(), gb, np.array([[1.0]]), g_lm) is not None
        indefinite = np.array([[1.0, 1.0], [2.0, 0.0]])  # A = [[1, 2], [2, 1]]
        assert posegraph.solve_chain_schur(
            indefinite, gb, np.array([[1.0]]), g_lm) is None
        # C - B^T A^-1 B = 0.2 - 4/15 < 0
        assert posegraph.solve_chain_schur(
            spd.copy(), gb, np.array([[0.2]]), g_lm) is None

    def test_chain_graph_never_calls_sparse_lu(self, monkeypatch):
        def no_splu(*args, **kwargs):
            raise AssertionError("chain graph took the sparse-LU path")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", no_splu)
        g, _, _ = _build_consistent_graph(perturb_scale=0.02)
        assert g.optimize().final_cost < 1e-12

    def test_loop_closure_raises_and_leaves_estimates(self):
        # a loop closure would leave the band: it is rejected when it is
        # added, and the graph solves as it was
        g, poses, _ = _build_consistent_graph(perturb_scale=0.02, seed=12)
        last = len(poses) - 1
        before = _estimate_bits(g)
        with pytest.raises(UnknownNodeError, match=f"odometry {last} -> 0"):
            g.add_odometry(last, 0, poses[last].inverse().compose(poses[0]))
        assert len(g.odometry) == last
        assert _estimate_bits(g) == before
        assert g.optimize().final_cost < 1e-12


class TestFixedPoseSolve:
    def test_poses_pinned_landmarks_refined(self):
        g, poses, landmarks = _build_consistent_graph(perturb_scale=0.0, seed=2)
        rng = np.random.default_rng(2)
        for lid in g.landmarks:
            g.landmarks[lid] = g.landmarks[lid] + rng.normal(scale=0.3, size=3)
        before = {pid: g.poses[pid] for pid in g.poses}
        report = g.optimize(fix_poses=True)
        assert report.converged
        assert report.final_cost < 1e-12
        for pid, p in before.items():
            np.testing.assert_array_equal(g.poses[pid].translation, p.translation)
            # Pose construction renormalizes the quaternion on exit
            np.testing.assert_allclose(g.poses[pid].rotation, p.rotation, atol=1e-15)
        for lid, truth in enumerate(landmarks):
            np.testing.assert_allclose(g.landmarks[lid], truth, atol=1e-6)

    def test_no_landmarks_is_immediate_noop(self):
        g = PoseGraph(K)
        g.add_prior(0, Pose.identity())
        g.add_odometry(0, 1, Pose.exp(np.array([0.1, 0, 0, 0, 0, 0])))
        report = g.optimize(fix_poses=True)
        assert report.converged
        assert report.iterations == 0


def _fresh_copy(g):
    """A new graph holding g's factors and estimates, its chain rows
    stacked from g's factor record in one go: its poses are created by
    the same prior and odometry, in g's order, then set to g's
    estimates."""
    fresh = PoseGraph(g.intrinsics)
    fresh.add_prior(g.prior.pose_id, g.prior.pose, g.prior.information)
    for f in g.odometry:
        fresh.add_odometry(f.from_id, f.to_id, f.rel, f.information)
    for pid in g.poses:
        fresh.poses[pid] = g.poses[pid]
    fresh.landmarks = {lid: p.copy() for lid, p in g.landmarks.items()}
    fresh.observations = list(g.observations)
    return fresh


def _chain_bits(g):
    return tuple(rows.rows.tobytes() for rows in (g._chain_q, g._chain_t, g._chain_info))


def _report_bits(report):
    """Every SolveReport field, each float by its bits."""
    return {k: [x.hex() for x in v] if isinstance(v, list)
            else v.hex() if isinstance(v, float) else v
            for k, v in dataclasses.asdict(report).items()}


def _estimate_bits(g):
    return ({pid: (g.poses[pid].rotation.tobytes(), g.poses[pid].translation.tobytes())
             for pid in g.poses},
            {lid: p.tobytes() for lid, p in g.landmarks.items()})


def _solve_like_old_loop(g, fix_poses=False, cfg=None):
    """Solve g and a fresh copy of it through the linearize-every-trial
    loop (oracles.py): the same report and estimates bit for bit.
    Returns g's report."""
    old = _fresh_copy(g)
    want = linearize_every_trial_optimize(old, cfg, fix_poses=fix_poses)
    got = g.optimize(cfg, fix_poses=fix_poses)
    assert _report_bits(got) == _report_bits(want)
    assert _estimate_bits(g) == _estimate_bits(old)
    return got


def _solve_like_fresh(g, fix_poses, cfg=None):
    """Solve g, a fresh copy of g, and another fresh copy through the
    linearize-every-trial loop (oracles.py): the same chain rows, and
    the same report and estimates bit for bit, or the same error with
    g's estimates unchanged."""
    fresh = _fresh_copy(g)
    assert _chain_bits(g) == _chain_bits(fresh)
    try:
        want = fresh.optimize(cfg, fix_poses=fix_poses)
    except SingularSystemError as exc:
        estimates = _estimate_bits(g)
        for solve in (g.optimize, partial(linearize_every_trial_optimize, _fresh_copy(g))):
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                solve(cfg, fix_poses=fix_poses)
        assert _estimate_bits(g) == estimates
        return
    got = _solve_like_old_loop(g, fix_poses, cfg)
    assert _report_bits(got) == _report_bits(want)
    assert _estimate_bits(g) == _estimate_bits(fresh)


class TestKeptLayout:
    """The graph keeps its chain's stacked rows, each appended when its
    factor is added, between solves; every solve must equal that of a
    fresh graph whose rows are stacked from the same factors in one go,
    bit for bit, and so must the linearize-every-trial loop's on another
    fresh copy."""

    CFG = OptimizerConfig(max_iterations=15)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_interleavings_match_a_fresh_build(self, seed):
        rng = np.random.default_rng(seed)
        truth, points = _circle_scene(n_poses=40, n_landmarks=6)
        # truth index k is pose id k; the chain grows at its end from
        # pose 0, hi being its last pose
        hi = 0
        obs_info = np.eye(2) / 16.0
        g = PoseGraph(K)
        g.add_prior(0, truth[0].retract(rng.normal(scale=0.01, size=6)))
        if seed % 2:
            # the other half starts from three poses, not one
            for _ in range(2):
                hi += 1
                g.add_odometry(hi - 1, hi, truth[hi - 1].inverse().compose(truth[hi]))
        for lid in range(3):
            k = int(rng.integers(0, hi + 1))
            g.add_observation(k, lid, _pixel_of(truth[k], points[lid]),
                              obs_info, landmark_position=points[lid] + 0.05)
        _solve_like_fresh(g, False, self.CFG)
        next_lid = 3
        for _ in range(60):
            op = rng.choice(["grow", "observe", "merge", "solve"], p=[0.35, 0.3, 0.1, 0.25])
            if op == "grow" and hi < len(truth) - 1:
                noise = _random_pose(rng, 0.01, 0.01)
                hi += 1
                g.add_odometry(hi - 1, hi,
                               truth[hi - 1].inverse().compose(truth[hi]).compose(noise))
            elif op == "observe":
                k = int(rng.integers(0, hi + 1))
                lid = int(rng.choice(list(g.landmarks)))
                point = points[lid % len(points)]
                g.add_observation(k, lid,
                                  _pixel_of(truth[k], point) + rng.normal(scale=2.0, size=2),
                                  obs_info)
            elif op == "merge" and len(g.landmarks) > 1:
                old, kept = rng.choice(sorted(g.landmarks), size=2, replace=False)
                if rng.random() < 0.3:
                    # merging into an id the graph does not hold renames
                    kept, next_lid = next_lid, next_lid + 1
                g.merge_landmarks(int(old), int(kept))
            elif op == "solve":
                _solve_like_fresh(g, bool(rng.random() < 0.25), self.CFG)
        _solve_like_fresh(g, False, self.CFG)

        # a loop closure would leave the band: it is rejected when it is
        # added, and the rows stacked before solve on
        with pytest.raises(UnknownNodeError):
            g.add_odometry(hi, 0, truth[hi].inverse().compose(truth[0]))
        _solve_like_fresh(g, True, self.CFG)
        _solve_like_fresh(g, False, self.CFG)

    def test_chain_rows_hold_the_factors_bits(self):
        g = _drift_biased_circle(n_poses=5)
        info = np.diag([1e4, 2e4, 3e4, 4e4, 5e4, 6e4])
        g.add_odometry(4, 5, Pose.exp(np.array([0.1, 0.0, 0.0, 0.0, 0.0, 0.2])), info)
        chain = [(g.prior.pose, g.prior.information)]
        chain += [(f.rel, f.information) for f in g.odometry]
        assert len(g._chain_q.rows) == len(g.poses) == len(chain) == 6
        for rows, want in ((g._chain_q, [z.rotation for z, _ in chain]),
                           (g._chain_t, [z.translation for z, _ in chain]),
                           (g._chain_info, [w for _, w in chain])):
            _assert_same_bits(rows.rows, np.array(want))
        before = _chain_bits(g)
        for from_id, to_id in ((4, 5), (5, 7), (5.0, 6)):
            with pytest.raises(UnknownNodeError):
                g.add_odometry(from_id, to_id, Pose.identity())
        with pytest.raises(ValueError, match="information must have shape"):
            g.add_odometry(5, 6, Pose.identity(), np.ones(6))
        assert _chain_bits(g) == before
        assert len(g.odometry) == len(g.poses) - 1 == 5
        # a pose that composes to a non-finite estimate is rejected too
        far = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([1e308, 0.0, 0.0]))
        g = PoseGraph(K)
        g.add_prior(0, far)
        before = _chain_bits(g)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            g.add_odometry(0, 1, far)
        assert _chain_bits(g) == before and len(g.poses) == 1

    def test_one_pose_graph_grows_into_a_chain(self):
        # the band has kd 11 from one pose on: each step matches the
        # sparse-LU reference as the chain grows
        poses, landmarks = _circle_scene()
        g = PoseGraph(K)
        g.add_prior(0, poses[0])
        for lid, point in enumerate(landmarks[:3]):
            g.add_observation(0, lid, _pixel_of(poses[0], point) + 2.0, np.eye(2) / 16.0,
                              landmark_position=point)
        g.poses[0] = g.poses[0].retract(np.full(6, 1e-3))
        _assert_same_step(*_damped_steps(g))
        _solve_like_fresh(g, False)
        g.add_odometry(0, 1, poses[0].inverse().compose(poses[1]))
        g.add_observation(1, 0, _pixel_of(poses[1], landmarks[0]) - 2.0, np.eye(2) / 16.0)
        _assert_same_step(*_damped_steps(g))
        _solve_like_fresh(g, False)
        g.add_odometry(1, 2, poses[1].inverse().compose(poses[2]))
        _solve_like_fresh(g, False)

    def test_a_landmark_that_can_escape_behind_its_camera(self):
        g, _ = _one_pose_graph()
        # a pixel 250 px left of the image centre and a landmark 0.1 m
        # right of the optical axis per metre of depth: the first damped
        # steps can carry the landmark behind the camera, where its
        # factor deactivates
        g.add_observation(0, 1, np.array([70.0, 240.0]), _OBS_INFO,
                          landmark_position=np.array([0.2, 0.0, 2.0]))
        _solve_like_fresh(g, False)


_OBS_INFO = np.eye(2) / 16.0


def _one_pose_graph():
    """Pose 0 at the identity, solved once with one landmark 2 m ahead of
    it: world and camera frames coincide. Returns it and the report."""
    g = PoseGraph(K)
    g.add_prior(0, Pose.identity())
    g.add_observation(0, 0, np.array([320.0, 240.0]), _OBS_INFO,
                      landmark_position=np.array([0.0, 0.0, 2.0]))
    first = g.optimize()
    return g, first


class TestResidualOnlyTrials:
    """optimize scores each trial state by its residuals alone and runs
    the linear-system pass only on the states a damped step is taken
    from; the linearize-every-trial loop (oracles.py) is its reference,
    bit for bit. TestKeptLayout's solves are checked against it too."""

    def test_observation_behind_its_camera_at_the_start(self):
        g, poses, _ = _build_consistent_graph(perturb_scale=0.05, seed=3)
        # landmark 0 starts behind pose 0, which observes it; the solve
        # pulls it back in front
        g.landmarks[0] = poses[0].translation * 1.6
        assert _linearized(g)[-1] == 1
        report = _solve_like_old_loop(g)
        assert report.deactivated_observations == 0

    def test_fixed_poses(self):
        g, _, _ = _build_consistent_graph(perturb_scale=0.0, seed=2)
        rng = np.random.default_rng(2)
        for lid in g.landmarks:
            g.landmarks[lid] = g.landmarks[lid] + rng.normal(scale=0.3, size=3)
        report = _solve_like_old_loop(g, fix_poses=True)
        assert report.iterations > 1

    def test_a_first_observation_behind_its_camera_stays_deactivated(self):
        g, first = _one_pose_graph()
        behind = np.array([0.1, 0.0, -2.0])
        g.add_observation(0, 1, np.array([320.0, 240.0]), _OBS_INFO,
                          landmark_position=behind)
        report = _solve_like_old_loop(g)
        assert report.deactivated_observations == first.deactivated_observations + 1
        assert g.landmarks[1].tobytes() == behind.tobytes()

    def test_one_linear_system_per_state_a_step_is_taken_from(self, monkeypatch):
        g, _, _ = _build_consistent_graph(perturb_scale=0.4, seed=3)
        assert _linearized(g)[-1] == 3
        callers = []
        linear_system = PoseGraph._linear_system
        monkeypatch.setattr(PoseGraph, "_linear_system",
                            lambda self, *args: (callers.append(self),
                                                 linear_system(self, *args))[1])
        report = _solve_like_old_loop(g, cfg=OptimizerConfig(min_rel_decrease=1e-6))
        # k accepted steps are taken from the initial state and the k - 1
        # accepted states before the last, whose rel_decrease stop takes
        # none; the rejected trials add no call. The old loop makes one
        # call per state it reaches.
        assert report.stop_reason == "rel_decrease"
        assert report.steps > report.iterations > 1
        assert callers.count(g) == report.iterations
        assert len(callers) - report.iterations == 1 + report.steps


def _random_band_system(rng, n_poses, starts):
    """A damped chain system of the solver's shape: the lower band of a
    symmetric positive definite block-tridiagonal A of 6-dof poses (kd
    11, Fortran order), [g_pose | B] with landmark k's three columns zero
    above row starts[k] and sparse below it, C with a positive definite
    Schur complement, and g_lm. Returns them with the dense matrix."""
    p, kd = 6 * n_poses, 11
    a = np.zeros((p, p))
    for i in range(p):
        lo = max(0, i - kd)
        a[i, lo:i] = rng.normal(scale=0.3, size=i - lo)
    a += a.T + np.diag(rng.uniform(4.0, 8.0, p))
    band = np.zeros((kd + 1, p), order="F")
    for d in range(kd + 1):
        band[d, :p - d] = np.diagonal(a, -d)
    m = 3 * len(starts)
    b = np.zeros((p, m))
    for k, s in enumerate(starts):
        # observing poses: the first at s, then a random few after it
        rows = [s // 6] + [r for r in range(s // 6 + 1, n_poses) if rng.random() < 0.3]
        for r in rows:
            b[6 * r:6 * r + 6, 3 * k:3 * k + 3] = rng.normal(size=(6, 3))
    gb = np.asfortranarray(np.column_stack([rng.normal(size=p), b]))
    s_rand = rng.normal(size=(m, m))
    c = b.T @ np.linalg.solve(a, b) + s_rand @ s_rand.T + np.eye(m)
    return band, gb, c, rng.normal(size=m), np.block([[a, b], [b.T, c]])


class TestFirstPoseForwardSolve:
    """solve_chain_schur forward-solves every column of [g_pose | B] over
    every row in one call. A landmark's border columns are zero above the
    row of its first observing pose, and the forward solve from that row
    (oracles.py) must equal the solve over every row bit for bit."""

    N_POSES = 30

    @pytest.mark.parametrize("starts", [
        [0, 0, 0],  # every landmark seen from the first pose
        [42, 96, 150],  # interior starts
        [0, 66, 6 * (N_POSES - 1)],  # the last landmark first seen at the last pose
        [60, 60, 60, 12, 12],  # landmarks sharing a start
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_the_all_rows_solve(self, starts, seed):
        rng = np.random.default_rng(seed)
        band, gb, c, g_lm, full = _random_band_system(rng, self.N_POSES, starts)
        got = posegraph.solve_chain_schur(band.copy(order="F"), gb, c.copy(), g_lm)
        want = first_pose_forward_solve(band.copy(order="F"), gb, c.copy(), g_lm, starts)
        assert got.tobytes() == want.tobytes()
        rhs = np.concatenate([gb[:, 0], g_lm])
        np.testing.assert_allclose(got, np.linalg.solve(full, -rhs), rtol=1e-9, atol=1e-12)

    def test_not_positive_definite_returns_none(self):
        rng = np.random.default_rng(5)
        starts = np.array([24, 90])
        band, gb, c, g_lm, _ = _random_band_system(rng, self.N_POSES, starts)
        for solve in (posegraph.solve_chain_schur, partial(first_pose_forward_solve,
                                                            starts=starts)):
            indefinite = band.copy(order="F")
            indefinite[0, 40] = -1.0
            assert solve(indefinite, gb, c.copy(), g_lm) is None
            # C - B^T A^-1 B is not positive definite
            assert solve(band.copy(order="F"), gb, np.zeros_like(c), g_lm) is None

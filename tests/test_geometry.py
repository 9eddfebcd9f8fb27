"""Geometry tests: pinhole back-projection, pose algebra, cloud bounds.

Expected values are computed by hand from the pinhole model
    u = fx * x / z + cx,  v = fy * y / z + cy
with poses acting as p_world = R @ p_cam + t.
"""

import math

import numpy as np
import pytest

from oracles import (
    _skew,
    pinhole_uv,
    rowwise_bounds,
    rowwise_extent,
    scalar_compose,
    scalar_inverse,
    scalar_quat_conjugate,
    scalar_quat_from_rotvec,
    scalar_quat_mul,
    scalar_quat_normalize,
    scalar_quat_to_matrix,
    scalar_rotvec_from_quat,
)

from semmap.errors import EmptyCloudError, NonPositiveDepthError
from semmap.geometry import (
    CameraIntrinsics,
    Pixel,
    PointCloud,
    Pose,
    Trajectory,
    backproject,
    compose,
    inverse,
    quat_conjugate,
    quat_from_rotvec,
    quat_mul,
    quat_normalize,
    quat_to_matrix,
    relative_poses,
    rotvec_from_quat,
    skew,
    unit_pose,
)
from semmap.simulator import (
    desk_preset,
    drift_odometry,
    ground_truth_trajectory,
    walking_preset,
)


def _k():
    return CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


def _random_pose(rng):
    rv = rng.normal(0.0, 0.6, 3)
    t = rng.normal(0.0, 2.0, 3)
    return Pose(quat_from_rotvec(rv), t)


class TestBackprojection:
    def test_principal_point(self):
        p = backproject(Pixel(320.0, 240.0), 2.0, Pose.identity(), _k())
        np.testing.assert_allclose(p, [0.0, 0.0, 2.0], atol=1e-12)

    def test_translation_moves_result(self):
        pose = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([3.0, 0.0, 0.0]))
        p = backproject(Pixel(320.0, 240.0), 2.0, pose, _k())
        np.testing.assert_allclose(p, [3.0, 0.0, 2.0], atol=1e-12)

    def test_nonpositive_depth_raises(self):
        with pytest.raises(NonPositiveDepthError):
            backproject(Pixel(320.0, 240.0), 0.0, Pose.identity(), _k())
        with pytest.raises(NonPositiveDepthError):
            backproject(Pixel(320.0, 240.0), -1.0, Pose.identity(), _k())

    def test_roundtrip_random_poses(self):
        # project then backproject at the true camera depth must return
        # the input point; 100 random pose/point pairs
        rng = np.random.default_rng(7)
        k = _k()
        for _ in range(100):
            pose = _random_pose(rng)
            p_cam = np.array(
                [rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 20.0)]
            )
            p_world = pose.transform(p_cam)
            px = pinhole_uv(p_world, pose, k)
            back = backproject(px, p_cam[2], pose, k)
            np.testing.assert_allclose(back, p_world, atol=1e-9)


class TestPose:
    def test_compose_inverse_is_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            pose = _random_pose(rng)
            ident = pose.compose(pose.inverse())
            np.testing.assert_allclose(ident.translation, np.zeros(3), atol=1e-12)
            assert abs(abs(ident.rotation[0]) - 1.0) < 1e-12

    def test_quaternion_norm_preserved_under_long_chains(self):
        rng = np.random.default_rng(13)
        pose = Pose.identity()
        for _ in range(1000):
            pose = pose.compose(_random_pose(rng))
            assert abs(np.linalg.norm(pose.rotation) - 1.0) < 1e-9

    def test_transform_matches_matrix_form(self):
        rng = np.random.default_rng(17)
        pose = _random_pose(rng)
        pts = rng.normal(size=(20, 3))
        expected = pts @ quat_to_matrix(pose.rotation).T + pose.translation
        np.testing.assert_allclose(pose.transform(pts), expected, atol=1e-12)

    def test_exp_log_roundtrip(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            xi = rng.normal(0, 0.8, 6)
            pose = Pose.exp(xi)
            log = np.concatenate([pose.translation, rotvec_from_quat(pose.rotation)])
            np.testing.assert_allclose(log, xi, atol=1e-9)

    def test_rotvec_quat_roundtrip(self):
        # log returns the principal branch, so only angles < pi roundtrip
        rng = np.random.default_rng(23)
        for _ in range(100):
            axis = rng.normal(0, 1.0, 3)
            axis /= np.linalg.norm(axis)
            rv = rng.uniform(0.0, math.pi - 1e-6) * axis
            np.testing.assert_allclose(rotvec_from_quat(quat_from_rotvec(rv)), rv, atol=1e-9)
        # small angle branch
        rv = np.array([1e-14, -2e-14, 0.0])
        np.testing.assert_allclose(rotvec_from_quat(quat_from_rotvec(rv)), rv, atol=1e-12)

    def test_quat_mul_matches_matrix_product(self):
        rng = np.random.default_rng(29)
        qa = quat_from_rotvec(rng.normal(0, 1, 3))
        qb = quat_from_rotvec(rng.normal(0, 1, 3))
        np.testing.assert_allclose(
            quat_to_matrix(quat_mul(qa, qb)),
            quat_to_matrix(qa) @ quat_to_matrix(qb),
            atol=1e-12,
        )



def _quats(rng, n=200):
    q = rng.normal(size=(n, 4))
    q[::5, 0] = -np.abs(q[::5, 0])  # w < 0: rotvec_from_quat flips the sign
    q[1::7, 1:] *= 1e-13  # near the identity: the small-angle branch
    # signed zeros: the identity, its negation (w < 0 flips every zero)
    # and a half turn whose w = -0.0 is not flipped
    q[2:5] = [[1.0, -0.0, 0.0, -0.0], [-1.0, 0.0, -0.0, 0.0], [-0.0, 0.0, -1.0, 0.0]]
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def _rotvecs(rng, n=200):
    rv = rng.normal(size=(n, 3)) * rng.uniform(0.0, 3.0, size=(n, 1))
    rv[1::7] *= 1e-13  # the small-angle series
    rv[3] = 0.0
    return rv


# op, its scalar formula in oracles.py, and a draw of stacked arguments
_STACKED_OPS = {
    "quat_mul": (quat_mul, scalar_quat_mul, lambda rng: (_quats(rng), _quats(rng))),
    "quat_conjugate": (quat_conjugate, scalar_quat_conjugate, lambda rng: (_quats(rng),)),
    "quat_normalize": (quat_normalize, scalar_quat_normalize,
                       lambda rng: (3.0 * _quats(rng),)),
    "quat_to_matrix": (quat_to_matrix, scalar_quat_to_matrix, lambda rng: (_quats(rng),)),
    "quat_from_rotvec": (quat_from_rotvec, scalar_quat_from_rotvec,
                         lambda rng: (_rotvecs(rng),)),
    "rotvec_from_quat": (rotvec_from_quat, scalar_rotvec_from_quat,
                         lambda rng: (_quats(rng),)),
    "skew": (skew, _skew, lambda rng: (rng.normal(size=(200, 3)),)),
}


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(_STACKED_OPS))
def test_stacked_op_matches_scalar_formula(name):
    """One item gives the scalar formula's bits; row i of a stack gives
    the bits of item i alone."""
    op, scalar, draw = _STACKED_OPS[name]
    args = draw(np.random.default_rng(31))
    stacked = op(*args)
    assert len(stacked) == len(args[0])
    for i in range(len(args[0])):
        one = op(*(a[i] for a in args))
        assert _same_bits(one, scalar(*(a[i] for a in args))), i
        assert _same_bits(stacked[i], one), i


def _pose_rows(rng, n=200):
    """_quats' rotations (w < 0, near the identity, the identity and its
    negation) with translations of all sizes, zero among them."""
    t = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1))
    t[2] = 0.0
    return _quats(rng, n), t


class TestPoseRowOps:
    """compose and inverse give Pose's formulas of oracles.py bit for
    bit, on one row and on every row of a stack, and Pose's
    ValueError where the translation is not finite."""

    @staticmethod
    def _check(op, oracle, args):
        stacked = op(*args)
        for i in range(len(args[0])):
            row = [a[i] for a in args]
            one = op(*row)
            for got, got_one, want in zip(stacked, one, oracle(*row)):
                assert _same_bits(got_one, want), i
                assert _same_bits(got[i], got_one), i

    def test_compose_matches_pose_formula(self):
        rng = np.random.default_rng(41)
        self._check(compose, scalar_compose, (*_pose_rows(rng), *_pose_rows(rng)))

    def test_inverse_matches_pose_formula(self):
        self._check(inverse, scalar_inverse, _pose_rows(np.random.default_rng(43)))

    def test_pose_methods_hold_the_rows(self):
        rng = np.random.default_rng(47)
        (qa, ta), (qb, tb) = _pose_rows(rng, 20), _pose_rows(rng, 20)
        for i in range(20):
            a, b = Pose(qa[i], ta[i]), Pose(qb[i], tb[i])
            got = a.compose(b)
            want = scalar_compose(a.rotation, a.translation, b.rotation, b.translation)
            assert _same_bits(got.rotation, want[0]) and _same_bits(got.translation, want[1])
            got = a.inverse()
            want = scalar_inverse(a.rotation, a.translation)
            assert _same_bits(got.rotation, want[0]) and _same_bits(got.translation, want[1])

    def test_overflowing_translation_raises_like_pose(self):
        # an eighth of a turn about z rotates (a, a, 0) to a length
        # sqrt(2) a along an axis, past the largest float
        eighth = np.array([math.cos(math.pi / 8), 0.0, 0.0, math.sin(math.pi / 8)])
        big = np.array([1.7e308, 1.7e308, 0.0])
        with np.errstate(over="ignore"):
            for q, t in [(eighth, big), (eighth[None], big[None])]:
                with pytest.raises(ValueError, match="finite"):
                    compose(q, t, q, t)
                with pytest.raises(ValueError, match="finite"):
                    inverse(q, t)


def _bounds_cases():
    """Clouds on which bounds and extent must keep the row-wise bytes."""
    rng = np.random.default_rng(107)
    cases = {f"random_{n}": rng.normal(size=(n, 3)) for n in (2, 9, 17, 2227)}
    cases["one_point"] = np.array([[1.5, -2.0, 0.25]])
    cases["far_from_origin"] = 1e12 + rng.normal(size=(300, 3))
    cases["far_negative"] = -1e300 * rng.uniform(0.5, 1.0, size=(40, 3))
    # a zero bound's sign depends on the reduction order; these sizes
    # and seeds give the column form a different sign than the rows
    for n in (9, 17, 33, 100):
        for seed in range(4):
            pts = np.random.default_rng(seed).normal(size=(n, 3))
            pts[:, 1] = np.random.default_rng(seed).choice([-0.0, 0.0], size=n)
            cases[f"signed_zeros_{n}_{seed}"] = pts
    half = rng.uniform(0.0, 1.0, size=(33, 3))
    half[::3, 2] = -0.0
    half[1::3, 2] = 0.0
    cases["zero_minimum"] = half
    return [pytest.param(pts, id=name) for name, pts in cases.items()]


class TestCloudBounds:
    @pytest.mark.parametrize("pts", _bounds_cases())
    def test_bounds_keep_rowwise_bytes(self, pts):
        lo, hi = PointCloud(pts).bounds()
        want_lo, want_hi = rowwise_bounds(pts)
        assert lo.tobytes() == want_lo.tobytes()
        assert hi.tobytes() == want_hi.tobytes()

    @pytest.mark.parametrize("pts", _bounds_cases())
    def test_extent_keeps_rowwise_bytes(self, pts):
        assert PointCloud(pts).extent().tobytes() == rowwise_extent(pts).tobytes()

    @pytest.mark.parametrize("method", ["bounds", "extent"])
    def test_empty_cloud_raises(self, method):
        with pytest.raises(EmptyCloudError):
            getattr(PointCloud(np.zeros((0, 3))), method)()


class TestTrajectory:
    def test_nonmonotone_stamps_rejected(self):
        with pytest.raises(ValueError):
            Trajectory([0.0, 0.0], [Pose.identity(), Pose.identity()])


def _poses_bits(poses):
    return [(p.rotation.tobytes(), p.translation.tobytes()) for p in poses]


def _steps(poses):
    q = np.stack([p.rotation for p in poses])
    return relative_poses(q, np.stack([p.translation for p in poses]))


def _oracle_steps(poses):
    """a.inverse().compose(b) by Pose's formulas, pair by pair."""
    return [unit_pose(*scalar_compose(*scalar_inverse(a.rotation, a.translation),
                                      b.rotation, b.translation))
            for a, b in zip(poses, poses[1:])]


class TestRelativePoses:
    """The stacked relative odometry against inverse().compose() by
    Pose's formulas, one pair of poses at a time: the same bits."""

    @pytest.mark.parametrize("preset", [desk_preset, walking_preset])
    def test_matches_inverse_compose_on_drifting_odometry(self, preset):
        world, noise = preset(seed=3)
        poses = drift_odometry(ground_truth_trajectory(world), noise).poses
        assert _poses_bits(_steps(poses)) == _poses_bits(_oracle_steps(poses))

    def test_matches_across_quaternion_sign_flips(self):
        rng = np.random.default_rng(42)
        poses = [_random_pose(rng) for _ in range(300)]
        # q and -q are the same rotation; every third pose stores -q
        poses = [Pose(-p.rotation, p.translation) if i % 3 == 0 else p
                 for i, p in enumerate(poses)]
        assert sum(p.rotation[0] < 0.0 for p in poses) >= 50
        assert _poses_bits(_steps(poses)) == _poses_bits(_oracle_steps(poses))

    def test_overflowing_step_raises_like_pose(self):
        # half a turn about z maps the first translation's -1e308 onto
        # +1e308, and the second pose adds another 1e308
        half_turn = Pose(np.array([0.0, 0.0, 0.0, 1.0]), np.array([1e308, 0.0, 0.0]))
        poses = [half_turn, Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([-1e308, 0.0, 0.0]))]
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="finite"):
                poses[0].inverse().compose(poses[1])
            with pytest.raises(ValueError, match="finite"):
                _steps(poses)

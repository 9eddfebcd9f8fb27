"""Rigid transforms, pinhole back-projection and point cloud primitives.

Conventions used across the package:

* quaternions are stored (w, x, y, z) and kept at unit norm
* a Pose maps camera-frame coordinates into the world frame:
  p_world = R @ p_cam + t, so the camera center expressed in the world
  frame is exactly t
* pixels are continuous image coordinates, u along width, v along height
* the pinhole model is u = fx * x / z + cx, v = fy * y / z + cy with
  (x, y, z) in the camera frame and z > 0 in front of the camera
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import EmptyCloudError, NonPositiveDepthError


class Pixel(NamedTuple):
    u: float
    v: float


# ----------------------------------------------------------------------
# quaternion helpers, (w, x, y, z) order. Each works over the last axis,
# so it takes one quaternion (4,) or a stack (n, 4); a row of a stack
# gets the same bits as that row alone. .T unpacks the components along
# the last axis, and .T stacks them back.
# ----------------------------------------------------------------------

def _sq_norm(v: np.ndarray) -> np.ndarray:
    """Squared norm over the last axis. vecdot reduces each contiguous
    row with the same BLAS dot np.dot uses on a single vector."""
    v = np.ascontiguousarray(v)
    return np.vecdot(v, v)


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix [v]x: (3,) -> (3, 3), (n, 3) -> (n, 3, 3)."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = np.asarray(a, dtype=float).T
    bw, bx, by, bz = np.asarray(b, dtype=float).T
    out = np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )
    return np.ascontiguousarray(out.T)


_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    return np.asarray(q, dtype=float) * _CONJUGATE


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = np.sqrt(_sq_norm(q))
    ok = (n > 0.0) & (n < math.inf)
    # one quaternion's flag is a numpy bool, whose .all() is slow
    if not (ok.all() if ok.ndim else ok):
        raise ValueError("cannot normalize zero or non-finite quaternion")
    return q / n[..., None]


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix: (4,) -> (3, 3), (n, 4) -> (n, 3, 3)."""
    w, x, y, z = np.asarray(q, dtype=float).T
    m = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    return np.ascontiguousarray(m.T.swapaxes(-1, -2))


def quat_from_matrix(r: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) from a rotation matrix.

    Branches on the largest diagonal combination for numerical safety
    near 180 degree rotations.
    """
    r = np.asarray(r, dtype=float)
    t = np.trace(r)
    if t > 0:
        s = math.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s,
             (r[1, 0] - r[0, 1]) / s]
        )
    elif r[0, 0] > r[1, 1] and r[0, 0] > r[2, 2]:
        s = math.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
        q = np.array(
            [(r[2, 1] - r[1, 2]) / s, 0.25 * s, (r[0, 1] + r[1, 0]) / s,
             (r[0, 2] + r[2, 0]) / s]
        )
    elif r[1, 1] > r[2, 2]:
        s = math.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2]) * 2.0
        q = np.array(
            [(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, 0.25 * s,
             (r[1, 2] + r[2, 1]) / s]
        )
    else:
        s = math.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1]) * 2.0
        q = np.array(
            [(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s,
             (r[1, 2] + r[2, 1]) / s, 0.25 * s]
        )
    return quat_normalize(q)


def quat_from_rotvec(rv: np.ndarray) -> np.ndarray:
    """Unit quaternion of a rotation vector: (3,) -> (4,), (n, 3) -> (n, 4)."""
    rv = np.asarray(rv, dtype=float)
    angle = np.sqrt(_sq_norm(rv))
    small = angle < 1e-12
    x, y, z = rv.T / np.where(small, 1.0, angle).T
    s = np.sin(angle / 2.0)
    q = np.array([np.cos(angle / 2.0), s * x, s * y, s * z]).T
    # second order series of sin(a/2)/a keeps this smooth through zero
    x, y, z = (0.5 - angle * angle / 48.0).T * rv.T
    near = np.array([np.ones_like(x), x, y, z]).T
    near = near / np.sqrt(_sq_norm(near))[..., None]
    return np.ascontiguousarray(np.where(small[..., None], near, q))


def rotvec_from_quat(q: np.ndarray) -> np.ndarray:
    """Rotation vector with angle in [0, pi]: (4,) -> (3,), (n, 4) -> (n, 3)."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = np.where(q[..., :1] < 0.0, -q, q).T  # keep the angle in [0, pi]
    sin_half = np.sqrt(x * x + y * y + z * z)
    small = sin_half < 1e-12
    # numpy's vectorized arctan2 differs from the C library's in the last
    # bit on some inputs; rotations keep the C library's
    angle = 2.0 * np.fromiter(
        map(math.atan2, sin_half.ravel().tolist(), w.ravel().tolist()),
        float, sin_half.size,
    ).reshape(sin_half.shape)
    scale = np.where(small, 2.0, angle / np.where(small, 1.0, sin_half))
    return np.ascontiguousarray((scale * np.array([x, y, z])).T)


# ----------------------------------------------------------------------
# pose
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Pose:
    """Rigid transform taking camera-frame points to the world frame.

    The tangent parameterization used by `exp`/`log`/`retract` is the
    composite (translation, rotation-vector) pair: exp([rho, phi]) is the
    pose with rotation exp(phi^) and translation rho. Retraction is a
    right multiplication, pose * exp(delta).
    """

    rotation: np.ndarray  # unit quaternion (w, x, y, z)
    translation: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.rotation, dtype=float).reshape(4)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(t))):
            raise ValueError("pose fields must be finite")
        q = quat_normalize(q)
        object.__setattr__(self, "rotation", q)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))

    @staticmethod
    def exp(xi: np.ndarray) -> "Pose":
        xi = np.asarray(xi, dtype=float).reshape(6)
        return Pose(quat_from_rotvec(xi[3:]), xi[:3].copy())

    def compose(self, other: "Pose") -> "Pose":
        q = quat_normalize(quat_mul(self.rotation, other.rotation))
        t = self.translation + quat_to_matrix(self.rotation) @ other.translation
        return Pose(q, t)

    def inverse(self) -> "Pose":
        qc = quat_conjugate(self.rotation)
        return Pose(qc, -(quat_to_matrix(qc) @ self.translation))

    def retract(self, delta: np.ndarray) -> "Pose":
        return self.compose(Pose.exp(delta))

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.rotation)

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Apply to camera-frame points; accepts shape (3,) or (N, 3)."""
        pts = np.asarray(points, dtype=float)
        r = quat_to_matrix(self.rotation)
        if pts.ndim == 1:
            return r @ pts + self.translation
        return pts @ r.T + self.translation


def unit_pose(q: np.ndarray, t: np.ndarray) -> Pose:
    """A Pose holding q and t as given, without renormalizing q. q is a
    row of quat_normalize's output, which is exactly what Pose stores
    for the quaternion it normalized; normalizing again could move the
    last bit."""
    pose = object.__new__(Pose)
    object.__setattr__(pose, "rotation", q)
    object.__setattr__(pose, "translation", t)
    return pose


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(n, 3, 3) @ (n, 3) row by row, each with the bits of m[i] @ v[i];
    one (3, 3) m multiplies every row."""
    return np.matmul(m, v[:, :, None])[:, :, 0]


def relative_motion(q: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quaternions (n - 1, 4) and translations (n - 1, 3) of
    `poses[i - 1].inverse().compose(poses[i])` for i = 1 .. n - 1 of the
    poses with unit quaternions q (n, 4) and translations t (n, 3), in
    one stacked pass with that expression's bits: inverse() rotates by
    the conjugate before Pose normalizes it, and compose() normalizes
    the product, which Pose then normalizes once more. Raises ValueError
    where a step's translation is not finite, as Pose would."""
    qc = quat_conjugate(q[:-1])
    t_inv = -matvec(quat_to_matrix(qc), t[:-1])
    q_inv = quat_normalize(qc)
    q_rel = quat_normalize(quat_normalize(quat_mul(q_inv, q[1:])))
    t_rel = t_inv + matvec(quat_to_matrix(q_inv), t[1:])
    if not np.isfinite(t_rel).all():
        raise ValueError("pose fields must be finite")
    return q_rel, t_rel


def relative_poses(q: np.ndarray, t: np.ndarray) -> list[Pose]:
    """relative_motion's steps as Poses that hold its rows."""
    return [unit_pose(a, b) for a, b in zip(*relative_motion(q, t))]


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")


# ----------------------------------------------------------------------
# point clouds
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray  # (N, 3) float64, world frame

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("cloud points must have shape (N, 3)")
        if not np.all(np.isfinite(pts)):
            raise ValueError("cloud points must be finite")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    def extent(self) -> np.ndarray:
        """Per-axis span of the axis-aligned bounding box."""
        if len(self) == 0:
            raise EmptyCloudError("extent of empty cloud")
        lo, hi = column_bounds(self.points)
        return hi - lo

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        if len(self) == 0:
            raise EmptyCloudError("bounds of empty cloud")
        return column_bounds(self.points)


def column_bounds(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis (min, max) of a non-empty (N, 3) array, with the bytes of
    `points.min(axis=0), points.max(axis=0)`.

    The reductions run over contiguous columns: an axis-0 reduction of a
    C-ordered (N, 3) array runs a 3-wide inner loop, about ten times
    slower. min and max select one of the values, so the order of the
    reduction cannot change a bound, except for the sign of a zero.
    When a bound is zero the row-wise reductions decide it. Not for sums
    or means: a contiguous row is summed pairwise, which changes bits.
    """
    cols = np.ascontiguousarray(points.T)
    lo = cols.min(axis=1)
    hi = cols.max(axis=1)
    if not (lo.all() and hi.all()):
        return points.min(axis=0), points.max(axis=0)
    return lo, hi


# ----------------------------------------------------------------------
# back-projection
# ----------------------------------------------------------------------

def backproject(pixel: Pixel | Sequence[float], depth: float, pose: Pose,
                k: CameraIntrinsics) -> np.ndarray:
    """Lift a pixel at a known camera-frame depth back into the world."""
    if depth <= 0.0:
        raise NonPositiveDepthError(f"depth {depth} <= 0")
    u, v = float(pixel[0]), float(pixel[1])
    p_cam = np.array([(u - k.cx) * depth / k.fx, (v - k.cy) * depth / k.fy, depth])
    return pose.transform(p_cam)


# ----------------------------------------------------------------------
# timestamped trajectory
# ----------------------------------------------------------------------

class Trajectory:
    """Sequence of (timestamp, Pose), strictly increasing timestamps.

    Poses exist at the stamps only: the pipeline takes a detection's
    camera pose from the odometry row its frame id names.
    """

    def __init__(self, stamps: Sequence[float], poses: Sequence[Pose]):
        stamps = np.asarray(stamps, dtype=float)
        if stamps.ndim != 1 or len(stamps) != len(poses):
            raise ValueError("stamps and poses must have equal length")
        if len(stamps) > 1 and not np.all(np.diff(stamps) > 0):
            raise ValueError("timestamps must be strictly increasing")
        self.stamps = stamps
        self.poses = list(poses)

    @staticmethod
    def from_pairs(pairs: Sequence[tuple[float, Pose]]) -> "Trajectory":
        return Trajectory([p[0] for p in pairs], [p[1] for p in pairs])

    def __len__(self) -> int:
        return len(self.poses)

    def __iter__(self) -> Iterator[tuple[float, Pose]]:
        return iter(zip(self.stamps.tolist(), self.poses))

    def positions(self) -> np.ndarray:
        return np.array([p.translation for p in self.poses]).reshape(-1, 3)

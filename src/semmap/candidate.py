"""Landmark candidate generation: cloud extraction, motion gating, MAP
localization.

A promoted tracklet becomes a candidate in three steps. Each measurement
is lifted to a small world-frame cloud: a 5 x 5 x 3 grid of cell
centres filling the box frustum over a depth window around the range
hint. The tracklet's T views travel as stacks: one (T, 3, 3) rotation
stack per proposal serves extraction, the likelihood and the seed rays,
and the grids of all views are built and lifted to the camera frame in
one pass before each view's rotation moves its slice into the world.
The per-measurement cloud centroids feed a mean-absolute-deviation gate
that rejects moving objects: a static object re-observed from a moving
camera yields nearly coincident centroids, a walking person does not.
Surviving tracklets get a single 3D position by maximizing the
measurement likelihood

    ll(X) = sum_t [ -0.5 * (proj(X, pose_t) - z_t)^T S^-1 (proj(..) - z_t) ]
            + T * log norm const,   z_t = box center of measurement t,

seeded by midpoint triangulation of the box-center rays and refined by a
random-walk search that keeps the best sample seen. The walk scores a
block of proposals per call through a folded projection: the
intrinsics and each box center fold into three rows per view, so one
matrix product gives every residual numerator and depth (see
_LikelihoodEvaluator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BehindCameraError,
    EmptyCloudError,
    TooFewMeasurementsError,
)
from .geometry import (
    CameraIntrinsics,
    PointCloud,
    Pose,
    Trajectory,
    backproject,
    centroid,
    quat_to_matrix,
)
from .tracker import Measurement, Tracklet

# kept clouds must span at least this much so downstream gate radii and
# merge volumes stay positive even for single-point clouds
MIN_SIZE = 1e-3

# cells of the (u, v, depth) sample grid per box frustum slab, and the
# unit cell centres in meshgrid 'ij' row order (depth fastest), which
# voxel thinning's first-point-per-cell rule depends on
_GRID_COUNTS = np.array([5.0, 5.0, 3.0])
_GRID_UNIT = np.stack(np.meshgrid(*(np.arange(n) + 0.5 for n in (5, 5, 3)),
                                  indexing="ij"), axis=-1).reshape(-1, 3)


@dataclass(frozen=True)
class PixelNoiseModel:
    """Gaussian pixel noise on box centers, covariance in px^2."""

    covariance: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float).reshape(2, 2)
        if not np.allclose(cov, cov.T):
            raise ValueError("covariance must be symmetric")
        if np.any(np.linalg.eigvalsh(cov) <= 0):
            raise ValueError("covariance must be positive definite")
        object.__setattr__(self, "covariance", cov)

    @staticmethod
    def isotropic(sigma_px: float = 4.0) -> "PixelNoiseModel":
        return PixelNoiseModel(np.eye(2) * sigma_px * sigma_px)


@dataclass(frozen=True)
class RandomWalkConfig:
    """Random-walk refinement of the likelihood maximum.

    The walk proposes Gaussian steps of scale step_sigma from the
    current point and moves only on improvement, so the reported
    maximum never falls below the triangulation seed.
    """

    n_samples: int = 2000
    step_sigma: float = 0.05

    def __post_init__(self):
        if self.n_samples < 0:
            raise ValueError("n_samples must be non-negative")
        if self.step_sigma <= 0:
            raise ValueError("step_sigma must be positive")


@dataclass(frozen=True)
class CentroidEstimate:
    point: np.ndarray
    log_likelihood: float
    seed_point: np.ndarray
    low_confidence: bool


@dataclass(frozen=True)
class Candidate:
    """Validated tracklet with its views' stacked cloud and a localized
    centroid."""

    tracklet: Tracklet
    cloud: PointCloud
    map_centroid: np.ndarray  # (3,)
    size_estimate: float
    class_id: str

    def __post_init__(self):
        assert len(self.cloud) > 0
        assert self.size_estimate > 0
        assert np.all(np.isfinite(self.map_centroid))


@dataclass(frozen=True)
class Proposal:
    """Outcome of candidate validation for one promoted tracklet."""

    tracklet: Tracklet
    accepted: bool
    mad: float
    candidate: Candidate | None
    low_confidence: bool = False


# ----------------------------------------------------------------------
# cloud extraction
# ----------------------------------------------------------------------

def cuboid_half_depth(m: Measurement, k: CameraIntrinsics) -> float:
    """Half the metric width the box subtends at its range hint."""
    return 0.5 * m.box.width * m.depth_hint / k.fx


def _frustum_grid(ms: Sequence[Measurement], k: CameraIntrinsics) -> np.ndarray:
    """(T, 75, 3) (u, v, depth) cell centres filling each view's box
    frustum slab: per axis x_min + c * width / nu, evaluated in that
    order, with the depth axis spanning the range hint plus or minus
    cuboid_half_depth."""
    lo, span = [], []
    for m in ms:
        h = cuboid_half_depth(m, k)
        lo.append((m.box.x_min, m.box.y_min, m.depth_hint - h))
        span.append((m.box.width, m.box.height, 2.0 * h))
    # a half depth that overflows to inf gives NaN depths (-inf + inf),
    # which extraction drops
    with np.errstate(invalid="ignore"):
        return np.array(lo)[:, None] + _GRID_UNIT * np.array(span)[:, None] / _GRID_COUNTS


def _rotations(poses: Sequence[Pose]) -> np.ndarray:
    """(T, 3, 3) camera-to-world rotations of the views."""
    return quat_to_matrix(np.stack([p.rotation for p in poses]))


def extract_clouds(
    tracklet: Tracklet,
    poses: Sequence[Pose],
    k: CameraIntrinsics,
    rotations: np.ndarray | None = None,
) -> list[PointCloud]:
    """World-frame cloud per measurement from its frustum grid.

    Cell centres at or behind the camera (depth not above 0, which
    includes a depth that overflowed to NaN) are dropped; an exhausted
    measurement raises EmptyCloudError naming the first such frame.
    `rotations` is the views' rotation stack when the caller already
    has it.
    """
    ms = tracklet.measurements
    if len(poses) != len(ms):
        raise ValueError("one pose per measurement required")
    if not ms:
        return []
    grid = _frustum_grid(ms, k)
    keep = grid[..., 2] > 0
    kept = keep.sum(axis=1)
    if not kept.all():
        m = ms[int(np.argmin(kept))]
        raise EmptyCloudError(f"no samples survive the frustum of frame {m.frame_id}")
    raw = grid[keep]
    d = raw[:, 2]
    cam = np.column_stack([(raw[:, 0] - k.cx) * d / k.fx, (raw[:, 1] - k.cy) * d / k.fy, d])
    if rotations is None:
        rotations = _rotations(poses)
    ends = np.cumsum(kept).tolist()
    return [
        PointCloud(cam[start:end] @ r.T + pose.translation)
        for start, end, r, pose in zip([0] + ends[:-1], ends, rotations, poses)
    ]


def resolve_poses(tracklet: Tracklet, trajectory: Trajectory) -> list[Pose]:
    """Interpolated camera pose at each measurement timestamp."""
    return [trajectory.pose_at(m.timestamp) for m in tracklet.measurements]


# ----------------------------------------------------------------------
# dynamic object gate
# ----------------------------------------------------------------------

def mad_deviation(centroids: np.ndarray) -> float:
    """Norm of the per-axis mean absolute deviation of the centroids."""
    c = np.asarray(centroids, dtype=float).reshape(-1, 3)
    if c.shape[0] < 2:
        raise TooFewMeasurementsError("deviation needs at least 2 centroids")
    mad = np.abs(c - c.mean(axis=0)).mean(axis=0)
    return float(np.linalg.norm(mad))


# ----------------------------------------------------------------------
# likelihood and MAP estimate
# ----------------------------------------------------------------------

class _LikelihoodEvaluator:
    """Vectorized ll over query points for a fixed measurement set.

    The folded projection: with R_t the world-to-camera rotation, C_t
    the camera center and (u_t, v_t) the box center of view t, the rows

        a_t = fx R_t[0] + (cx - u_t) R_t[2]
        b_t = fy R_t[1] + (cy - v_t) R_t[2]
        c_t = R_t[2]

    give the pixel residuals as ru = a_t.(x - C_t) / c_t.(x - C_t) and
    rv = b_t.(x - C_t) / c_t.(x - C_t). All 3T rows sit in one (3, 3T)
    matrix with one offset each, so a single product yields every
    numerator and depth. Points are taken relative to the mean camera
    center, which bounds the cancellation far from the origin.
    `rotations` is the views' camera-to-world stack when the caller
    already has it.
    """

    def __init__(self, poses: Sequence[Pose], centers_px: np.ndarray,
                 k: CameraIntrinsics, noise: PixelNoiseModel,
                 rotations: np.ndarray | None = None):
        if rotations is None:
            rotations = _rotations(poses)
        world_to_cam = rotations.transpose(0, 2, 1)
        cam_centers = np.stack([p.translation for p in poses])
        centers_px = np.asarray(centers_px, dtype=float).reshape(-1, 2)
        rows = np.concatenate([
            k.fx * world_to_cam[:, 0] + (k.cx - centers_px[:, :1]) * world_to_cam[:, 2],
            k.fy * world_to_cam[:, 1] + (k.cy - centers_px[:, 1:]) * world_to_cam[:, 2],
            world_to_cam[:, 2],
        ])
        self.ref = cam_centers.mean(axis=0)
        self.rows_t = rows.T
        self.offsets = np.sum(rows * np.tile(cam_centers - self.ref, (3, 1)), axis=1)
        self.info = np.linalg.inv(noise.covariance)
        _, logdet = np.linalg.slogdet(noise.covariance)
        # 2D Gaussian: log(1 / sqrt((2 pi)^2 det)) per measurement
        self.log_norm = -0.5 * (2.0 * math.log(2.0 * math.pi) + logdet)
        self.count = len(poses)

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        """xs (m, 3) -> ll (m,); -inf where behind any camera."""
        xs = np.asarray(xs, dtype=float).reshape(-1, 3)
        proj = ((xs - self.ref) @ self.rows_t - self.offsets).reshape(-1, 3, self.count)
        num_u, num_v, z = proj[:, 0], proj[:, 1], proj[:, 2]
        # rows behind a camera may divide by zero or overflow; they are
        # overwritten with -inf below
        with np.errstate(all="ignore"):
            ru = num_u / z
            rv = num_v / z
            quad = (
                self.info[0, 0] * ru * ru
                + 2.0 * self.info[0, 1] * ru * rv
                + self.info[1, 1] * rv * rv
            )
            out = -0.5 * quad.sum(axis=1) + self.count * self.log_norm
        out[np.any(z <= 0.0, axis=1)] = -np.inf
        return out


def log_likelihood(
    x: np.ndarray,
    tracklet: Tracklet,
    poses: Sequence[Pose],
    k: CameraIntrinsics,
    noise: PixelNoiseModel,
) -> float:
    """Joint log-likelihood of a world point given the tracklet's boxes."""
    centers = np.array([m.box.center for m in tracklet.measurements])
    ll = _LikelihoodEvaluator(poses, centers, k, noise)(np.asarray(x).reshape(1, 3))[0]
    if not np.isfinite(ll):
        raise BehindCameraError("query point behind at least one camera")
    return float(ll)


def triangulate_midpoint(origins: np.ndarray, directions: np.ndarray) -> np.ndarray | None:
    """Least-squares intersection of rays; None when ill conditioned.

    Minimizes sum_t |(I - d_t d_t^T)(x - c_t)|^2 which reduces to the
    linear system (sum (I - d d^T)) x = sum (I - d d^T) c.
    """
    d = np.asarray(directions, dtype=float).reshape(-1, 3)
    ms = np.eye(3) - d[:, :, None] * d[:, None, :]
    mcs = np.matmul(ms, np.asarray(origins, dtype=float).reshape(-1, 3)[..., None])
    a = np.zeros((3, 3))
    b = np.zeros(3)
    for m, mc in zip(ms, mcs[..., 0]):  # view order fixes the rounding
        a += m
        b += mc
    w = np.linalg.eigvalsh(a)
    if w[0] < 1e-9:
        return None
    return np.linalg.solve(a, b)


def _hill_climb(x0, ll0, steps, evaluate):
    """First-improvement random walk, block-scanned.

    Evaluating a block of pending proposals from the current point is
    exactly the sequential rule: the point only changes at the first
    improving index, so proposals before it see the same state.
    """
    x = np.asarray(x0, dtype=float)
    llx = float(ll0)
    i = 0
    n = steps.shape[0]
    block = 64
    while i < n:
        j = min(n, i + block)
        cand = x + steps[i:j]
        lls = evaluate(cand)
        better = np.nonzero(lls > llx)[0]
        if better.size == 0:
            i = j
            block = min(block * 2, 1024)
        else:
            first = int(better[0])
            x = cand[first]
            llx = float(lls[first])
            i += first + 1
            block = 64
    return x, llx


def estimate_centroid(
    tracklet: Tracklet,
    poses: Sequence[Pose],
    k: CameraIntrinsics,
    noise: PixelNoiseModel,
    walk: RandomWalkConfig,
    run_seed: int,
    rotations: np.ndarray | None = None,
) -> CentroidEstimate:
    """MAP position of the object from its box centers.

    Seeds with midpoint triangulation of the box-center rays, then runs
    the random walk. With no baseline (all camera centers coincident)
    the depth is unobservable; the estimate falls back to the last
    measurement's back-projected range hint, flagged low confidence.
    The RNG stream is derived from (run_seed, tracklet.id) so results
    are reproducible per tracklet. `rotations` is the views' rotation
    stack when the caller already has it.
    """
    ms = tracklet.measurements
    if len(ms) < 2:
        raise TooFewMeasurementsError("localization needs >= 2 measurements")
    if rotations is None:
        rotations = _rotations(poses)
    centers = np.array([m.box.center for m in ms])
    evaluate = _LikelihoodEvaluator(poses, centers, k, noise, rotations)

    def fallback() -> CentroidEstimate:
        point = backproject(centers[-1], ms[-1].depth_hint, poses[-1], k)
        ll = float(evaluate(point.reshape(1, 3))[0])
        return CentroidEstimate(point, ll, point.copy(), low_confidence=True)

    origins = np.stack([p.translation for p in poses])
    span = origins.max(axis=0) - origins.min(axis=0)
    if float(np.linalg.norm(span)) < 1e-9:
        return fallback()

    rays_cam = np.column_stack(
        [
            (centers[:, 0] - k.cx) / k.fx,
            (centers[:, 1] - k.cy) / k.fy,
            np.ones(len(ms)),
        ]
    )
    dirs = np.matmul(rotations, rays_cam[..., None])[..., 0]
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    seed = triangulate_midpoint(origins, dirs)
    if seed is None:
        return fallback()

    ll_seed = float(evaluate(seed.reshape(1, 3))[0])
    if not np.isfinite(ll_seed):
        est = fallback()
        if not np.isfinite(est.log_likelihood):
            raise BehindCameraError("no finite-likelihood starting point")
        return est

    rng = np.random.default_rng((run_seed, tracklet.id))
    steps = rng.normal(0.0, walk.step_sigma, size=(walk.n_samples, 3))
    point, ll = _hill_climb(seed, ll_seed, steps, evaluate)
    assert ll >= ll_seed
    return CentroidEstimate(point, ll, seed, low_confidence=False)


# ----------------------------------------------------------------------
# full proposal
# ----------------------------------------------------------------------

def propose_candidate(
    tracklet: Tracklet,
    trajectory: Trajectory,
    k: CameraIntrinsics,
    noise: PixelNoiseModel,
    walk: RandomWalkConfig,
    run_seed: int,
    mad_threshold: float = 0.15,
) -> Proposal:
    """Validate and localize one promoted tracklet; `run_seed` seeds the
    walk (see estimate_centroid)."""
    poses = resolve_poses(tracklet, trajectory)
    rotations = _rotations(poses)
    clouds = extract_clouds(tracklet, poses, k, rotations)
    mad = mad_deviation(np.array([centroid(c) for c in clouds]))
    if mad > mad_threshold:
        return Proposal(tracklet, accepted=False, mad=mad, candidate=None)
    est = estimate_centroid(tracklet, poses, k, noise, walk, run_seed, rotations)
    cloud = PointCloud(np.vstack([c.points for c in clouds]))
    cand = Candidate(
        tracklet=tracklet,
        cloud=cloud,
        map_centroid=est.point,
        size_estimate=max(float(cloud.extent().max()), MIN_SIZE),
        class_id=tracklet.class_id,
    )
    return Proposal(tracklet, accepted=True, mad=mad, candidate=cand,
                    low_confidence=est.low_confidence)

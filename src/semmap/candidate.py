"""Landmark candidate generation: cloud extraction, motion gating,
localization.

A promoted tracklet becomes a candidate in three steps. Each measurement
is lifted to a small world-frame cloud: a 5 x 5 x 3 grid of cell
centres filling the box frustum over a depth window around the range
hint. The run's odometry is stacked once (Views: quaternions, rotation
matrices and translations of every pose), and each proposal gathers its
T views from those rows by frame id: a measurement is seen from the
pose of the frame that saw it, the row its observation factor
constrains in the pose graph. One (T, 3, 3) rotation stack then serves
extraction, the seed rays and the depth test without rebuilding a pose.
One (T, 5) array holds the boxes and range hints; all T grids are
built, lifted to the camera frame and rotated into the world with one
matmul, and only then are the cells at or behind the camera dropped.
The result is one cloud of all views, each view a contiguous slice.
The slices' means, summed over the kept cells of the lifted stack, feed
a mean-absolute-deviation gate that rejects moving objects: a static
object re-observed from a moving camera yields nearly coincident means,
a walking person does not. A surviving tracklet is placed at the
midpoint triangulation of its box-center rays, the point nearest to
all of them in least squares, when that point lies in front of every
camera. Otherwise, and when the views have no baseline, it is placed
at the last box center back-projected at its range hint, flagged low
confidence. The pose graph refines a landmark's position from its
observation factors; the candidate's position only seeds a new
landmark or joins a fused mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
    backproject,
    quat_to_matrix,
    unit_pose,
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
class CentroidEstimate:
    point: np.ndarray
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
# views
# ----------------------------------------------------------------------

class Views(NamedTuple):
    """Camera poses as stacks: unit quaternions (T, 4), camera-to-world
    rotation matrices (T, 3, 3) and camera centres (T, 3). Row t of each
    has the bits of pose t's own rotation, quat_to_matrix of it, and
    translation."""

    quaternions: np.ndarray
    rotations: np.ndarray
    translations: np.ndarray

    @staticmethod
    def of(poses: Sequence[Pose]) -> "Views":
        q = np.stack([p.rotation for p in poses])
        return Views(q, quat_to_matrix(q), np.stack([p.translation for p in poses]))


# ----------------------------------------------------------------------
# cloud extraction
# ----------------------------------------------------------------------

def cuboid_half_depth(width, depth_hint, k: CameraIntrinsics):
    """Half the metric width a box of `width` px subtends at its range
    hint (floats or arrays)."""
    return 0.5 * width * depth_hint / k.fx


def _frustum_grid(ms: Sequence[Measurement], k: CameraIntrinsics) -> np.ndarray:
    """(T, 75, 3) (u, v, depth) cell centres filling each view's box
    frustum slab: per axis x_min + c * width / nu, evaluated in that
    order, with the depth axis spanning the range hint plus or minus
    cuboid_half_depth. One (T, 5) array holds the boxes and hints. A
    half depth that overflows to inf gives NaN depths (-inf + inf),
    which extraction drops; call under an errstate that ignores
    overflow and invalid values."""
    boxes = np.array([(m.box.x_min, m.box.y_min, m.box.x_max, m.box.y_max, m.depth_hint)
                      for m in ms]).reshape(-1, 5)
    lo = boxes[:, (0, 1, 4)]
    span = boxes[:, (2, 3, 4)] - lo
    h = cuboid_half_depth(span[:, 0], boxes[:, 4], k)
    lo[:, 2] -= h
    span[:, 2] = 2.0 * h
    return lo[:, None] + _GRID_UNIT * span[:, None] / _GRID_COUNTS


def extract_clouds(
    tracklet: Tracklet,
    views: Views,
    k: CameraIntrinsics,
) -> tuple[PointCloud, np.ndarray]:
    """World-frame cloud of every measurement's frustum grid, stacked in
    view order, and the (T, 3) mean of each view's slice.

    All T grids are lifted in one pass, then cell centres at or behind
    the camera (depth not above 0, which includes a depth that
    overflowed to NaN) are dropped; an exhausted measurement raises
    EmptyCloudError naming the first such frame. A kept cell gets the
    bits that lifting its view's kept cells alone gives it, and a mean
    those of its slice's mean(axis=0): the masked sum adds the kept
    cells in order, as that does. Cells drop in whole depth layers of
    25, so no view keeps a single cell, whose one-row product alone
    would take BLAS's matrix-vector path and could differ.
    """
    ms = tracklet.measurements
    if len(views.translations) != len(ms):
        raise ValueError("one pose per measurement required")
    # dropped cells may overflow or meet inf - inf on the way
    with np.errstate(over="ignore", invalid="ignore"):
        cam = _frustum_grid(ms, k)
        u, v, d = cam.transpose(2, 0, 1)
        keep = d > 0
        kept = keep.sum(axis=1)
        if not kept.all():
            m = ms[int(np.argmin(kept))]
            raise EmptyCloudError(f"no samples survive the frustum of frame {m.frame_id}")
        cam[..., 0] = (u - k.cx) * d / k.fx
        cam[..., 1] = (v - k.cy) * d / k.fy
        world = np.matmul(cam, views.rotations.transpose(0, 2, 1))
        world += views.translations[:, None]
    means = np.add.reduce(world, axis=1, where=keep[..., None]) / kept[:, None]
    return PointCloud(world[keep]), means


# ----------------------------------------------------------------------
# dynamic object gate
# ----------------------------------------------------------------------

def mad_deviation(centroids: np.ndarray) -> float:
    """Norm of the per-axis mean absolute deviation of the centroids."""
    c = np.asarray(centroids, dtype=float).reshape(-1, 3)
    n = c.shape[0]
    if n < 2:
        raise TooFewMeasurementsError("deviation needs at least 2 centroids")
    # mean(axis=0) and np.linalg.norm without their Python wrappers: the
    # same reductions, divisions and dot
    mad = np.add.reduce(np.abs(c - np.add.reduce(c, axis=0) / n), axis=0) / n
    return math.sqrt(mad.dot(mad))


# ----------------------------------------------------------------------
# localization
# ----------------------------------------------------------------------

def triangulate_midpoint(origins: np.ndarray, directions: np.ndarray) -> np.ndarray | None:
    """Least-squares intersection of rays; None when ill conditioned.

    Minimizes sum_t |(I - d_t d_t^T)(x - c_t)|^2 which reduces to the
    linear system (sum (I - d d^T)) x = sum (I - d d^T) c.
    """
    d = np.asarray(directions, dtype=float).reshape(-1, 3)
    ms = np.eye(3) - d[:, :, None] * d[:, None, :]
    mcs = np.matmul(ms, np.asarray(origins, dtype=float).reshape(-1, 3)[..., None])
    # an axis-0 sum adds the views in order, from +0.0 as a running
    # total would, so the rounding is the view-by-view sum's
    a = ms.sum(axis=0, initial=0.0)
    b = mcs[..., 0].sum(axis=0, initial=0.0)
    w = np.linalg.eigvalsh(a)
    if w[0] < 1e-9:
        return None
    return np.linalg.solve(a, b)


def _in_front(point: np.ndarray, views: Views) -> bool:
    """Whether the point has a positive depth along every view's optical
    axis (a NaN depth is not positive)."""
    depths = np.einsum("ti,ti->t", views.rotations[:, :, 2], point - views.translations)
    return bool((depths > 0.0).all())


def estimate_centroid(
    tracklet: Tracklet,
    views: Views,
    k: CameraIntrinsics,
) -> CentroidEstimate:
    """Position of the object from its box centers: the midpoint
    triangulation of the box-center rays.

    With no baseline (all camera centers coincident) or ill-conditioned
    rays the depth is unobservable; the estimate falls back to the last
    measurement's back-projected range hint, flagged low confidence.
    A triangulated point behind any camera falls back the same way, and
    raises BehindCameraError when the fallback is behind one too.
    """
    ms = tracklet.measurements
    if len(ms) < 2:
        raise TooFewMeasurementsError("localization needs >= 2 measurements")
    centers = np.array([m.box.center for m in ms])

    def fallback() -> CentroidEstimate:
        last = unit_pose(views.quaternions[-1], views.translations[-1])
        point = backproject(centers[-1], ms[-1].depth_hint, last, k)
        return CentroidEstimate(point, low_confidence=True)

    origins = views.translations
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
    dirs = np.matmul(views.rotations, rays_cam[..., None])[..., 0]
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    seed = triangulate_midpoint(origins, dirs)
    if seed is None:
        return fallback()
    if _in_front(seed, views):
        return CentroidEstimate(seed, low_confidence=False)
    est = fallback()
    if not _in_front(est.point, views):
        raise BehindCameraError(
            "neither the triangulated point nor the range-hint point is in front "
            "of every camera")
    return est


# ----------------------------------------------------------------------
# full proposal
# ----------------------------------------------------------------------

def propose_candidate(
    tracklet: Tracklet,
    odometry: Views,
    k: CameraIntrinsics,
    mad_threshold: float,
) -> Proposal:
    """Validate and localize one promoted tracklet, each measurement
    viewed from its frame's row of the run's stacked odometry. A MAD of
    the views' cloud means above mad_threshold rejects it."""
    rows = [m.frame_id for m in tracklet.measurements]
    views = Views(*(stack[rows] for stack in odometry))
    cloud, means = extract_clouds(tracklet, views, k)
    mad = mad_deviation(means)
    if mad > mad_threshold:
        return Proposal(tracklet, accepted=False, mad=mad, candidate=None)
    est = estimate_centroid(tracklet, views, k)
    cand = Candidate(
        tracklet=tracklet,
        cloud=cloud,
        map_centroid=est.point,
        size_estimate=max(float(cloud.extent().max()), MIN_SIZE),
        class_id=tracklet.class_id,
    )
    return Proposal(tracklet, accepted=True, mad=mad, candidate=cand,
                    low_confidence=est.low_confidence)

"""Landmark candidate generation: cloud extraction, motion gating, MAP
localization.

A promoted tracklet becomes a candidate in three steps. Each measurement
is lifted to a small world-frame cloud: a 5 x 5 x 3 grid of cell
centres filling the box frustum over a depth window around the range
hint. The run's odometry is stacked once (Views: quaternions, rotation
matrices and translations of every pose), and each proposal gathers its
T views from those rows by frame id: a measurement is seen from the
pose of the frame that saw it, the row its observation factor
constrains in the pose graph. One (T, 3, 3) rotation stack then serves
extraction, the likelihood and the seed rays without rebuilding a pose.
One (T, 5) array holds the boxes and range hints; all T grids are
built, lifted to the camera frame and rotated into the world with one
matmul, and only then are the cells at or behind the camera dropped.
The result is one cloud of all views, each view a contiguous slice.
The slices' means, summed over the kept cells of the lifted stack, feed
a mean-absolute-deviation gate that rejects moving objects: a static
object re-observed from a moving camera yields nearly coincident means,
a walking person does not. Surviving tracklets get a single 3D position
by maximizing the measurement likelihood under isotropic pixel noise of
standard deviation sigma

    ll(X) = sum_t [ -0.5 * |proj(X, pose_t) - z_t|^2 / sigma^2 ]
            - T * log(2 pi sigma^2),   z_t = box center of measurement t,

seeded by midpoint triangulation of the box-center rays and refined by a
random walk of 2000 Gaussian steps that moves whenever a step beats the
current point. The likelihood goes through a folded projection: the
intrinsics and each box center fold into three rows per view, so one
matrix product gives every residual numerator and depth. The kernel is
view-major: that product is (3T, m), one contiguous row of m values per
view and quantity, so the elementwise steps run over long rows instead
of strided (m, 3, T) slices. The BLAS operand layout fixes the
rounding, and the one chosen reproduces the point-major product bit for
bit (see _LikelihoodEvaluator). Most steps cannot beat the current
point even on one view's pixel term, so the walk bounds and verifies:
from the current point it bounds every pending step's likelihood by the
last view's term alone, a few elementwise passes over three rows,
scores exactly only the steps the bound cannot rule out, in one block,
and moves to the first that improves (see _ViewBound and _hill_climb).
It takes the steps the sequential rule takes, with the same bits.
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

# the random walk: _WALK_STEPS Gaussian steps of _WALK_STEP_SIGMA m
# per axis
_WALK_STEPS = 2000
_WALK_STEP_SIGMA = 0.05

# the walk bound's rounding margin (see _ViewBound): the share by which
# the likelihood gap is widened, and the multiple of the unit roundoff
# that bounds the bound's projection error relative to its magnitude
_BOUND_SHARE = 1e-9
_BOUND_ULPS = 64.0 * np.finfo(float).eps


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
    rv = b_t.(x - C_t) / c_t.(x - C_t). All 3T rows sit in one (3T, 3)
    matrix with one offset each, and the kernel is view-major: one
    product of the rows with the (3, m) block `xs.T - ref` gives a
    (3T, m) array whose u numerators, v numerators and depths are each
    T contiguous rows of m values, so every elementwise step runs over
    whole rows. Points are taken relative to the mean camera center,
    which bounds the cancellation far from the origin. The operand
    layouts pick the BLAS kernel and so fix the rounding: with C-ordered
    rows and a C-ordered point block, each value equals the point-major
    product `(xs - ref) @ rows.T` bit for bit at every m of 2 or more,
    so a point scores the same in any block, while the transposed view
    of an (m, 3) block differs in some last bits for blocks of over a
    thousand points. A single point takes BLAS's matrix-vector path in
    either layout, whose last bits can differ from a block's.
    `sigma_px` is the standard deviation of the isotropic pixel noise.
    Calling the evaluator scores under an errstate that ignores every
    floating-point error; `score` leaves that to the caller, which can
    hold one errstate over many calls.
    """

    def __init__(self, views: Views, centers_px: np.ndarray,
                 k: CameraIntrinsics, sigma_px: float):
        t = self.count = len(views.translations)
        world_to_cam = views.rotations.transpose(0, 2, 1)
        depth_row = world_to_cam[:, 2]
        centers_px = np.asarray(centers_px, dtype=float).reshape(-1, 2)
        self.rows = np.concatenate([
            k.fx * world_to_cam[:, 0] + (k.cx - centers_px[:, :1]) * depth_row,
            k.fy * world_to_cam[:, 1] + (k.cy - centers_px[:, 1:]) * depth_row,
            depth_row,
        ])
        # the mean camera centre, with mean(axis=0)'s bits
        ref = np.add.reduce(views.translations, axis=0) / t
        self.ref = ref[:, None]
        # each row dotted with its view's centre: one 3-term sum per row
        self.offsets = (self.rows.reshape(3, t, 3) * (views.translations - ref)
                        ).sum(axis=2).reshape(-1, 1)
        variance = sigma_px * sigma_px
        self.weight = 1.0 / variance
        self.norm = self.count * (-0.5 * (2.0 * math.log(2.0 * math.pi)
                                          + 2.0 * math.log(variance)))

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        """xs (m, 3) -> ll (m,); -inf where behind any camera."""
        with np.errstate(all="ignore"):
            return self.score(xs)

    def score(self, xs: np.ndarray) -> np.ndarray:
        """The call's values, under the caller's errstate: rows behind a
        camera may divide by zero or overflow before they are
        overwritten with -inf, and points far enough out to overflow the
        product come out -inf or NaN."""
        xs = np.asarray(xs, dtype=float).reshape(-1, 3)
        t = self.count
        proj = self.rows @ np.subtract(xs.T, self.ref, order="C")
        proj -= self.offsets
        ru, rv, z = proj[:t], proj[t:2 * t], proj[2 * t:]
        ru /= z
        rv /= z
        quad = self.weight * ru
        quad *= ru
        term = self.weight * rv
        term *= rv
        quad += term
        out = _sum_views(quad)
        out *= -0.5
        out += self.norm
        out[(z <= 0.0).any(axis=0)] = -np.inf
        return out


def _sum_views(terms: np.ndarray) -> np.ndarray:
    """(T, m) -> (m,): each column summed in the order numpy sums a
    contiguous run of T values, so a point's total does not depend on
    the layout. Runs shorter than 8 go left to right; longer ones go
    through numpy's pairwise sum, here on the point-major copy."""
    if len(terms) >= 8:
        return np.ascontiguousarray(terms.T).sum(axis=1)
    total = terms[0].copy()
    for row in terms[1:]:
        total += row
    return total


def log_likelihood(
    x: np.ndarray,
    tracklet: Tracklet,
    poses: Sequence[Pose],
    k: CameraIntrinsics,
    sigma_px: float,
) -> float:
    """Joint log-likelihood of a world point given the tracklet's boxes."""
    centers = np.array([m.box.center for m in tracklet.measurements])
    evaluate = _LikelihoodEvaluator(Views.of(poses), centers, k, sigma_px)
    ll = evaluate(np.asarray(x).reshape(1, 3))[0]
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
    # an axis-0 sum adds the views in order, from +0.0 as a running
    # total would, so the rounding is the view-by-view sum's
    a = ms.sum(axis=0, initial=0.0)
    b = mcs[..., 0].sum(axis=0, initial=0.0)
    w = np.linalg.eigvalsh(a)
    if w[0] < 1e-9:
        return None
    return np.linalg.solve(a, b)


class _ViewBound:
    """Upper bounds on the likelihood of the walk's proposals from one
    view's pixel term.

    Every view's term w (ru^2 + rv^2) is non-negative, the likelihood
    -0.5 S + norm falls as the sum S of the terms grows, and a rounded
    sum of non-negative terms is at least each of them. So a proposal
    cannot beat llx once the view's term alone reaches 2 (norm - llx),
    nor once it is behind the view's camera. The view's three folded
    rows are linear in the point, so their values at x + s are those at
    x plus the rows' product with s, taken once per walk, and a pass is
    a few elementwise steps on three rows: nu^2 + nv^2 against the gap
    times depth^2.

    Those values are not the kernel's bits, so a rounding margin keeps
    the bound above the kernel's likelihood: the depth is raised by
    twice the largest difference a projected value can have (_BOUND_ULPS
    times the rows' 1-norms times a reach holding every point of the
    walk, plus the offset), the gap is widened by 2 _BOUND_SHARE, and an
    absolute slack covers numerators that nearly cancel, near the
    box-centre ray. A NaN keeps its proposal.
    """

    def __init__(self, evaluate: _LikelihoodEvaluator, x0: np.ndarray,
                 steps: np.ndarray, view: int):
        t = evaluate.count
        self.rows = evaluate.rows[view::t]
        self.ref = evaluate.ref
        self.proj = self.rows @ steps
        self.gap_scale = 2.0 * (1.0 + 2.0 * _BOUND_SHARE) / evaluate.weight
        self.norm = evaluate.norm
        # every point of the walk lies within x0 plus the steps' summed
        # lengths, at most sqrt(n) times their Frobenius norm
        reach = (max(map(abs, np.ravel(x0).tolist())) + max(map(abs, self.ref[:, 0].tolist()))
                 + math.sqrt(steps.shape[1] * float(np.vdot(steps, steps))))
        offsets = evaluate.offsets[view::t, 0].tolist()
        du, dv, dz = (_BOUND_ULPS * (sum(map(abs, row)) * reach + abs(offset))
                      for row, offset in zip(self.rows.tolist(), offsets))
        offsets[2] -= 2.0 * dz
        self.offsets = np.array(offsets)[:, None]
        self.slack = 2.0 * (du * du + dv * dv) / _BOUND_SHARE

    def survivors(self, x: np.ndarray, llx: float, start: int = 0) -> np.ndarray:
        """Indices j >= start of the steps whose proposal x + steps[:, j]
        (x a (3, 1) column) the bound cannot rule out below llx."""
        proj = self.proj[:, start:] + (self.rows @ (x - self.ref) - self.offsets)
        behind = proj[2] <= 0.0
        proj *= proj
        proj[0] += proj[1]
        proj[2] *= self.gap_scale * (self.norm - llx)
        proj[2] += self.slack
        out = proj[0] > proj[2]
        out |= behind
        keep = np.flatnonzero(~out)
        keep += start
        return keep


def _walk_steps(run_seed: int, tracklet_id: int) -> np.ndarray:
    """The walk's (3, _WALK_STEPS) steps, coordinate-major: drawn as
    (_WALK_STEPS, 3) standard normals from the (run_seed, tracklet_id)
    stream and scaled by _WALK_STEP_SIGMA in the pass that transposes
    them, with the bits of the scaled draw's transpose."""
    draw = np.random.default_rng((run_seed, tracklet_id)).standard_normal((_WALK_STEPS, 3))
    return np.multiply(draw.T, _WALK_STEP_SIGMA, order="C")


def _hill_climb(x0, ll0, steps, evaluate: _LikelihoodEvaluator):
    """First-improvement random walk over (3, n) coordinate-major steps:
    move to x + steps[:, j] whenever it beats the current likelihood.

    Bound and verify: each pass bounds every pending proposal from the
    current point with the last view's term (see _ViewBound), scores the
    ones the bound cannot rule out in one block, and moves to the first
    of them that improves; the rest are bounded again from the new
    point. Every pending proposal before that one was ruled out or
    scored no better, so this is the sequential rule's walk as long as
    `evaluate.score` gives a point the same bits in every block, which
    holds for blocks of two or more points (see _LikelihoodEvaluator).
    So a lone survivor is scored as two columns, except when it is the
    walk's only pending proposal: that one is scored alone, on the
    matrix-vector path, whose bits the mapped outputs depend on.
    """
    x = np.asarray(x0, dtype=float)[:, None]
    llx = float(ll0)
    n = steps.shape[1]
    bound = _ViewBound(evaluate, x, steps, evaluate.count - 1)
    i = 0
    while i < n:
        cols = bound.survivors(x, llx, i)
        if cols.size == 0:
            break
        if cols.size == 1 and i < n - 1:
            cols = cols.repeat(2)
        cand = x + steps[:, cols]
        lls = evaluate.score(cand.T)
        better = (lls > llx).nonzero()[0]
        if better.size == 0:
            break
        first = int(better[0])
        x = cand[:, first:first + 1]
        llx = float(lls[first])
        i = int(cols[first]) + 1
    return x[:, 0].copy(), llx


def estimate_centroid(
    tracklet: Tracklet,
    views: Views,
    k: CameraIntrinsics,
    sigma_px: float,
    run_seed: int,
) -> CentroidEstimate:
    """MAP position of the object from its box centers.

    Seeds with midpoint triangulation of the box-center rays, then runs
    the random walk, which moves only on improvement, so the reported
    maximum never falls below the seed. With no baseline (all camera
    centers coincident) the depth is unobservable; the estimate falls
    back to the last measurement's back-projected range hint, flagged
    low confidence. The RNG stream is derived from (run_seed,
    tracklet.id) so results are reproducible per tracklet.
    """
    ms = tracklet.measurements
    if len(ms) < 2:
        raise TooFewMeasurementsError("localization needs >= 2 measurements")
    centers = np.array([m.box.center for m in ms])
    evaluate = _LikelihoodEvaluator(views, centers, k, sigma_px)

    def fallback() -> CentroidEstimate:
        last = unit_pose(views.quaternions[-1], views.translations[-1])
        point = backproject(centers[-1], ms[-1].depth_hint, last, k)
        ll = float(evaluate(point.reshape(1, 3))[0])
        return CentroidEstimate(point, ll, point.copy(), low_confidence=True)

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

    # one errstate over the seed and the whole walk
    with np.errstate(all="ignore"):
        ll_seed = float(evaluate.score(seed.reshape(1, 3))[0])
        if np.isfinite(ll_seed):
            point, ll = _hill_climb(seed, ll_seed, _walk_steps(run_seed, tracklet.id),
                                    evaluate)
    if not np.isfinite(ll_seed):
        est = fallback()
        if not np.isfinite(est.log_likelihood):
            raise BehindCameraError("no finite-likelihood starting point")
        return est
    assert ll >= ll_seed
    return CentroidEstimate(point, ll, seed, low_confidence=False)


# ----------------------------------------------------------------------
# full proposal
# ----------------------------------------------------------------------

def propose_candidate(
    tracklet: Tracklet,
    odometry: Views,
    k: CameraIntrinsics,
    sigma_px: float,
    run_seed: int,
    mad_threshold: float,
) -> Proposal:
    """Validate and localize one promoted tracklet, each measurement
    viewed from its frame's row of the run's stacked odometry. A MAD of
    the views' cloud means above mad_threshold rejects it; `run_seed`
    seeds the walk (see estimate_centroid)."""
    rows = [m.frame_id for m in tracklet.measurements]
    views = Views(*(stack[rows] for stack in odometry))
    cloud, means = extract_clouds(tracklet, views, k)
    mad = mad_deviation(means)
    if mad > mad_threshold:
        return Proposal(tracklet, accepted=False, mad=mad, candidate=None)
    est = estimate_centroid(tracklet, views, k, sigma_px, run_seed)
    cand = Candidate(
        tracklet=tracklet,
        cloud=cloud,
        map_centroid=est.point,
        size_estimate=max(float(cloud.extent().max()), MIN_SIZE),
        class_id=tracklet.class_id,
    )
    return Proposal(tracklet, accepted=True, mad=mad, candidate=cand,
                    low_confidence=est.low_confidence)

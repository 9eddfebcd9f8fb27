"""Independent reference implementations used by several test modules.

Everything here is written deliberately differently from the package
internals (explicit loops, different algorithms, one item at a time
where the package works on stacks) so the two routes can cross-check
each other.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from semmap.errors import EmptyCloudError, SingularSystemError
from semmap.geometry import (CameraIntrinsics, Pose, quat_from_matrix, quat_to_matrix,
                             rotvec_from_quat, unit_pose)
from semmap.posegraph import _STEP_TOL, OptimizerConfig, SolveReport, _retract
from semmap.simulator import look_at_pose

_Z_EPS = 1e-9


def pinhole_uv(point_world, pose, k):
    """Scalar pinhole projection via explicit matrix algebra."""
    r = pose.rotation_matrix()
    p_cam = r.T @ (np.asarray(point_world, dtype=float) - pose.translation)
    if p_cam[2] <= 0:
        return None
    return np.array(
        [k.fx * p_cam[0] / p_cam[2] + k.cx, k.fy * p_cam[1] / p_cam[2] + k.cy]
    )


def grid_search_max(centers, poses, k, cov, around, half=0.5, step=0.01):
    """Dense grid argmax of the likelihood over a cube around `around`.

    Vectorized per grid axis chunk, with an explicit per-view rotation
    application.
    """
    around = np.asarray(around, dtype=float)
    axis = np.arange(-half, half + step / 2, step)
    info = np.linalg.inv(cov)
    best_val = -math.inf
    best_pt = None
    yy, zz = np.meshgrid(axis, axis, indexing="ij")
    flat_yz = np.column_stack([yy.ravel(), zz.ravel()])
    for dx in axis:
        pts = np.column_stack(
            [np.full(len(flat_yz), dx), flat_yz[:, 0], flat_yz[:, 1]]
        ) + around
        ll = np.zeros(len(pts))
        valid = np.ones(len(pts), dtype=bool)
        for center, pose in zip(centers, poses):
            rot = pose.rotation_matrix()
            p_cam = (pts - pose.translation) @ rot
            z = p_cam[:, 2]
            valid &= z > 0
            z = np.where(z > 0, z, 1.0)
            ru = k.fx * p_cam[:, 0] / z + k.cx - center[0]
            rv = k.fy * p_cam[:, 1] / z + k.cy - center[1]
            ll += -0.5 * (
                info[0, 0] * ru * ru + 2 * info[0, 1] * ru * rv + info[1, 1] * rv * rv
            )
        ll[~valid] = -math.inf
        i = int(np.argmax(ll))
        if ll[i] > best_val:
            best_val = float(ll[i])
            best_pt = pts[i]
    return best_pt, best_val


def rowwise_bounds(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis (min, max) by axis-0 reductions of the (N, 3) rows: the
    form `PointCloud.bounds` had before it reduced contiguous columns."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] == 0:
        raise EmptyCloudError("bounds of empty cloud")
    return pts.min(axis=0), pts.max(axis=0)


def rowwise_extent(points: np.ndarray) -> np.ndarray:
    """Per-axis span by axis-0 reductions, as `PointCloud.extent` had it."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] == 0:
        raise EmptyCloudError("extent of empty cloud")
    return pts.max(axis=0) - pts.min(axis=0)


def repoint_aliases(aliases: dict[int, int],
                    records: list[tuple[int, int]]) -> dict[int, int]:
    """Replay merge records (absorbed, kept) on a copy of `aliases` with
    a scan of every alias per merge, as `merge_overlapping` once did."""
    aliases = dict(aliases)
    for high, low in records:
        for old, kept in list(aliases.items()):
            if kept == high:
                aliases[old] = low
        aliases[high] = low
    return aliases


def dict_voxel_thin(points: np.ndarray, cap: int, edge: float) -> np.ndarray:
    """Deterministic voxel downsample keeping the first point per cell.

    Doubles the voxel edge until at most `cap` points remain, so the
    result never exceeds the cap whatever the input density.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] <= cap:
        return pts
    edge = max(edge, 1e-9)
    while True:
        seen: dict[tuple[int, int, int], int] = {}
        for i in range(pts.shape[0]):
            key = (
                int(math.floor(pts[i, 0] / edge)),
                int(math.floor(pts[i, 1] / edge)),
                int(math.floor(pts[i, 2] / edge)),
            )
            if key not in seen:
                seen[key] = i
        if len(seen) <= cap:
            return pts[sorted(seen.values())]
        edge *= 2.0


def brute_force_nn_mean(query_pts, target_pts):
    """Mean over query points of the distance to the closest target: the
    full (na, nb) distance matrix, no spatial index."""
    q = np.asarray(query_pts, dtype=float)
    t = np.asarray(target_pts, dtype=float)
    dist = np.sqrt(((q[:, None, :] - t[None, :, :]) ** 2).sum(axis=2))
    return float(dist.min(axis=1).mean())


def horn_quaternion_align(src, dst):
    """Closed-form rigid alignment via the quaternion eigen method.

    Independent of the SVD route: builds the 4x4 symmetric matrix whose
    top eigenvector is the rotation quaternion mapping src onto dst.
    Returns (R, t) with dst ~ R @ src + t.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    a = src - mu_s
    b = dst - mu_d
    sxx = a[:, 0] @ b[:, 0]; sxy = a[:, 0] @ b[:, 1]; sxz = a[:, 0] @ b[:, 2]
    syx = a[:, 1] @ b[:, 0]; syy = a[:, 1] @ b[:, 1]; syz = a[:, 1] @ b[:, 2]
    szx = a[:, 2] @ b[:, 0]; szy = a[:, 2] @ b[:, 1]; szz = a[:, 2] @ b[:, 2]
    n = np.array(
        [
            [sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
            [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
            [szx - sxz, sxy + syx, -sxx + syy - szz, syz + szy],
            [sxy - syx, szx + sxz, syz + szy, -sxx - syy + szz],
        ]
    )
    w, v = np.linalg.eigh(n)
    q = v[:, -1]  # eigenvector of the largest eigenvalue
    qw, qx, qy, qz = q
    rot = np.array(
        [
            [1 - 2 * (qy * qy + qz * qz), 2 * (qx * qy - qw * qz), 2 * (qx * qz + qw * qy)],
            [2 * (qx * qy + qw * qz), 1 - 2 * (qx * qx + qz * qz), 2 * (qy * qz - qw * qx)],
            [2 * (qx * qz - qw * qy), 2 * (qy * qz + qw * qx), 1 - 2 * (qx * qx + qy * qy)],
        ]
    )
    t = mu_d - rot @ mu_s
    return rot, t


# ----------------------------------------------------------------------
# the proposal path one view at a time: the references for the package's
# stacked frustum grid, extraction and seed triangulation, which must
# match them bit for bit
# ----------------------------------------------------------------------

def meshgrid_box_sampler(k, grid=(5, 5, 3)):
    """(u, v, depth) cell centers of the box frustum slab, one meshgrid
    per measurement."""
    nu, nv, nd = grid

    def sample(m):
        us = m.box.x_min + (np.arange(nu) + 0.5) * m.box.width / nu
        vs = m.box.y_min + (np.arange(nv) + 0.5) * m.box.height / nv
        h = 0.5 * m.box.width * m.depth_hint / k.fx
        ds = m.depth_hint - h + (np.arange(nd) + 0.5) * (2.0 * h) / nd
        uu, vv, dd = np.meshgrid(us, vs, ds, indexing="ij")
        return np.column_stack([uu.ravel(), vv.ravel(), dd.ravel()])

    return sample


def loop_extract_clouds(tracklet, poses, k, sampler):
    """World points per measurement: filter, lift and rotate one view at
    a time."""
    clouds = []
    for m, pose in zip(tracklet.measurements, poses):
        raw = np.asarray(sampler(m), dtype=float).reshape(-1, 3)
        h = 0.5 * m.box.width * m.depth_hint / k.fx
        keep = (
            (raw[:, 0] >= m.box.x_min)
            & (raw[:, 0] <= m.box.x_max)
            & (raw[:, 1] >= m.box.y_min)
            & (raw[:, 1] <= m.box.y_max)
            & (np.abs(raw[:, 2] - m.depth_hint) <= h)
            & (raw[:, 2] > 0)
        )
        raw = raw[keep]
        if raw.shape[0] == 0:
            raise EmptyCloudError(
                f"no samples survive the frustum of frame {m.frame_id}"
            )
        x = (raw[:, 0] - k.cx) * raw[:, 2] / k.fx
        y = (raw[:, 1] - k.cy) * raw[:, 2] / k.fy
        clouds.append(pose.transform(np.column_stack([x, y, raw[:, 2]])))
    return clouds


def loop_triangulate_midpoint(origins, directions):
    """Least-squares ray intersection, one view's projector at a time;
    None when ill conditioned."""
    a = np.zeros((3, 3))
    b = np.zeros(3)
    for c, d in zip(origins, directions):
        m = np.eye(3) - np.outer(d, d)
        a += m
        b += m @ c
    w = np.linalg.eigvalsh(a)
    if w[0] < 1e-9:
        return None
    return np.linalg.solve(a, b)


def loop_box_center_rays(centers_px, poses, k):
    """Unit world-frame directions of the box-center rays, one view at a
    time."""
    dirs = []
    for (u, v), pose in zip(centers_px, poses):
        ray = np.array([(u - k.cx) / k.fx, (v - k.cy) / k.fy, 1.0])
        dirs.append(pose.rotation_matrix() @ ray)
    dirs = np.stack(dirs)
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def json_dump_landmark_map(path, lm_map, extra=None):
    """The landmark map document through json.dump, compact and with
    sorted keys: the reference for the package's writer, which must
    write the same bytes."""
    doc = {
        "landmarks": [
            {
                "id": lm.id,
                "class_id": lm.class_id,
                "centroid": [float(x) for x in lm.centroid],
                "size": float(lm.size),
                "n_fused": lm.n_fused,
                "last_association": float(lm.last_association),
                "last_emission": float(lm.last_emission),
                "points": [[float(v) for v in p] for p in lm.cloud.points],
            }
            for lm in lm_map.ordered()
        ],
        "aliases": {str(k): v for k, v in sorted(lm_map.aliases.items())},
    }
    if extra:
        doc.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# quaternion ops one quaternion at a time with Python math, (w, x, y, z)
# order: the scalar formulas the package's stacked ops must reproduce
# bit for bit
# ----------------------------------------------------------------------

def scalar_quat_mul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def scalar_quat_conjugate(q):
    return np.array([q[0], -q[1], -q[2], -q[3]])


def scalar_quat_normalize(q):
    n = math.sqrt(float(np.dot(q, q)))
    if n == 0.0 or not math.isfinite(n):
        raise ValueError("cannot normalize zero or non-finite quaternion")
    return q / n


def scalar_quat_to_matrix(q):
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def scalar_quat_from_rotvec(rv):
    rv = np.asarray(rv, dtype=float)
    angle = math.sqrt(float(np.dot(rv, rv)))
    if angle < 1e-12:
        half = 0.5 - angle * angle / 48.0
        return scalar_quat_normalize(np.array([1.0, *(half * rv)]))
    axis = rv / angle
    s = math.sin(angle / 2.0)
    return np.array([math.cos(angle / 2.0), *(s * axis)])


def scalar_rotvec_from_quat(q):
    w, x, y, z = q
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    sin_half = math.sqrt(x * x + y * y + z * z)
    if sin_half < 1e-12:
        return 2.0 * np.array([x, y, z])
    angle = 2.0 * math.atan2(sin_half, w)
    return (angle / sin_half) * np.array([x, y, z])


def scalar_compose(qa, ta, qb, tb):
    """Pose(qa, ta).compose(Pose(qb, tb)) for one pose, by the scalar
    formulas: the product normalized, and normalized once more as Pose
    normalizes its rotation, and ta + R(qa) tb."""
    q = scalar_quat_normalize(scalar_quat_normalize(scalar_quat_mul(qa, qb)))
    return q, ta + scalar_quat_to_matrix(qa) @ tb


def scalar_inverse(q, t):
    """Pose(q, t).inverse() for one pose, by the scalar formulas: the
    conjugate, normalized as Pose normalizes its rotation, and
    -(R(conjugate) t)."""
    qc = scalar_quat_conjugate(q)
    return scalar_quat_normalize(qc), -(scalar_quat_to_matrix(qc) @ t)


# ----------------------------------------------------------------------
# per-factor residuals and Jacobians, one factor at a time on Pose
# objects: the reference for the solver's stacked factor kernels
# ----------------------------------------------------------------------

def _skew(v: np.ndarray) -> np.ndarray:
    return np.array(
        [[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]]
    )


def _inv_right_jacobian_so3(phi: np.ndarray) -> np.ndarray:
    """Inverse right Jacobian of the SO(3) log map.

    d/d eps log(R exp(eps)) = Jr_inv(log R). Series expansion below
    1e-6 rad keeps it smooth through zero.
    """
    theta2 = float(phi @ phi)
    w = _skew(phi)
    if theta2 < 1e-12:
        return np.eye(3) + 0.5 * w + (1.0 / 12.0) * (w @ w)
    theta = math.sqrt(theta2)
    coef = 1.0 / theta2 - (1.0 + math.cos(theta)) / (2.0 * theta * math.sin(theta))
    return np.eye(3) + 0.5 * w + coef * (w @ w)


def _pose_error(meas: Pose, delta: Pose) -> tuple[np.ndarray, Pose]:
    """Residual [t, rotvec] of meas^-1 * delta and the error pose."""
    err = meas.inverse().compose(delta)
    return np.concatenate([err.translation, rotvec_from_quat(err.rotation)]), err


def odometry_residual_jacobians(
    pose_i: Pose, pose_j: Pose, meas: Pose
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residual (6,) and Jacobians (6, 6) wrt right perturbations of i, j.

    With Delta = X_i^-1 X_j and E = Z^-1 Delta:
      dr_t/drho_j = E.R, dr_phi/dphi_j = Jr_inv(r_phi)
      dr_t/drho_i = -R_z^T, dr_t/dphi_i = R_z^T [Delta.t]x
      dr_phi/dphi_i = -Jr_inv(r_phi) Delta.R^T, remaining blocks zero.
    """
    delta = pose_i.inverse().compose(pose_j)
    r, err = _pose_error(meas, delta)
    rz_t = meas.rotation_matrix().T
    delta_r = delta.rotation_matrix()
    jr_inv = _inv_right_jacobian_so3(r[3:])

    j_i = np.zeros((6, 6))
    j_i[:3, :3] = -rz_t
    j_i[:3, 3:] = rz_t @ _skew(delta.translation)
    j_i[3:, 3:] = -jr_inv @ delta_r.T

    j_j = np.zeros((6, 6))
    j_j[:3, :3] = err.rotation_matrix()
    j_j[3:, 3:] = jr_inv
    return r, j_i, j_j


def prior_residual_jacobian(pose: Pose, prior: Pose) -> tuple[np.ndarray, np.ndarray]:
    """Residual (6,) and Jacobian (6, 6) of log(P^-1 X) wrt X."""
    r, err = _pose_error(prior, pose)
    j = np.zeros((6, 6))
    j[:3, :3] = err.rotation_matrix()
    j[3:, 3:] = _inv_right_jacobian_so3(r[3:])
    return r, j


def observation_residual_jacobians(
    pose: Pose, landmark: np.ndarray, pixel: np.ndarray, k: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Residual (2,) plus Jacobians wrt pose (2, 6) and landmark (2, 3).

    Returns None when the landmark is behind the camera (factor
    deactivated). With p = R^T (l - t):
      dp/drho = -I, dp/dphi = [p]x, dp/dl = R^T
      dr/dp = [[fx/z, 0, -fx x/z^2], [0, fy/z, -fy y/z^2]].
    """
    rot = pose.rotation_matrix()
    p = rot.T @ (np.asarray(landmark, dtype=float) - pose.translation)
    if p[2] <= _Z_EPS:
        return None
    x, y, z = p
    r = np.array([k.fx * x / z + k.cx - pixel[0], k.fy * y / z + k.cy - pixel[1]])
    j_pi = np.array(
        [[k.fx / z, 0.0, -k.fx * x / (z * z)], [0.0, k.fy / z, -k.fy * y / (z * z)]]
    )
    j_pose = j_pi @ np.hstack([-np.eye(3), _skew(p)])
    j_lm = j_pi @ rot.T
    return r, j_pose, j_lm


def rebuilt_poses(q, t):
    """Solved estimates as one Pose per row, each normalizing its own
    quaternion: the reference for the graph's stacked write-back."""
    return [Pose(qi, ti) for qi, ti in zip(q, t)]


class _SparseLayout:
    """Normal equations of any graph as a sparse matrix, solved by sparse
    LU; the reference for the solver's banded chain step, with the same
    assemble/step interface as posegraph._ChainLayout.

    The row and column of every Hessian entry come from the graph's
    factor lists, factor by factor, in the order the solver emits the
    values: the prior, the odometry, the observations, each factor's
    D x D block row-major over its variables' dofs.
    """

    def __init__(self, graph, fix_poses: bool):
        base = 6 * len(graph.poses)
        lm_dof = {lid: base + 3 * i for i, lid in enumerate(sorted(graph.landmarks))}
        factors = [[(6 * graph.prior.pose_id, 6)]]
        factors += [[(6 * f.from_id, 6), (6 * f.to_id, 6)] for f in graph.odometry]
        factors += [[(6 * f.pose_id, 6), (lm_dof[f.landmark_id], 3)]
                    for f in graph.observations]
        rows, cols = [], []
        for blocks in factors:
            dofs = np.concatenate([off + np.arange(d) for off, d in blocks])
            rows.append(np.repeat(dofs, dofs.size))
            cols.append(np.tile(dofs, dofs.size))
        self.rows, self.cols = np.concatenate(rows), np.concatenate(cols)
        self.dim = base + 3 * len(lm_dof)
        self.lo = base if fix_poses else 0

    def assemble(self, vals: np.ndarray):
        h = scipy.sparse.coo_matrix(
            (vals, (self.rows, self.cols)), shape=(self.dim, self.dim)
        ).tocsc()
        if self.lo:
            h = h[self.lo:, self.lo:].tocsc()
        return h, h.diagonal()

    def step(self, system, g: np.ndarray, lam: float) -> np.ndarray | None:
        h, diag = system
        damped = h + scipy.sparse.diags(np.maximum(diag, 1e-12) * lam)
        try:
            return scipy.sparse.linalg.splu(damped.tocsc()).solve(-g[self.lo:])
        except RuntimeError:
            return None


def linearize_every_trial_optimize(graph, cfg=None, fix_poses: bool = False):
    """PoseGraph.optimize as it ran before trial steps were scored by
    their residuals alone: every trial state is linearized in full (its
    residuals, Jacobians, normal entries and gradient) and every accepted
    state assembled, before and whether or not a step is taken from it.
    The reference for the solver's loop; the math of each pass is the
    graph's own."""
    cfg = cfg or OptimizerConfig()
    if graph.prior is None:
        raise SingularSystemError("graph has no gauge prior")
    lm_ids = sorted(graph.landmarks)
    layout = graph._synced_layout(lm_ids, fix_poses)
    dim = layout.dim

    def linearize(q, t, lm, rot):
        state, cost, deact = graph._residuals(q, t, lm, layout, rot)
        vals, g = graph._linear_system(state, layout)
        return vals, g, cost, deact

    q, t, lm = graph._state_arrays(lm_ids)
    rot = quat_to_matrix(q)
    lam = cfg.lambda_init
    report = SolveReport(0, 0.0, 0.0, False)
    vals, g, cost_now, deact = linearize(q, t, lm, rot)
    report.initial_cost = cost_now
    report.cost_trace.append(cost_now)
    report.deactivated_observations = deact
    lo = layout.base if fix_poses else 0
    observed = set(layout.obs_l.tolist())
    for i, lid in enumerate(lm_ids):
        if i not in observed:
            raise SingularSystemError(f"landmark {lid} has no factor")
    system = layout.assemble(vals, g)

    for _ in range(cfg.max_iterations):
        gmax = float(np.max(np.abs(g[lo:]))) if dim > lo else 0.0
        if gmax < cfg.gradient_tol:
            report.converged = True
            report.stop_reason = "gradient"
            break
        x_norm = math.hypot(np.linalg.norm(lm), 0.0 if fix_poses else np.linalg.norm(t))
        accepted = small = False
        while lam <= cfg.lambda_max:
            solved = layout.step(system, g, lam)
            report.steps += 1
            if solved is None or not np.all(np.isfinite(solved)):
                lam *= cfg.lambda_up
                continue
            if np.linalg.norm(solved) <= _STEP_TOL * (x_norm + _STEP_TOL):
                small = True
                break
            delta = np.zeros(dim)
            delta[lo:] = solved
            q_new, t_new, lm_new = _retract(q, t, lm, delta, rot)
            rot_new = quat_to_matrix(q_new)
            vals, g_new, cost_new, deact = linearize(q_new, t_new, lm_new, rot_new)
            if cost_new < cost_now:
                q, t, lm, g, rot = q_new, t_new, lm_new, g_new, rot_new
                system = layout.assemble(vals, g)
                report.iterations += 1
                report.lambda_trace.append(lam)
                report.cost_trace.append(cost_new)
                report.deactivated_observations = deact
                lam = max(lam * cfg.lambda_down, 1e-15)
                accepted = True
                prev_cost, cost_now = cost_now, cost_new
                break
            lam *= cfg.lambda_up
        if small:
            report.converged = True
            report.stop_reason = "small_step"
            break
        if not accepted:
            report.converged = gmax < math.sqrt(cfg.gradient_tol)
            report.stop_reason = "stalled"
            break
        if abs(prev_cost - cost_now) <= cfg.min_rel_decrease * max(prev_cost, 1e-300):
            report.converged = True
            report.stop_reason = "rel_decrease"
            break
    else:
        report.converged = False
    graph.poses.store(q, t)
    graph.landmarks = {lid: lm[i].copy() for i, lid in enumerate(lm_ids)}
    report.final_cost = cost_now
    return report


# ----------------------------------------------------------------------
# simulator: one pose, one object, one odometry step at a time
# ----------------------------------------------------------------------

def loop_position_at(path, t):
    """CameraPathSpec.position_at by walking its segments from the first,
    summing their lengths as it goes."""
    pts = np.asarray(path.waypoints, dtype=float)
    if path.closed and len(pts) > 1:
        pts = np.vstack([pts, pts[0]])
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    total = float(seg.sum())
    if total < 1e-12 or path.speed == 0.0:
        return pts[0].copy()
    d = path.speed * t
    d = d % total if path.closed else min(d, total)
    cum = 0.0
    for i, length in enumerate(seg):
        if d <= cum + length or i == len(seg) - 1:
            a = (d - cum) / length if length > 0 else 0.0
            return pts[i] + a * (pts[i + 1] - pts[i])
        cum += length
    raise AssertionError("unreachable")


def cross_look_at_pose(position, target):
    """look_at_pose with np.cross and np.column_stack."""
    position = np.asarray(position, dtype=float)
    forward = np.asarray(target, dtype=float) - position
    forward = forward / np.linalg.norm(forward)
    right = np.cross(forward, np.array([0.0, 0.0, 1.0]))
    right = right / np.linalg.norm(right)
    down = np.cross(forward, right)
    return Pose(rotation=quat_from_matrix(np.column_stack([right, down, forward])),
                translation=position)


def per_object_render(world, noise, t, pose):
    """render_detections with each object projected on its own: its
    centre by R.T @ (c - t), its corners by (corners - t) @ R."""
    frame_id = int(round(t * world.frame_rate))
    rng = np.random.default_rng([noise.seed, frame_id])
    k = world.camera
    rot = pose.rotation_matrix()
    signs = np.array([[sx, sy, sz] for sx in (-0.5, 0.5) for sy in (-0.5, 0.5)
                      for sz in (-0.5, 0.5)])
    out = []
    for obj in world.objects:
        center = np.asarray(obj.center) + np.asarray(obj.velocity) * t
        cam = (center + signs * np.asarray(obj.extent) - pose.translation) @ rot
        if np.any(cam[:, 2] <= 0.05):
            continue
        us = k.fx * cam[:, 0] / cam[:, 2] + k.cx
        vs = k.fy * cam[:, 1] / cam[:, 2] + k.cy
        x_min, x_max = max(us.min(), 0.0), min(us.max(), float(k.width))
        y_min, y_max = max(vs.min(), 0.0), min(vs.max(), float(k.height))
        if x_max - x_min < 2.0 or y_max - y_min < 2.0:
            continue
        missed = rng.uniform(size=1)[0] < noise.missed_detection_rate
        jitter = rng.normal(size=5)
        if missed:
            continue
        cx = 0.5 * (x_min + x_max) + jitter[0] * noise.box_center_sigma
        cy = 0.5 * (y_min + y_max) + jitter[1] * noise.box_center_sigma
        w = max((x_max - x_min) + jitter[2] * noise.box_size_sigma, 2.0)
        h = max((y_max - y_min) + jitter[3] * noise.box_size_sigma, 2.0)
        x0, x1 = max(cx - 0.5 * w, 0.0), min(cx + 0.5 * w, float(k.width))
        y0, y1 = max(cy - 0.5 * h, 0.0), min(cy + 0.5 * h, float(k.height))
        if x1 - x0 < 2.0 or y1 - y0 < 2.0:
            continue
        depth = (rot.T @ (center - pose.translation))[2]
        out.append((t, frame_id, obj.class_id, float(rng.uniform(0.5, 1.0)),
                    (x0, y0, x1, y1), max(depth + jitter[4] * noise.depth_sigma, 0.05)))
    classes = sorted({o.class_id for o in world.objects})
    for _ in range(rng.poisson(noise.false_positive_rate)):
        cx = rng.uniform(0.1, 0.9) * k.width
        cy = rng.uniform(0.1, 0.9) * k.height
        w = rng.uniform(10.0, 0.25 * k.width)
        h = rng.uniform(10.0, 0.25 * k.height)
        x0, x1 = max(cx - 0.5 * w, 0.0), min(cx + 0.5 * w, float(k.width))
        y0, y1 = max(cy - 0.5 * h, 0.0), min(cy + 0.5 * h, float(k.height))
        if x1 - x0 < 2.0 or y1 - y0 < 2.0:
            continue
        class_id = classes[int(rng.integers(len(classes)))]
        confidence = float(rng.uniform(0.25, 0.9))
        out.append((t, frame_id, class_id, confidence, (x0, y0, x1, y1),
                    float(rng.uniform(0.5, 20.0))))
    return out


def pose_chain_odometry(gt, noise):
    """drift_odometry one pose at a time, by Pose's formulas
    (scalar_compose, scalar_inverse): per step two rng.normal draws, the
    ground truth's prev.inverse().compose(cur), Pose.exp of the noise
    and two composes."""
    rng = np.random.default_rng([noise.seed, 10_000_019])
    bias = np.concatenate([np.asarray(noise.odom_translation_bias),
                           np.asarray(noise.odom_rotation_bias)])
    q, t = gt.poses[0].rotation, gt.poses[0].translation
    out = [gt.poses[0]]
    for prev, cur in zip(gt.poses, gt.poses[1:]):
        xi = np.concatenate([
            rng.normal(scale=noise.odom_translation_sigma, size=3),
            rng.normal(scale=noise.odom_rotation_sigma, size=3),
        ]) + bias
        rel = scalar_compose(*scalar_inverse(prev.rotation, prev.translation),
                             cur.rotation, cur.translation)
        # Pose.exp(xi): Pose normalizes the rotation vector's quaternion
        step = scalar_compose(*rel, scalar_quat_normalize(scalar_quat_from_rotvec(xi[3:])),
                              xi[:3])
        q, t = scalar_compose(q, t, *step)
        out.append(unit_pose(q, t))
    return out


@dataclass(frozen=True)
class PanningPath:
    """A camera path with only `pose_at`: the camera stays at `position`
    and pans, its look-at target swinging `sweep` radians either way
    about world z from `center`, one full swing per `period` seconds."""

    position: tuple[float, float, float]
    center: tuple[float, float, float]
    sweep: float
    period: float

    def pose_at(self, t: float) -> Pose:
        eye = np.asarray(self.position)
        x, y, z = np.asarray(self.center) - eye
        a = self.sweep * math.sin(2.0 * math.pi * t / self.period)
        c, s = math.cos(a), math.sin(a)
        return look_at_pose(eye, eye + np.array([c * x - s * y, s * x + c * y, z]))

"""Pose graph with landmark reprojection factors, solved by
Levenberg-Marquardt on the normal equations.

State: one 6-dof node per camera frame (retracted on the right,
pose * exp([rho, phi])) and one 3-dof node per landmark. A pose's id is
its frame's row, 0..n-1, and its row in every solver array: the prior
creates pose 0 and odometry to the next row n creates pose n, so poses
are added in order and each with a factor. Factors:

* prior on the first pose (gauge fixing), residual log(P^-1 X): the
  odometry residual from the identity to X
* odometry between neighbouring frames, residual
  log(Z^-1 X_i^-1 X_j) split as [translation, rotation vector]
* pixel observations of landmarks, residual proj(X^-1 l) - z;
  observations whose landmark sits behind the camera at a state are
  deactivated there: no residual, no Jacobian

Every factor costs r^T W r: the cost is plain least squares. Each
kernel comes in two halves, a residual function that also returns the
intermediates its Jacobian needs and a Jacobian function built from
them. The solver scores a trial state by the residual half alone and
runs the Jacobian half only at the states a damped step is taken from.

The pipeline adds odometry only between consecutive frames and keeps a
handful of landmarks, so the normal equations are an arrowhead: a
block-tridiagonal pose chain plus a thin landmark border. Linearization
writes them straight into block storage (the chain's lower band, the
dense pose x landmark border and the landmark block) through index maps
the graph keeps between solves: each solve stacks only the odometry
added since the last, plus the few observation factors. Each damped
step factors the band, held in LAPACK's own band layout, by banded
Cholesky and eliminates the landmarks by Schur complement, solving each
landmark's border columns from the row of its first observing pose. No
matrix of pose dimension squared is ever formed. Odometry between poses
that are not neighbouring rows (a loop closure) would leave the band,
so optimize rejects it with a DataError unless the poses are held fixed.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np
import scipy.linalg.lapack

from .errors import DataError, SingularSystemError, UnknownNodeError
from .geometry import (
    CameraIntrinsics,
    Pose,
    compose,
    quat_conjugate,
    quat_from_rotvec,
    quat_mul,
    quat_normalize,
    quat_to_matrix,
    rotvec_from_quat,
    skew,
    unit_pose,
)

_Z_EPS = 1e-9
# tau of the small_step stopping rule (see optimize)
_STEP_TOL = 1e-10
_IDENTITY = np.array([[1.0, 0.0, 0.0, 0.0]])
_IDENTITY_R = quat_to_matrix(_IDENTITY)


def _inv_right_jacobian_so3(phi: np.ndarray) -> np.ndarray:
    """Inverse right Jacobian of the SO(3) log map, stacked (n, 3, 3).

    d/d eps log(R exp(eps)) = Jr_inv(log R) (Sola et al., "A micro Lie
    theory for state estimation in robotics", 2018). The series below
    1e-6 rad keeps it smooth through zero.
    """
    theta2 = np.einsum("ni,ni->n", phi, phi)
    w = skew(phi)
    ww = w @ w
    small = theta2 < 1e-12
    theta = np.sqrt(np.where(small, 1.0, theta2))
    sin_t = np.sin(theta)
    denom = np.where(small, 1.0, 2.0 * theta * sin_t)
    coef = np.where(
        small, 1.0 / 12.0, 1.0 / np.where(small, 1.0, theta2) - (1.0 + np.cos(theta)) / denom
    )
    return np.eye(3) + 0.5 * w + coef[:, None, None] * ww


# ----------------------------------------------------------------------
# factor kernels: the solver evaluates hundreds of factors per
# iteration, so each kernel works on the factors of one type stacked
# along the first axis
# ----------------------------------------------------------------------

def odometry_residual(q_i, t_i, q_j, t_j, q_z, t_z, rot_i, rz_t):
    """Residuals log(Z^-1 X_i^-1 X_j) (n, 6), split as [translation,
    rotation vector], and the intermediates odometry_jacobian takes:
    Delta.t = td, Delta.q = qd, E.q = qe and r_phi = phi, with Delta =
    X_i^-1 X_j and E = Z^-1 Delta. Poses and measurements Z are given as
    quaternions (n, 4) and translations (n, 3); rot_i is
    quat_to_matrix(q_i) and rz_t the transposed quat_to_matrix(q_z).
    """
    td = np.einsum("nba,nb->na", rot_i, t_j - t_i)
    qd = quat_normalize(quat_mul(quat_conjugate(q_i), q_j))
    qe = quat_normalize(quat_mul(quat_conjugate(q_z), qd))
    phi = rotvec_from_quat(qe)
    r = np.concatenate([np.einsum("nab,nb->na", rz_t, td - t_z), phi], axis=1)
    return r, (td, qd, qe, phi)


def odometry_jacobian(rz_t, td, qd, qe, phi) -> np.ndarray:
    """Jacobians [J_i | J_j] (n, 6, 12) of odometry_residual wrt right
    perturbations of X_i and X_j, from its intermediates:
      dr_t/drho_j = E.R, dr_phi/dphi_j = Jr_inv(r_phi)
      dr_t/drho_i = -R_z^T, dr_t/dphi_i = R_z^T [Delta.t]x
      dr_phi/dphi_i = -Jr_inv(r_phi) Delta.R^T, remaining blocks zero.
    """
    jr_inv = _inv_right_jacobian_so3(phi)
    jac = np.zeros((phi.shape[0], 6, 12))
    jac[:, :3, :3] = -rz_t
    jac[:, :3, 3:6] = rz_t @ skew(td)
    jac[:, 3:, 3:6] = -(jr_inv @ np.swapaxes(quat_to_matrix(qd), 1, 2))
    jac[:, :3, 6:9] = quat_to_matrix(qe)
    jac[:, 3:, 9:] = jr_inv
    return jac


def observation_residual(rot, t, landmarks, pixels, k: CameraIntrinsics):
    """Pixel residuals proj(X^-1 l) - z (n, 2), the mask of active
    observations and the camera-frame points p = R^T (l - t) (n, 3), for
    camera poses X given as rotation matrices (n, 3, 3) and translations
    (n, 3). An observation whose landmark is behind the camera is
    deactivated: its mask entry is False and its residual is zero."""
    p = np.einsum("nba,nb->na", rot, landmarks - t)
    active = p[:, 2] > _Z_EPS
    r = np.zeros((active.size, 2))
    pa, px = p[active], pixels[active]
    x, y, z = pa[:, 0], pa[:, 1], pa[:, 2]
    r[active] = np.stack(
        [k.fx * x / z + k.cx - px[:, 0], k.fy * y / z + k.cy - px[:, 1]], axis=1
    )
    return r, active, p


def observation_jacobian(rot, p, active, k: CameraIntrinsics) -> np.ndarray:
    """Jacobians [J_pose | J_landmark] (n, 2, 9) of observation_residual
    from the rotations it took and the points and mask it returned; a
    deactivated observation's rows are zero. With p = R^T (l - t):
      dp/drho = -I, dp/dphi = [p]x, dp/dl = R^T
      dr/dp = [[fx/z, 0, -fx x/z^2], [0, fy/z, -fy y/z^2]].
    """
    jac = np.zeros((active.size, 2, 9))
    p, rot = p[active], rot[active]
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    m = p.shape[0]
    j_pi = np.zeros((m, 2, 3))
    j_pi[:, 0, 0] = k.fx / z
    j_pi[:, 0, 2] = -k.fx * x / (z * z)
    j_pi[:, 1, 1] = k.fy / z
    j_pi[:, 1, 2] = -k.fy * y / (z * z)
    lift = np.concatenate([np.broadcast_to(-np.eye(3), (m, 3, 3)), skew(p)], axis=2)
    jac[active] = np.concatenate([j_pi @ lift, j_pi @ np.swapaxes(rot, 1, 2)], axis=2)
    return jac


def _entry_indices(blocks: list[tuple[np.ndarray, int]]):
    """Where a factor group's normal-equation entries land.

    blocks lists the variables each factor of the group touches: the
    global dof offset of that variable per factor (n,) and its dof
    count. A factor's stacked Jacobian [J_a | J_b | ...] has D columns;
    returns the global row and column of each entry of its D x D
    Hessian (row-major) and the dof of each of its D gradient entries,
    factor-major and flattened.
    """
    dofs = np.concatenate([off[:, None] + np.arange(d) for off, d in blocks], axis=1)
    rows, cols = np.broadcast_arrays(dofs[:, :, None], dofs[:, None, :])
    return rows.ravel(), cols.ravel(), dofs.ravel()


def _cost(r: np.ndarray, info: np.ndarray) -> float:
    """A factor group's cost sum r^T W r from its residuals (n, res)
    and information (n, res, res)."""
    return float(np.einsum("ni,nij,nj->", r, info, r))


def _normal_entries(jac: np.ndarray, r: np.ndarray, info: np.ndarray):
    """Hessian J^T W J (n, D, D) and gradient J^T W r (n, D) of each
    factor from the stacked Jacobians (n, res, D), residuals (n, res)
    and information (n, res, res)."""
    half = np.swapaxes(jac, 1, 2) @ info
    return half @ jac, (half @ r[:, :, None])[:, :, 0]


def _retract(q: np.ndarray, t: np.ndarray, lm: np.ndarray, delta: np.ndarray,
             rot: np.ndarray):
    """State after a step: poses move on the right, pose * exp(delta),
    so the translation step is expressed in the pose frame; landmarks
    move additively. rot is quat_to_matrix(q)."""
    base = 6 * q.shape[0]
    dp = delta[:base].reshape(-1, 6)
    q_new = quat_normalize(quat_mul(q, quat_from_rotvec(dp[:, 3:])))
    t_new = t + np.einsum("nab,nb->na", rot, dp[:, :3])
    return q_new, t_new, lm + delta[base:].reshape(-1, 3)


@dataclass(frozen=True)
class OdometryFactor:
    from_id: int
    to_id: int
    rel: Pose
    information: np.ndarray  # (6, 6)


@dataclass(frozen=True)
class ObservationFactor:
    pose_id: int
    landmark_id: int
    pixel: np.ndarray  # (2,)
    information: np.ndarray  # (2, 2)


@dataclass(frozen=True)
class PriorFactor:
    pose_id: int
    pose: Pose
    information: np.ndarray  # (6, 6)


@dataclass(frozen=True)
class OptimizerConfig:
    max_iterations: int = 100
    min_rel_decrease: float = 1e-9
    gradient_tol: float = 1e-10
    lambda_init: float = 1e-6
    lambda_up: float = 10.0
    lambda_down: float = 0.3
    lambda_max: float = 1e12


# why a solve stopped: the gradient fell below gradient_tol, an accepted
# step decreased the cost by at most min_rel_decrease relative, a damped
# step was no longer than _STEP_TOL relative to the free state (Madsen,
# Nielsen & Tingleff, "Methods for Non-Linear Least Squares Problems",
# 2004, section 3.2), damping reached lambda_max without an acceptable
# step, or max_iterations ran out
STOP_REASONS = ("gradient", "rel_decrease", "small_step", "stalled", "max_iterations")


@dataclass
class SolveReport:
    """What one optimize call did."""
    iterations: int
    initial_cost: float
    final_cost: float
    converged: bool
    lambda_trace: list[float] = field(default_factory=list)
    cost_trace: list[float] = field(default_factory=list)
    # observations behind their camera at the final state
    deactivated_observations: int = 0
    stop_reason: str = "max_iterations"  # one of STOP_REASONS
    # damped steps tried, accepted and rejected: one factorization each
    steps: int = 0


DEFAULT_PRIOR_INFORMATION = np.eye(6) * 1e8
DEFAULT_ODOMETRY_INFORMATION = np.eye(6) * 1e4


# ----------------------------------------------------------------------
# linear algebra of one damped step: the chain graph's arrowhead system
# by banded Cholesky plus a landmark Schur complement (Triggs et al.,
# "Bundle Adjustment - A Modern Synthesis", 2000); odometry off the
# chain is rejected before it gets here
# ----------------------------------------------------------------------

# half-bandwidth of a block-tridiagonal chain of 6-dof poses
_CHAIN_KD = 11


def solve_chain_schur(
    band: np.ndarray, gb: np.ndarray, lm_block: np.ndarray, g_lm: np.ndarray,
    starts: np.ndarray,
) -> np.ndarray | None:
    """Solve [[A, B], [B^T, C]] [dp; dl] = -[g_pose; g_lm].

    A is given by its lower band (LAPACK pbtrf layout, A[i, j] at
    band[i - j, j]; Fortran order factors without a copy), gb = [g_pose
    | B] is one Fortran-ordered (P, 1 + M) block, and C = lm_block is
    (M, M). With A = L L^T and W = L^-1 [g_pose | B], the landmark step
    solves (C - W_B^T W_B) dl = W_B^T w_g - g_lm, and the pose step is
    dp = -L^-T (w_g + W_B dl). Returns [dp; dl], or None when A or the
    Schur complement is not positive definite. band and lm_block are
    overwritten; gb is kept.

    starts holds each landmark's first row s that may be nonzero in its
    three columns of B: 6 x its first observing pose. W is
    zero above s too, so those columns are forward-solved from s on,
    over the band's trailing columns (Triggs et al. 2000, section 6).
    dtbtrs solves each column alone either way, so W keeps the bits of
    the solve over every row; a start of 0 is that solve, and a start of
    P leaves the columns zero.
    """
    p, m = gb.shape[0], gb.shape[1] - 1
    if p:
        chol, info = scipy.linalg.lapack.dpbtrf(band, lower=1, overwrite_ab=1)
        if info != 0:
            return None
        # Fortran order, as dtbtrs returns its solutions, so W_B^T W_B
        # runs the BLAS kernel it ran on a solve over every row
        w = np.zeros((p, 1 + m), order="F")
        w[:, :1] = scipy.linalg.lapack.dtbtrs(chol, gb[:, :1], uplo="L")[0]
        for k, s in enumerate(starts.tolist()):
            if s < p:
                cols = slice(1 + 3 * k, 4 + 3 * k)
                w[s:, cols] = scipy.linalg.lapack.dtbtrs(chol[:, s:], gb[s:, cols],
                                                         uplo="L")[0]
        w_g, w_b = w[:, 0], w[:, 1:]
        schur = lm_block - w_b.T @ w_b
        rhs = w_b.T @ w_g - g_lm
    else:
        schur, rhs = lm_block, -g_lm
    dl = np.zeros(0)
    if m:
        c, info = scipy.linalg.lapack.dpotrf(schur, lower=1, overwrite_a=1)
        if info != 0:
            return None
        dl, _ = scipy.linalg.lapack.dpotrs(c, rhs, lower=1)
    if not p:
        return dl
    dp, _ = scipy.linalg.lapack.dtbtrs(
        chol, -(w_g + w_b @ dl)[:, None], uplo="L", trans="T"
    )
    return np.concatenate([dp[:, 0], dl])


class _Rows:
    """Rows appended along the first axis of a buffer whose capacity
    doubles as it fills; `rows` is the filled part."""

    def __init__(self, row_shape=(), dtype=float):
        self._buf = np.empty((16, *row_shape), dtype)
        self.rows = self._buf[:0]

    def _fit(self, end: int) -> None:
        if end > len(self._buf):
            n = len(self.rows)
            self._buf = np.empty((max(end, 2 * len(self._buf)), *self._buf.shape[1:]),
                                 self._buf.dtype)
            self._buf[:n] = self.rows
            self.rows = self._buf[:n]

    def append(self, new: np.ndarray) -> None:
        self.rows = self.with_tail(new)

    def with_tail(self, tail: np.ndarray) -> np.ndarray:
        """The filled rows followed by tail, written past them without
        appending: the next append or with_tail overwrites it."""
        n = len(self.rows)
        self._fit(n + len(tail))
        self._buf[n:n + len(tail)] = tail
        return self._buf[:n + len(tail)]


class _ChainLayout:
    """Normal equations of a graph whose odometry joins only neighbouring
    pose rows, written straight into block storage: the pose
    chain's lower band, the dense pose x landmark border B and the
    landmark block C (block-diagonal: no factor joins two landmarks).
    With fix_poses the pose block is empty and C is the whole system.

    The graph keeps one layout between solves. Its chain part, the
    prior as row 0 and the odometry factors after it, lives in growing
    buffers: the measurement constants, the storage slot of every
    Hessian entry and the dof of every gradient entry. Each solve
    appends only the chain factors added since the last (append_chain)
    and stacks the observation factors anew (set_observations), which
    merging re-points. Storage is one flat array [discard | band | gB |
    C]: the band in LAPACK's column-major layout, A[i, j] at
    (i - j) + j (kd + 1), so a pose entry's slot depends on (i, j) alone
    and not on the pose count; gB the Fortran-ordered [g_pose | B]
    block; and slot 0 taking every discarded entry (the upper triangle,
    B^T and, with fix_poses, every pose entry). kd is _CHAIN_KD whatever
    the pose count: on a single pose, the band's rows past its sixth are
    padding that no entry reaches. A layout is valid for one prior and
    one fix_poses; poses only ever grow at the end.
    """

    def __init__(self, prior: PriorFactor, fix_poses: bool):
        self.prior, self.fix_poses = prior, fix_poses
        # per odometry factor: the from pose and the information
        self.odo_i = _Rows((), int)
        self.odo_info = _Rows((6, 6))
        # per chain row, the prior as row 0 and odometry factor k as row
        # k + 1: the to pose and the measurement (quaternion,
        # translation, rotation matrix)
        self.rel_j = _Rows((), int)
        self.rel_q = _Rows((4,))
        self.rel_t = _Rows((3,))
        self.rel_r = _Rows((3, 3))
        self._h_slots = _Rows((), np.intp)
        self._g_dofs = _Rows((), np.intp)

    @property
    def n_odometry(self) -> int:
        return len(self.odo_i.rows)

    def append_chain(self, odometry: list[OdometryFactor]) -> None:
        """Stack the prior (on the first call) and the given odometry
        factors after the chain rows. Raises DataError, stacking
        nothing, when poses are solved and a factor joins two poses that
        are not neighbours."""
        first = not len(self.rel_j.rows)
        if not (first or odometry):
            return
        odo_i = np.array([f.from_id for f in odometry], dtype=int)
        odo_j = np.array([f.to_id for f in odometry], dtype=int)
        # odometry between neighbouring pose rows keeps the pose block
        # inside the band
        off_chain = np.abs(odo_i - odo_j) > 1
        if not self.fix_poses and np.any(off_chain):
            f = odometry[int(np.argmax(off_chain))]
            raise DataError(
                f"odometry {f.from_id} -> {f.to_id} joins poses that are not "
                "neighbours; only a chain of poses can be solved"
            )
        rel = [f.rel for f in odometry]
        rel_j = odo_j
        groups = [[(6 * odo_i, 6), (6 * odo_j, 6)]]
        if first:
            # the prior log(P^-1 X) is the odometry residual from the
            # identity to X, so it rides as row 0 of the odometry batch
            prior_id = self.prior.pose_id
            rel = [self.prior.pose] + rel
            rel_j = np.concatenate([[prior_id], odo_j])
            groups.insert(0, [(np.array([6 * prior_id]), 6)])
        rel_q = np.stack([z.rotation for z in rel])
        rows, cols, dofs = zip(*(_entry_indices(blocks) for blocks in groups))
        self.odo_i.append(odo_i)
        self.rel_j.append(rel_j)
        self.rel_q.append(rel_q)
        self.rel_t.append(np.stack([z.translation for z in rel]))
        self.rel_r.append(quat_to_matrix(rel_q))
        self.odo_info.append(np.array([f.information for f in odometry]).reshape(-1, 6, 6))
        self._h_slots.append(self._pose_slots(np.concatenate(rows), np.concatenate(cols)))
        self._g_dofs.append(np.concatenate(dofs))

    def set_observations(self, n_poses: int, observations: list[ObservationFactor],
                         lm_pos: dict[int, int]) -> None:
        """Size the system for n_poses poses, stack the observation
        factors and complete the slots and gradient dofs of every entry,
        in the order _linear_system emits their values: prior, odometry,
        observations."""
        base = self.base = 6 * n_poses
        p = self.p = 0 if self.fix_poses else base
        self.band_end = 1 + (_CHAIN_KD + 1) * p
        m = self.m = 3 * len(lm_pos)
        self.dim = base + m
        self.border_end = self.band_end + p * (1 + m)
        self.size = self.border_end + m * m
        self.obs_p = np.array([f.pose_id for f in observations], dtype=int)
        self.obs_l = np.array([lm_pos[f.landmark_id] for f in observations], dtype=int)
        # per landmark, the first pose row of its border columns: 6 x its
        # first observing pose (the pose count if it has none)
        first = np.full(len(lm_pos), n_poses)
        np.minimum.at(first, self.obs_l, self.obs_p)
        self.lm_start = 6 * first
        if observations:
            self.obs_px = np.stack([f.pixel for f in observations])
            self.obs_info = np.stack([f.information for f in observations])
        rows, cols, dofs = _entry_indices([(6 * self.obs_p, 6), (base + 3 * self.obs_l, 3)])
        pose_r, pose_c = rows < base, cols < base
        # B^T lands in the discard slot 0
        slots = np.zeros(rows.shape, dtype=np.intp)
        pp = pose_r & pose_c
        slots[pp] = self._pose_slots(rows[pp], cols[pp])
        if p:
            pl = pose_r & ~pose_c
            slots[pl] = (self.band_end + (1 + cols - base) * p + rows)[pl]
        ll = ~pose_r & ~pose_c
        slots[ll] = (self.border_end + (rows - base) * m + cols - base)[ll]
        self.h_slots = self._h_slots.with_tail(slots)
        self.g_dofs = self._g_dofs.with_tail(dofs)

    def _pose_slots(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Slots of pose x pose entries: the lower band, or the discard
        slot for the upper triangle and, with fix_poses, every entry."""
        if self.fix_poses:
            return np.zeros(rows.shape, dtype=np.intp)
        return np.where(rows >= cols, 1 + rows - cols + cols * (_CHAIN_KD + 1), 0)

    def assemble(self, vals: np.ndarray, g: np.ndarray):
        """(band, gB, C) from the Hessian entries and the gradient of one
        linearization; band and gB are Fortran-ordered views."""
        store = np.bincount(self.h_slots, vals, minlength=self.size)
        gb = store[self.band_end:self.border_end].reshape(1 + self.m, self.p).T
        gb[:, 0] = g[:self.p]
        return (
            store[1:self.band_end].reshape(self.p, _CHAIN_KD + 1).T,
            gb,
            store[self.border_end:].reshape(self.m, self.m),
        )

    def step(self, system, g: np.ndarray, lam: float) -> np.ndarray | None:
        band, gb, lm_block = system
        damped_band = band.copy(order="F")  # factored in place
        damped_band[0] += np.maximum(band[0], 1e-12) * lam
        damped_lm = lm_block.copy()
        damped_lm[np.diag_indices(self.m)] += np.maximum(np.diagonal(lm_block), 1e-12) * lam
        return solve_chain_schur(damped_band, gb, damped_lm, g[self.base:], self.lm_start)


@dataclass(frozen=True)
class _State:
    """A state of one solve, as arrays in pose and landmark order, with what
    the residual pass computed there for the linear-system pass: the
    chain residuals (prior as row 0) and odometry_residual's
    intermediates, and for the observations (None without any) the pose
    rotations, residuals, active mask and camera-frame points."""
    q: np.ndarray
    t: np.ndarray
    lm: np.ndarray
    rot: np.ndarray  # quat_to_matrix(q)
    odo_r: np.ndarray
    odo_mid: tuple
    obs: tuple | None


class PoseEstimates(Mapping):
    """Pose estimates keyed by row, 0..n-1, stored as growing quaternion
    (n, 4) and translation (n, 3) arrays; only `append` and
    `add_composed` add a row, the next one.

    Reading a row builds its Pose on first access and keeps it until the
    solver rewrites the arrays; assigning a Pose overwrites its row and
    keeps that object, so reads return it unchanged. A read or an
    assignment outside 0..n-1 raises KeyError.
    """

    def __init__(self):
        self._q = _Rows((4,))
        self._t = _Rows((3,))
        self._built: dict[int, Pose] = {}

    def __len__(self) -> int:
        return len(self._q.rows)

    def __iter__(self):
        return iter(range(len(self)))

    def __contains__(self, pid) -> bool:
        return isinstance(pid, Integral) and 0 <= pid < len(self)

    def __getitem__(self, pid) -> Pose:
        pose = self._built.get(pid)
        if pose is None:
            if pid not in self:
                raise KeyError(pid)
            pose = unit_pose(self._q.rows[pid].copy(), self._t.rows[pid].copy())
            self._built[pid] = pose
        return pose

    def __setitem__(self, pid, pose: Pose) -> None:
        if pid not in self:
            raise KeyError(f"pose {pid} is not a row of the graph's {len(self)} poses")
        self._q.rows[pid] = pose.rotation
        self._t.rows[pid] = pose.translation
        self._built[pid] = pose

    def append(self, pose: Pose) -> None:
        """Add pose as the next row, keeping that object."""
        self._built[len(self)] = pose
        self._q.append(pose.rotation[None])
        self._t.append(pose.translation[None])

    def add_composed(self, from_pid, rel: Pose) -> None:
        """Add the next row at `self[from_pid].compose(rel)`, with
        compose's bits, from from_pid's row and without building a Pose.
        Raises ValueError where the result is not finite, as Pose would."""
        q_new, t_new = compose(self._q.rows[from_pid], self._t.rows[from_pid],
                               rel.rotation, rel.translation)
        self._q.append(q_new[None])
        self._t.append(t_new[None])

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Quaternions (n, 4) and translations (n, 3) of every row: the
        stored rows themselves, not copies."""
        return self._q.rows, self._t.rows

    def store(self, q: np.ndarray, t: np.ndarray) -> None:
        """Overwrite every row. One stacked quat_normalize gives each row
        the bits Pose(q[i], t[i]) would hold."""
        self._q.rows[:] = quat_normalize(q)
        self._t.rows[:] = t
        self._built.clear()


class PoseGraph:
    """Mutable graph; pose estimates live in a PoseEstimates mapping
    keyed by frame row (the prior creates pose 0, odometry to the next
    row creates that row) and landmark positions in a dict keyed by id.
    The odometry list only grows: each solve stacks the factors past
    those it stacked before, so an edit of a factor already stacked is
    not seen; a new prior or fix_poses stacks every factor again (see
    _synced_layout)."""

    def __init__(self, intrinsics: CameraIntrinsics):
        self.intrinsics = intrinsics
        self.poses = PoseEstimates()
        self.landmarks: dict[int, np.ndarray] = {}
        self.prior: PriorFactor | None = None
        self.odometry: list[OdometryFactor] = []
        self.observations: list[ObservationFactor] = []
        # the chain system kept between solves (see _ChainLayout)
        self._layout: _ChainLayout | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _check_new_pose(self, pose_id: int, what: str) -> None:
        """Raise UnknownNodeError unless pose_id is the next row."""
        if pose_id != len(self.poses):
            raise UnknownNodeError(
                f"{what} to unknown pose {pose_id}: a new pose must take the "
                f"next row, {len(self.poses)}")

    def add_prior(self, pose_id: int, pose: Pose, information: np.ndarray | None = None) -> None:
        """Gauge prior; on an empty graph it creates pose 0 at `pose`."""
        if self.prior is not None:
            raise ValueError("graph already has its gauge prior")
        info = DEFAULT_PRIOR_INFORMATION if information is None else np.asarray(information, float)
        if pose_id not in self.poses:
            self._check_new_pose(pose_id, "prior")
            self.poses.append(pose)
        self.prior = PriorFactor(pose_id, pose, info)

    def add_odometry(
        self, from_id: int, to_id: int, rel: Pose, information: np.ndarray | None = None
    ) -> None:
        """Relative-motion factor. A new `to` pose must be the next row;
        it is initialized by composing the `from` estimate with the
        measurement."""
        if from_id not in self.poses:
            raise UnknownNodeError(f"odometry from unknown pose {from_id}")
        info = DEFAULT_ODOMETRY_INFORMATION if information is None else np.asarray(information, float)
        if to_id not in self.poses:
            self._check_new_pose(to_id, "odometry")
            self.poses.add_composed(from_id, rel)
        self.odometry.append(OdometryFactor(from_id, to_id, rel, info))

    def add_observation(
        self,
        pose_id: int,
        landmark_id: int,
        pixel: np.ndarray,
        information: np.ndarray,
        landmark_position: np.ndarray | None = None,
    ) -> None:
        """Pixel observation; first reference must supply a landmark
        position to initialize the node."""
        if pose_id not in self.poses:
            raise UnknownNodeError(f"observation from unknown pose {pose_id}")
        if landmark_id not in self.landmarks:
            if landmark_position is None:
                raise UnknownNodeError(
                    f"landmark {landmark_id} has no node and no initial position"
                )
            self.landmarks[landmark_id] = np.asarray(landmark_position, float).copy()
        self.observations.append(ObservationFactor(
            pose_id, landmark_id, np.asarray(pixel, float).copy(),
            np.asarray(information, float).copy(),
        ))

    def merge_landmarks(self, old_id: int, kept_id: int) -> None:
        """Re-point factors of a merged-away landmark at the survivor.
        Merging a landmark into itself, or one without a node, changes
        nothing."""
        if old_id == kept_id or old_id not in self.landmarks:
            return
        if kept_id not in self.landmarks:
            self.landmarks[kept_id] = self.landmarks.pop(old_id)
        else:
            del self.landmarks[old_id]
        self.observations = [
            ObservationFactor(f.pose_id, kept_id, f.pixel, f.information)
            if f.landmark_id == old_id else f
            for f in self.observations
        ]

    # ------------------------------------------------------------------
    # linearization
    # ------------------------------------------------------------------

    def _synced_layout(self, lm_ids: list[int], fix_poses: bool) -> _ChainLayout:
        """The graph's kept layout, extended by the poses and odometry
        added since the last solve and holding the current observations.

        A new prior or a change of fix_poses starts a new layout, which
        stacks every factor from the first through the same append.
        """
        layout = self._layout
        if (layout is None or layout.prior is not self.prior
                or layout.fix_poses != fix_poses):
            layout = self._layout = _ChainLayout(self.prior, fix_poses)
        layout.append_chain(self.odometry[layout.n_odometry:])
        layout.set_observations(len(self.poses), self.observations,
                                {lid: i for i, lid in enumerate(lm_ids)})
        return layout

    def _state_arrays(self, lm_ids: list[int]):
        """Estimates as arrays: quaternions (n, 4) and translations (n, 3)
        in row order and landmark positions (m, 3) in lm_ids order."""
        q, t = self.poses.arrays()
        lm = (
            np.stack([self.landmarks[lid] for lid in lm_ids])
            if lm_ids else np.zeros((0, 3))
        )
        return q, t, lm

    def _residuals(self, q, t, lm, layout: _ChainLayout, rot):
        """Residual pass at the array-valued state: the state with its
        residuals and the kernels' intermediates (a _State), its cost and
        the count of behind-camera observations. rot is quat_to_matrix(q);
        both kernels read their pose rotations from it. The cost sums the
        prior, odometry and observation groups in that order."""
        idx_i, rel_j = layout.odo_i.rows, layout.rel_j.rows
        odo_r, odo_mid = odometry_residual(
            np.concatenate([_IDENTITY, q[idx_i]]),
            np.concatenate([np.zeros((1, 3)), t[idx_i]]),
            q[rel_j], t[rel_j], layout.rel_q.rows, layout.rel_t.rows,
            np.concatenate([_IDENTITY_R, rot[idx_i]]),
            np.swapaxes(layout.rel_r.rows, 1, 2),
        )
        costs = [_cost(odo_r[:1], layout.prior.information[None]),
                 _cost(odo_r[1:], layout.odo_info.rows)]
        obs, deactivated = None, 0
        if layout.obs_p.size:
            idx_p = layout.obs_p
            obs_rot = rot[idx_p]
            obs_r, active, p_cam = observation_residual(
                obs_rot, t[idx_p], lm[layout.obs_l], layout.obs_px, self.intrinsics)
            deactivated = int(np.count_nonzero(~active))
            # a deactivated observation has a zero residual: it costs nothing
            costs.append(_cost(obs_r, layout.obs_info))
            obs = (obs_rot, obs_r, active, p_cam)
        return _State(q, t, lm, rot, odo_r, odo_mid, obs), sum(costs), deactivated

    def _linear_system(self, state: _State, layout: _ChainLayout):
        """Linear-system pass: the Hessian entries (aligned with
        layout.h_slots) and the gradient at a state the residual pass
        returned, from its residuals and intermediates."""
        r = state.odo_r
        jac = odometry_jacobian(np.swapaxes(layout.rel_r.rows, 1, 2), *state.odo_mid)
        parts = [
            # the prior keeps only the J_j half: its X_i is the fixed identity
            _normal_entries(jac[:1, :, 6:], r[:1], layout.prior.information[None]),
            _normal_entries(jac[1:], r[1:], layout.odo_info.rows),
        ]
        if state.obs is not None:
            obs_rot, r, active, p_cam = state.obs
            # a deactivated observation has a zero Jacobian: it keeps its
            # slots with zero values
            jac = observation_jacobian(obs_rot, p_cam, active, self.intrinsics)
            parts.append(_normal_entries(jac, r, layout.obs_info))
        h_parts, g_parts = zip(*parts)
        grad = np.bincount(
            layout.g_dofs, np.concatenate([x.ravel() for x in g_parts]),
            minlength=layout.dim,
        )
        return np.concatenate([x.ravel() for x in h_parts]), grad

    # ------------------------------------------------------------------
    # solve
    # ------------------------------------------------------------------

    def optimize(
        self, cfg: OptimizerConfig | None = None, fix_poses: bool = False
    ) -> SolveReport:
        """Levenberg-Marquardt until convergence or max_iterations.

        Accepted steps strictly decrease the cost; the report carries
        the accepted damping values and the cost after each accepted
        step. Each trial state is scored by the residual pass alone
        (residuals, cost, deactivated count), so a rejected trial costs
        no Jacobian (Madsen, Nielsen & Tingleff 2004, section 3.2). The
        linear-system pass (Jacobians, normal entries, gradient) runs
        at the initial state and at each accepted state the stopping
        tests let through: the states a damped step is taken from. The
        system is assembled only when the gradient test does not stop
        the solve. The solve stops (report.stop_reason, one of
        STOP_REASONS) at the first of:

        * gradient: the largest free gradient entry is below
          cfg.gradient_tol;
        * rel_decrease: an accepted step lowered the cost by at most
          cfg.min_rel_decrease relative;
        * small_step: a damped step delta, before it is tried, satisfies
          |delta| <= tau (|x| + tau) with tau = 1e-10, where x is the
          free state (the poses' translations and the landmark
          positions; the landmarks alone with fix_poses). This is the
          step-size test of Madsen, Nielsen & Tingleff, "Methods for
          Non-Linear Least Squares Problems" (2004), section 3.2
          (MINPACK's xtol). At the rounding floor the cost only
          fluctuates, and without it damping would climb to
          cfg.lambda_max one rejected step at a time;
        * stalled: damping exceeded cfg.lambda_max without an acceptable
          step;
        * max_iterations: cfg.max_iterations steps were accepted.

        fix_poses treats every pose as a hard constraint and solves
        only for landmark positions. This is the exact limit of
        infinite odometry information: a floor on the information
        matrix would still let pixel residuals bend the soft long-chain
        modes of a perfectly consistent trajectory.

        Raises DataError, leaving every estimate unchanged, when poses
        are solved and an odometry factor joins two poses that are not
        neighbouring rows (a loop closure): the solver factors the pose
        block as a band. With fix_poses any odometry is accepted.
        """
        cfg = cfg or OptimizerConfig()
        if self.prior is None:
            raise SingularSystemError("graph has no gauge prior")
        lm_ids = sorted(self.landmarks)
        layout = self._synced_layout(lm_ids, fix_poses)
        dim = layout.dim

        q, t, lm = self._state_arrays(lm_ids)
        lam = cfg.lambda_init
        report = SolveReport(0, 0.0, 0.0, False)
        state, cost_now, deact = self._residuals(q, t, lm, layout, quat_to_matrix(q))
        report.initial_cost = cost_now
        report.cost_trace.append(cost_now)
        report.deactivated_observations = deact

        lo = layout.base if fix_poses else 0

        # structural rank check: every landmark must be referenced by
        # some factor (every pose is created with one). A zero diagonal
        # from behind-camera deactivation is repairable (damping freezes
        # the block for that iteration) and must not raise.
        cov_lm = np.zeros(len(lm_ids), dtype=bool)
        cov_lm[layout.obs_l] = True
        if not np.all(cov_lm):
            lid = lm_ids[int(np.argmin(cov_lm))]
            raise SingularSystemError(f"landmark {lid} has no factor")

        for _ in range(cfg.max_iterations):
            # each iteration starts at the initial state or at an accepted
            # state the rel_decrease test let through, the only states
            # whose gradient and system anything reads
            vals, g = self._linear_system(state, layout)
            gmax = float(np.max(np.abs(g[lo:]))) if dim > lo else 0.0
            if gmax < cfg.gradient_tol:
                report.converged = True
                report.stop_reason = "gradient"
                break
            system = layout.assemble(vals, g)
            # the small_step test's scale: |x| of the free state
            x_norm = math.hypot(np.linalg.norm(state.lm),
                                0.0 if fix_poses else np.linalg.norm(state.t))
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
                q_new, t_new, lm_new = _retract(state.q, state.t, state.lm, delta, state.rot)
                # a trial is scored by its residuals alone
                trial, cost_new, deact = self._residuals(
                    q_new, t_new, lm_new, layout, quat_to_matrix(q_new))
                if cost_new < cost_now:
                    state = trial
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
                # damping exhausted without an acceptable step: stalled.
                # No step was accepted, so g and gmax are the loop head's
                report.converged = gmax < math.sqrt(cfg.gradient_tol)
                report.stop_reason = "stalled"
                break
            if abs(prev_cost - cost_now) <= cfg.min_rel_decrease * max(prev_cost, 1e-300):
                report.converged = True
                report.stop_reason = "rel_decrease"
                break
        else:
            report.converged = False
        self.poses.store(state.q, state.t)
        self.landmarks = {lid: state.lm[i].copy() for i, lid in enumerate(lm_ids)}
        report.final_cost = cost_now
        return report

    # ------------------------------------------------------------------
    # exports
    # ------------------------------------------------------------------

    def landmark_positions(self) -> dict[int, np.ndarray]:
        return {lid: pos.copy() for lid, pos in self.landmarks.items()}


def apply_correction(graph: PoseGraph, landmark_map) -> None:
    """Write optimized landmark positions back into the registry."""
    landmark_map.apply_centroids(graph.landmark_positions())

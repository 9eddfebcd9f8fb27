"""Pose graph with landmark reprojection factors, solved by
Levenberg-Marquardt on the normal equations.

State: one 6-dof node per camera frame (retracted on the right,
pose * exp([rho, phi])) and one 3-dof node per landmark. A pose's id is
its frame's row, 0..n-1, and its row in every solver array: the prior
creates pose 0 and each odometry factor creates the next row, so poses
are added in order and each with a factor. Factors:

* prior on the first pose (gauge fixing), residual log(P^-1 X): the
  odometry residual from the identity to X
* odometry from each pose to the next, residual log(Z^-1 X_i^-1 X_j)
  split as [translation, rotation vector]
* pixel observations of landmarks, residual proj(X^-1 l) - z;
  observations whose landmark sits behind the camera at a state are
  deactivated there: no residual, no Jacobian

Every factor costs r^T W r: the cost is plain least squares. Each
kernel comes in two halves, a residual function that also returns the
intermediates its Jacobian needs and a Jacobian function built from
them. The solver scores a trial state by the residual half alone and
runs the Jacobian half only at the states a damped step is taken from.

The graph is a chain by construction: odometry only joins the last pose
to the next row. With a handful of landmarks the normal equations are
an arrowhead, a block-tridiagonal pose chain plus a thin landmark
border. Linearization sums them by block: each pose's diagonal block
and the block below it from the chain's factors, the few observation
terms scattered onto those sums, and the chain's lower band read out of
the blocks in LAPACK's own band layout. Each chain factor is stacked
once, when it is added, so a solve stacks only the observation factors.
Each damped step factors the band by banded Cholesky and eliminates the
landmarks by Schur complement. No matrix of pose dimension squared is
ever formed.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np
import scipy.linalg.lapack

from .errors import SingularSystemError, UnknownNodeError
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
    u, v = k.project(pa[:, 0], pa[:, 1], pa[:, 2])
    r[active] = np.stack([u - px[:, 0], v - px[:, 1]], axis=1)
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
# "Bundle Adjustment - A Modern Synthesis", 2000)
# ----------------------------------------------------------------------

# half-bandwidth of a block-tridiagonal chain of 6-dof poses
_CHAIN_KD = 11
# an observation factor's terms as _stack_observations places them: from
# its 9 x 9 Hessian (row-major), the pose block, the pose x landmark
# block and the landmark block, then its 9 gradient entries
_H9 = np.arange(81).reshape(9, 9)
_OBS_TERMS = np.concatenate([_H9[:6, :6].ravel(), _H9[:6, 6:].ravel(), _H9[6:, 6:].ravel(),
                             81 + np.arange(9)])


def solve_chain_schur(
    band: np.ndarray, gb: np.ndarray, lm_block: np.ndarray, g_lm: np.ndarray,
) -> np.ndarray | None:
    """Solve [[A, B], [B^T, C]] [dp; dl] = -[g_pose; g_lm].

    A is given by its lower band (LAPACK pbtrf layout, A[i, j] at
    band[i - j, j]; Fortran order factors without a copy), gb = [g_pose
    | B] is one (P, 1 + M) block, and C = lm_block is (M, M). With A =
    L L^T and W = L^-1 [g_pose | B], one banded triangular solve over
    every column, the landmark step solves (C - W_B^T W_B) dl = W_B^T
    w_g - g_lm, and the pose step is dp = -L^-T (w_g + W_B dl). Returns
    [dp; dl], or None when A or the Schur complement is not positive
    definite. band and lm_block are overwritten; gb is kept.
    """
    p, m = gb.shape[0], gb.shape[1] - 1
    if p:
        chol, info = scipy.linalg.lapack.dpbtrf(band, lower=1, overwrite_ab=1)
        if info != 0:
            return None
        w = scipy.linalg.lapack.dtbtrs(chol, gb, uplo="L")[0]
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


def _damped_step(band: np.ndarray, cols: np.ndarray, lam: float,
                 fix_poses: bool) -> np.ndarray | None:
    """solve_chain_schur on the system PoseGraph._linear_system returned,
    its diagonal grown by lam times itself (at least 1e-12 each): the
    step [dp; dl], or only dl with fix_poses, the poses held."""
    base = band.shape[1]
    p = 0 if fix_poses else base
    damped_band = band[:, :p].copy(order="F")  # factored in place
    damped_band[0] += np.maximum(band[0, :p], 1e-12) * lam
    lm_block = cols[base:, 1:]
    damped_lm = lm_block.copy()
    damped_lm[np.diag_indices(len(lm_block))] += np.maximum(np.diagonal(lm_block), 1e-12) * lam
    return solve_chain_schur(damped_band, cols[:p], damped_lm, cols[base:, 0])


class _Rows:
    """Rows appended along the first axis of a buffer whose capacity
    doubles as it fills; `rows` is the filled part."""

    def __init__(self, row_shape=()):
        self._buf = np.empty((16, *row_shape))
        self.rows = self._buf[:0]

    def append(self, new: np.ndarray) -> None:
        n, end = len(self.rows), len(self.rows) + len(new)
        if end > len(self._buf):
            self._buf = np.empty((max(end, 2 * len(self._buf)), *self._buf.shape[1:]))
            self._buf[:n] = self.rows
        self._buf[n:end] = new
        self.rows = self._buf[:end]


@dataclass(frozen=True)
class _Observations:
    """The observation factors of one solve stacked for the solver: each
    factor's pose row p, landmark place l (in the solve's landmark
    order), pixel px and information info, and where its terms
    (_OBS_TERMS) land in the store _linear_system sums into."""
    p: np.ndarray
    l: np.ndarray
    px: np.ndarray
    info: np.ndarray
    at: np.ndarray


def _stack_observations(n_poses: int, observations: list[ObservationFactor],
                        lm_ids: list[int]) -> _Observations:
    """Stack the observation factors of a system of n_poses poses and the
    landmarks lm_ids, in that order. The store is [pose column blocks
    (n, 18, 6) | cols], cols the Fortran-ordered (6 n + m, 1 + m)
    [g | H[:, 6 n:]]."""
    lm_pos = {lid: i for i, lid in enumerate(lm_ids)}
    base, m = 6 * n_poses, 3 * len(lm_ids)
    obs_p = np.array([f.pose_id for f in observations], dtype=int)
    obs_l = np.array([lm_pos[f.landmark_id] for f in observations], dtype=int)
    px = np.array([f.pixel for f in observations]).reshape(-1, 2)
    info = np.array([f.information for f in observations]).reshape(-1, 2, 2)
    pose = 6 * obs_p[:, None] + np.arange(6)
    lm = base + 3 * obs_l[:, None] + np.arange(3)

    def at(rows, col):
        return 18 * base + col * (base + m) + rows

    border = at(pose[:, :, None], lm[:, None, :] - base + 1)
    lm_lm = at(lm[:, :, None], lm[:, None, :] - base + 1)
    obs_at = np.concatenate([
        108 * obs_p[:, None] + np.arange(36),
        border.reshape(-1, 18), lm_lm.reshape(-1, 9), at(pose, 0), at(lm, 0),
    ], axis=1).ravel()
    return _Observations(obs_p, obs_l, px, info, obs_at)


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

    Reading a row builds a Pose from copies of its arrays, with the bits
    the row holds; assigning a Pose writes its row. A read or an
    assignment outside 0..n-1 raises KeyError.
    """

    def __init__(self):
        self._q = _Rows((4,))
        self._t = _Rows((3,))

    def __len__(self) -> int:
        return len(self._q.rows)

    def __iter__(self):
        return iter(range(len(self)))

    def __contains__(self, pid) -> bool:
        return isinstance(pid, Integral) and 0 <= pid < len(self)

    def __getitem__(self, pid) -> Pose:
        if pid not in self:
            raise KeyError(pid)
        return unit_pose(self._q.rows[pid].copy(), self._t.rows[pid].copy())

    def __setitem__(self, pid, pose: Pose) -> None:
        if pid not in self:
            raise KeyError(f"pose {pid} is not a row of the graph's {len(self)} poses")
        self._q.rows[pid] = pose.rotation
        self._t.rows[pid] = pose.translation

    def append(self, pose: Pose) -> None:
        """Add pose as the next row."""
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


def _is_row(pose_id, row: int) -> bool:
    """Whether pose_id is the integer row; a float id such as 1.0 is not."""
    return isinstance(pose_id, Integral) and pose_id == row


def _information(information, default: np.ndarray) -> np.ndarray:
    """The default for None, else the given matrix in the default's shape (ValueError)."""
    info = default if information is None else np.asarray(information, float)
    if info.shape != default.shape:
        raise ValueError(f"information must have shape {default.shape}, not {info.shape}")
    return info


class PoseGraph:
    """Mutable graph; pose estimates live in a PoseEstimates mapping
    keyed by frame row (the prior creates pose 0, each odometry factor
    the next row) and landmark positions in a dict keyed by id.
    `prior`, `odometry` and `observations` record the factors. The
    solver reads the chain's measurements and information from rows
    stacked as each factor is added (row 0 the prior, row k the odometry
    into pose k) and stacks the observations, which merging re-points,
    at each solve."""

    def __init__(self, intrinsics: CameraIntrinsics):
        self.intrinsics = intrinsics
        self.poses = PoseEstimates()
        self.landmarks: dict[int, np.ndarray] = {}
        self.prior: PriorFactor | None = None
        self.odometry: list[OdometryFactor] = []
        self.observations: list[ObservationFactor] = []
        self._chain_q = _Rows((4,))
        self._chain_t = _Rows((3,))
        self._chain_info = _Rows((6, 6))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _stack_chain(self, rel: Pose, info: np.ndarray) -> None:
        """Append a chain factor's measurement and information as the next chain row."""
        self._chain_q.append(rel.rotation[None])
        self._chain_t.append(rel.translation[None])
        self._chain_info.append(info[None])

    def add_prior(self, pose_id: int, pose: Pose, information: np.ndarray | None = None) -> None:
        """Gauge prior; it creates pose 0 at `pose` on an empty graph."""
        if self.prior is not None:
            raise ValueError("graph already has its gauge prior")
        if not _is_row(pose_id, len(self.poses)):
            raise UnknownNodeError(
                f"prior to unknown pose {pose_id!r}: a new pose must take the "
                f"next row, {len(self.poses)}")
        info = _information(information, DEFAULT_PRIOR_INFORMATION)
        self.poses.append(pose)
        self._stack_chain(pose, info)
        self.prior = PriorFactor(pose_id, pose, info)

    def add_odometry(
        self, from_id: int, to_id: int, rel: Pose, information: np.ndarray | None = None
    ) -> None:
        """Relative-motion factor from the last pose to a new pose, the
        next row, initialized by composing the last estimate with the
        measurement. The graph is a chain by construction: any other
        pair of ids (a duplicate or reversed factor, a factor into an
        existing row, a loop closure) raises UnknownNodeError and leaves
        the graph unchanged."""
        n = len(self.poses)
        if not (n and _is_row(from_id, n - 1) and _is_row(to_id, n)):
            raise UnknownNodeError(
                f"odometry {from_id!r} -> {to_id!r} does not extend the chain of "
                f"{n} poses: it must join the last pose to the next row, {n}")
        info = _information(information, DEFAULT_ODOMETRY_INFORMATION)
        self.poses.add_composed(from_id, rel)
        self._stack_chain(rel, info)
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

    def _state_arrays(self, lm_ids: list[int]):
        """Estimates as arrays: quaternions (n, 4) and translations (n, 3)
        in row order and landmark positions (m, 3) in lm_ids order."""
        q, t = self.poses.arrays()
        return q, t, np.array([self.landmarks[lid] for lid in lm_ids]).reshape(-1, 3)

    def _residuals(self, q, t, lm, rot, rz_t, obs: _Observations):
        """Residual pass at the array-valued state: the state with its
        residuals and the kernels' intermediates (a _State), its cost and
        the count of behind-camera observations. rot is quat_to_matrix(q);
        both kernels read their pose rotations from it. rz_t holds the
        chain rows' transposed measurement rotations. The cost sums the
        prior, odometry and observation groups in that order."""
        # chain row k runs from pose k - 1 (the identity for the prior) to pose k
        odo_r, odo_mid = odometry_residual(
            np.concatenate([_IDENTITY, q[:-1]]),
            np.concatenate([np.zeros((1, 3)), t[:-1]]),
            q, t, self._chain_q.rows, self._chain_t.rows,
            np.concatenate([_IDENTITY_R, rot[:-1]]), rz_t,
        )
        info = self._chain_info.rows
        costs = [_cost(odo_r[:1], info[:1]), _cost(odo_r[1:], info[1:])]
        obs_state, deactivated = None, 0
        if obs.p.size:
            obs_rot = rot[obs.p]
            obs_r, active, p_cam = observation_residual(
                obs_rot, t[obs.p], lm[obs.l], obs.px, self.intrinsics)
            deactivated = int(np.count_nonzero(~active))
            # a deactivated observation has a zero residual: it costs nothing
            costs.append(_cost(obs_r, obs.info))
            obs_state = (obs_rot, obs_r, active, p_cam)
        return _State(q, t, lm, rot, odo_r, odo_mid, obs_state), sum(costs), deactivated

    def _linear_system(self, state: _State, rz_t, obs: _Observations):
        """Linear-system pass: the normal equations at a state the
        residual pass returned, from its residuals and intermediates.
        Returns the pose block A's lower band (LAPACK pbtrf layout,
        Fortran-ordered (_CHAIN_KD + 1, 6 n)) and cols, the
        Fortran-ordered (6 n + m, 1 + m) [g | H[:, 6 n:]]: the gradient
        and the landmark columns, the border B above the landmark block C
        (block-diagonal: no factor joins two landmarks).

        A is summed by pose column block: the pose's diagonal block above
        the block below it, then six rows of zeros. Each entry is a sum
        from zero in factor order. A diagonal block sums the prior, the
        jj block of the odometry into the pose and the ii block of the
        odometry out of it, then its observations' pose blocks; the block
        below it is that odometry's ji block. The observations' terms are
        scattered onto those sums.
        """
        n, m = len(state.q), state.lm.size
        r, info = state.odo_r, self._chain_info.rows
        jac = odometry_jacobian(rz_t, *state.odo_mid)
        # the prior keeps only the J_j half: its X_i is the fixed identity
        h_prior, g_prior = _normal_entries(jac[:1, :, 6:], r[:1], info[:1])
        h_odo, g_odo = _normal_entries(jac[1:], r[1:], info[1:])
        store = np.zeros(108 * n + (6 * n + m) * (1 + m))
        blocks = store[:108 * n].reshape(n, 18, 6)
        cols = store[108 * n:].reshape(1 + m, -1).T
        g_pose = cols[:6 * n, 0].reshape(n, 6)
        blocks[0, :6] += h_prior[0]
        blocks[1:, :6] += h_odo[:, 6:, 6:]
        blocks[:-1, :12] += h_odo[:, :, :6]
        g_pose[0] += g_prior[0]
        g_pose[1:] += g_odo[:, 6:]
        g_pose[:-1] += g_odo[:, :6]
        if state.obs is not None:
            obs_rot, r, active, p_cam = state.obs
            # a deactivated observation has a zero Jacobian: its terms are zeros
            jac = observation_jacobian(obs_rot, p_cam, active, self.intrinsics)
            h, g = _normal_entries(jac, r, obs.info)
            terms = np.concatenate([h.reshape(-1, 81), g], axis=1)[:, _OBS_TERMS]
            np.add.at(store, obs.at, terms.ravel())
        # band column 6k + c, A[6k + c + d, 6k + c] for d = 0..11, is
        # entry (c + d, c) of pose k's column block: 7 c + 6 d into its
        # 108 entries
        step = store.itemsize
        band = np.lib.stride_tricks.as_strided(
            blocks, (n, 6, _CHAIN_KD + 1), (108 * step, 7 * step, 6 * step)).copy()
        return band.reshape(6 * n, _CHAIN_KD + 1).T, cols

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
        linear-system pass (Jacobians, the normal equations by block)
        runs at the initial state and at each accepted state the
        stopping tests let through: the states a damped step is taken
        from. The solve stops (report.stop_reason, one of STOP_REASONS)
        at the first of:

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
        """
        cfg = cfg or OptimizerConfig()
        if self.prior is None:
            raise SingularSystemError("graph has no gauge prior")
        lm_ids = sorted(self.landmarks)
        obs = _stack_observations(len(self.poses), self.observations, lm_ids)
        rz_t = np.swapaxes(quat_to_matrix(self._chain_q.rows), 1, 2)
        base = 6 * len(self.poses)
        dim = base + 3 * len(lm_ids)

        q, t, lm = self._state_arrays(lm_ids)
        lam = cfg.lambda_init
        report = SolveReport(0, 0.0, 0.0, False)
        state, cost_now, deact = self._residuals(q, t, lm, quat_to_matrix(q), rz_t, obs)
        report.initial_cost = cost_now
        report.cost_trace.append(cost_now)
        report.deactivated_observations = deact

        lo = base if fix_poses else 0

        # structural rank check: every landmark must be referenced by
        # some factor (every pose is created with one). A zero diagonal
        # from behind-camera deactivation is repairable (damping freezes
        # the block for that iteration) and must not raise.
        cov_lm = np.zeros(len(lm_ids), dtype=bool)
        cov_lm[obs.l] = True
        if not np.all(cov_lm):
            lid = lm_ids[int(np.argmin(cov_lm))]
            raise SingularSystemError(f"landmark {lid} has no factor")

        for _ in range(cfg.max_iterations):
            # each iteration starts at the initial state or at an accepted
            # state the rel_decrease test let through, the only states
            # whose gradient and system anything reads
            band, cols = self._linear_system(state, rz_t, obs)
            # cols[:, 0] is the gradient
            gmax = float(np.max(np.abs(cols[lo:, 0]))) if dim > lo else 0.0
            if gmax < cfg.gradient_tol:
                report.converged = True
                report.stop_reason = "gradient"
                break
            # the small_step test's scale: |x| of the free state
            x_norm = math.hypot(np.linalg.norm(state.lm),
                                0.0 if fix_poses else np.linalg.norm(state.t))
            accepted = small = False
            while lam <= cfg.lambda_max:
                solved = _damped_step(band, cols, lam, fix_poses)
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
                    q_new, t_new, lm_new, quat_to_matrix(q_new), rz_t, obs)
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
                # No step was accepted, so gmax is the loop head's
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

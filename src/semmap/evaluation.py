"""Trajectory and map scoring: rigid alignment (translation-only on a
straight path), absolute trajectory error, landmark precision/recall
against the simulated registry, and per-stage timing aggregation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateConfigurationError, TimestampMismatchError
from .geometry import Pose, Trajectory, quat_from_matrix
from .simulator import SceneObject

STAGE_NAMES = (
    "detection_ingest",
    "candidate_proposal",
    "association_path1",
    "association_path2",
    "landmark_update",
    "landmark_merge",
    "optimize",
)

# how far apart two stamps may lie and still name the same frame: a
# detection frame and its odometry row, an estimate and its ground truth
STAMP_WINDOW = 0.02


def _greedy_matches(candidates) -> list[tuple]:
    """Greedy one-to-one assignment by ascending cost: candidates are
    (cost, a, b) triples, taken cheapest first (ties by a, then b) while
    neither a nor b is used. Returns the taken (a, b, cost) triples in
    ascending order of a."""
    used_a: set = set()
    used_b: set = set()
    picked = []
    for cost, a, b in sorted(candidates):
        if a in used_a or b in used_b:
            continue
        used_a.add(a)
        used_b.add(b)
        picked.append((a, b, cost))
    return sorted(picked)


def match_indices(est: Trajectory, gt: Trajectory) -> tuple[list[tuple[int, int]], int]:
    """Nearest-neighbor timestamp pairing within STAMP_WINDOW.

    Each ground-truth pose is used at most once; closest time gaps win.
    Returns matched (est_index, gt_index) pairs in estimate order and
    the number of estimate poses dropped for lack of a partner.
    """
    if len(est) == 0 or len(gt) == 0:
        return [], len(est)
    gt_stamps = gt.stamps
    candidates = []
    for i, t in enumerate(est.stamps):
        j = int(np.searchsorted(gt_stamps, t))
        for jj in (j - 1, j):
            if 0 <= jj < len(gt_stamps):
                dt = abs(float(gt_stamps[jj] - t))
                if dt <= STAMP_WINDOW:
                    candidates.append((dt, i, jj))
    picked = [(i, j) for i, j, _ in _greedy_matches(candidates)]
    return picked, len(est) - len(picked)


def align_umeyama(est_positions: np.ndarray, gt_positions: np.ndarray) -> Pose:
    """Least-squares rigid transform S with S(est) ~ gt.

    Requires >= 3 non-collinear points.
    """
    p = np.asarray(est_positions, dtype=float).reshape(-1, 3)
    q = np.asarray(gt_positions, dtype=float).reshape(-1, 3)
    if len(p) != len(q):
        raise ValueError("position sets must have equal length")
    if len(p) < 3:
        raise DegenerateConfigurationError(
            f"alignment needs >= 3 matched poses, got {len(p)}"
        )
    mu_p = p.mean(axis=0)
    mu_q = q.mean(axis=0)
    a = p - mu_p
    b = q - mu_q
    cov = b.T @ a / len(p)
    u, s, vt = np.linalg.svd(cov)
    if s[1] <= 1e-12 * max(s[0], 1e-12):
        raise DegenerateConfigurationError(
            "matched positions are collinear; rotation not determined"
        )
    d = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0.0:
        d[2, 2] = -1.0
    rot = u @ d @ vt
    return Pose(rotation=quat_from_matrix(rot), translation=mu_q - rot @ mu_p)


@dataclass(frozen=True)
class AlignedError:
    """Alignment of an estimate onto ground truth plus the
    per-matched-frame translational errors it leaves, one per matched
    (est index, gt index) pair of `pairs`. alignment is "rigid"
    (align_umeyama) or "translation" (the rotation was not
    determined)."""

    transform: Pose
    per_frame_errors: tuple[float, ...]
    rmse: float
    dropped: int = 0
    alignment: str = "rigid"
    pairs: tuple[tuple[int, int], ...] = ()


def evaluate_ate(est: Trajectory, gt: Trajectory) -> AlignedError:
    """Absolute trajectory error after timestamp matching + alignment.

    The alignment is rigid. When the matched ground-truth positions are
    collinear (a straight camera path), the rotation about that line is
    not determined, so the estimate is only shifted by the difference
    of the two centroids, its rotation left as it is.
    """
    pairs, dropped = match_indices(est, gt)
    if len(pairs) < 3:
        raise TimestampMismatchError(
            f"only {len(pairs)} matched timestamps within {STAMP_WINDOW}s"
        )
    p = np.array([est.poses[i].translation for i, _ in pairs])
    q = np.array([gt.poses[j].translation for _, j in pairs])
    try:
        s, alignment = align_umeyama(p, q), "rigid"
    except DegenerateConfigurationError:  # collinear: there are >= 3 pairs
        s = Pose(Pose.identity().rotation, q.mean(axis=0) - p.mean(axis=0))
        alignment = "translation"
    residual = ((s.rotation_matrix() @ p.T).T + s.translation) - q
    errors = np.linalg.norm(residual, axis=1)
    return AlignedError(
        transform=s,
        per_frame_errors=tuple(float(e) for e in errors),
        rmse=float(np.sqrt(np.mean(errors**2))),
        dropped=dropped,
        alignment=alignment,
        pairs=tuple(pairs),
    )


def ate_rmse(est: Trajectory, gt: Trajectory) -> float:
    return evaluate_ate(est, gt).rmse


def _segment_distance(point: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Distance from a point to segment ab."""
    ab = b - a
    denom = float(ab @ ab)
    if denom < 1e-18:
        return float(np.linalg.norm(point - a))
    s = float(np.clip((point - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(point - (a + s * ab)))


@dataclass(frozen=True)
class LandmarkScore:
    precision: float
    recall: float
    mean_centroid_error: float
    matches: tuple[tuple[int, int, float], ...]  # (landmark id, object idx, meters)
    unmatched_landmark_ids: tuple[int, ...]
    unmatched_object_indices: tuple[int, ...]
    dynamic_matches: tuple[tuple[int, int, float], ...]
    empty_map: bool


def score_landmarks(
    landmarks, registry: tuple[SceneObject, ...], duration: float = 0.0
) -> LandmarkScore:
    """Greedy matching of landmarks to true objects.

    A landmark may match an object of the same class whose center lies
    within twice the object's largest extent. Static objects anchor
    precision/recall; an empty map scores precision 1 by convention (it
    makes no false claims) with the empty_map flag raised. Dynamic
    objects are matched against their swept path and reported
    separately: any such match is a contamination signal, and recall is
    computed over static objects only since moving objects are not
    mappable by design.
    """
    lm_list = sorted(landmarks, key=lambda lm: lm.id)
    static_idx = [i for i, o in enumerate(registry) if not o.dynamic]
    dynamic_idx = [i for i, o in enumerate(registry) if o.dynamic]

    pairs = []
    for lm in lm_list:
        for i in static_idx:
            obj = registry[i]
            if obj.class_id != lm.class_id:
                continue
            dist = float(np.linalg.norm(lm.centroid - np.asarray(obj.center)))
            if dist <= 2.0 * max(obj.extent):
                pairs.append((dist, lm.id, i))
    matches = _greedy_matches(pairs)
    used_lm = {lid for lid, _, _ in matches}
    used_obj = {i for _, i, _ in matches}

    dynamic_matches = []
    for lm in lm_list:
        for i in dynamic_idx:
            obj = registry[i]
            if obj.class_id != lm.class_id:
                continue
            a = obj.position_at(0.0)
            b = obj.position_at(duration)
            dist = _segment_distance(np.asarray(lm.centroid, dtype=float), a, b)
            if dist <= 2.0 * max(obj.extent):
                dynamic_matches.append((lm.id, i, dist))

    empty = len(lm_list) == 0
    precision = 1.0 if empty else len(matches) / len(lm_list)
    recall = 1.0 if not static_idx else len(matches) / len(static_idx)
    mean_err = (
        float(np.mean([d for _, _, d in matches])) if matches else float("nan")
    )
    return LandmarkScore(
        precision=precision,
        recall=recall,
        mean_centroid_error=mean_err,
        matches=tuple(matches),
        unmatched_landmark_ids=tuple(lm.id for lm in lm_list if lm.id not in used_lm),
        unmatched_object_indices=tuple(i for i in static_idx if i not in used_obj),
        dynamic_matches=tuple(dynamic_matches),
        empty_map=empty,
    )


@dataclass(frozen=True)
class StageStat:
    mean_ms: float
    max_ms: float
    count: int


@dataclass(frozen=True)
class StageTimings:
    stages: dict[str, StageStat] = field(default_factory=dict)
    no_data: bool = False


def timing_report(trace: dict[str, list[float]]) -> StageTimings:
    """Aggregate per-stage wall-clock samples (seconds) into ms stats.

    One entry per STAGE_NAMES, the stages run_pipeline times. Stages
    with no samples report zeros; a fully empty trace sets the no_data
    flag.
    """
    stages: dict[str, StageStat] = {}
    for name in STAGE_NAMES:
        samples = trace.get(name, [])
        if samples:
            ms = np.asarray(samples, dtype=float) * 1e3
            stages[name] = StageStat(float(ms.mean()), float(ms.max()), len(ms))
        else:
            stages[name] = StageStat(0.0, 0.0, 0)
    return StageTimings(stages=stages, no_data=not any(s.count for s in stages.values()))

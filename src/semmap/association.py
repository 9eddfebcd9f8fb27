"""Landmark registry: gated association, fusion and overlap merging.

A candidate is matched against same-class landmarks inside a validation
gate whose radius grows with the time since the landmark was last
associated,

    r = sqrt((dt / ground_uncertainty) * size),

which absorbs odometry drift accumulated while the object was out of
view. A candidate whose tracklet continues one already mapped skips
the gate and fuses into that tracklet's landmark. When several
landmarks pass the gate the tie is broken by the mean nearest-neighbor
distance from the candidate cloud to each landmark cloud (smaller is
better). Fusion averages centroids weighted by how many candidates a
landmark has absorbed and keeps clouds bounded by voxel thinning.
Landmarks whose bounding volumes overlap are merged into the lower id
until no overlapping pair remains. Each merge
records one entry, absorbed id -> survivor, and an absorbed id resolves
to its live landmark by following those entries on read.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .candidate import Candidate
from .errors import EmptyCloudError
from .geometry import PointCloud, column_bounds

# floor for degenerate (flat) bounding volumes when computing overlap
_FLAT_EPS = 1e-6


@dataclass(frozen=True)
class AssociationConfig:
    """Gate, fusion and merge parameters.

    ground_uncertainty divides the elapsed time inside the gate radius;
    larger values mean slower gate growth. merge_overlap_ratio is
    intersection volume over the smaller bounding volume. Re-matches
    within min_reobservation_interval still update the map but emit no
    pose-graph observation.
    """

    ground_uncertainty: float = 10.0
    merge_overlap_ratio: float = 0.5
    min_reobservation_interval: float = 2.0
    cloud_cap: int = 2048

    def __post_init__(self):
        if self.ground_uncertainty <= 0:
            raise ValueError("ground_uncertainty must be positive")
        if not 0.0 < self.merge_overlap_ratio <= 1.0:
            raise ValueError("merge_overlap_ratio must lie in (0, 1]")
        if self.cloud_cap < 1:
            raise ValueError("cloud_cap must be >= 1")


@dataclass
class Landmark:
    id: int
    class_id: str
    centroid: np.ndarray  # (3,)
    cloud: PointCloud
    size: float
    last_association: float
    n_fused: int = 1
    # last time a pose-graph observation was emitted for this landmark;
    # creation time until the first emission. Kept separate from
    # last_association, which every match resets: under continuous
    # tracking the association clock never reaches the re-observation
    # interval, so spacing emissions by it would starve the graph.
    last_emission: float = 0.0


@dataclass(frozen=True)
class NewLandmark:
    landmark_id: int


@dataclass(frozen=True)
class Matched:
    landmark_id: int
    nn_distance: float | None  # None when the gate held a single landmark
    emit_observation: bool


AssocDecision = NewLandmark | Matched


def gate_radius(dt: float, ground_uncertainty: float, size: float) -> float:
    """Validation gate radius in meters; grows with unobserved time."""
    if dt < 0:
        raise ValueError("dt must be non-negative")
    return math.sqrt((dt / ground_uncertainty) * size)


def nn_cloud_distance(candidate_cloud: PointCloud, landmark_cloud: PointCloud) -> float:
    """Mean distance from each candidate point to its closest landmark point.

    Asymmetric on purpose: the candidate usually covers one viewpoint
    while the landmark cloud accumulates all of them.
    """
    if len(candidate_cloud) == 0 or len(landmark_cloud) == 0:
        raise EmptyCloudError("nn distance needs non-empty clouds")
    dists, _ = cKDTree(landmark_cloud.points).query(candidate_cloud.points, k=1)
    return float(np.mean(dists))


# a point's three cell indices are packed into one uint16 sort key
# while the key range fits: 34**3 keys at most in the pipeline, where
# the edge is size / 32 and size is at least the cloud's extent
_PACK_LIMIT = 2 ** 16
# a negative coordinate at least this large in magnitude stays negative
# when divided by any finite edge (2**-50 / 2**1024 is the smallest
# subnormal), so it cannot change cell by underflowing to -0
_NO_UNDERFLOW = 2.0 ** -50


def voxel_thin(points: np.ndarray, cap: int, edge: float) -> np.ndarray:
    """Deterministic voxel downsample keeping the first point per cell.

    A point's cell is floor(p / edge) per axis, recomputed from the
    coordinates on every pass. The first point of each cell is kept,
    and the kept points stay in input order. The voxel edge doubles
    until at most `cap` points remain, so the result never exceeds the
    cap whatever the input density.

    Cells are grouped by a stable sort. When the three cell spans
    multiply to at most 2**16, the cells, offset by their minimum, are
    packed into one uint16 key, (c0 * s1 + c1) * s2 + c2, which numpy
    sorts by radix. The float64 offsets and keys are exact there: an
    offset is the difference of two integer-valued floats, below 2**16.
    Larger spans fall back to a lexicographic sort of the three cell
    columns.

    Once the edge is at least twice every |p|, each axis holds only the
    cells -1 and 0, and later passes find the same cells until the edge
    overflows to inf and every point shares one cell. If more than
    `cap` cells remain there, the first point is returned at once,
    which is what that overflow pass returns. The shortcut is skipped
    when a negative coordinate is small enough to underflow to -0 on
    the way.

    Raises ValueError when `cap` is below 1, a point is not finite, or
    `points / edge` is not (an edge too small for the coordinates).
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    pts = np.asarray(points, dtype=float)
    if not np.all(np.isfinite(pts)):
        raise ValueError("voxel_thin needs finite points")
    if pts.shape[0] <= cap:
        return pts
    edge = max(edge, 1e-9)
    reach = float(np.abs(pts).max())
    # the edge only grows from here, so one check covers every pass
    if not math.isfinite(reach / edge):
        raise ValueError("points / edge is not finite")
    cols = np.ascontiguousarray(pts.T)
    while True:
        cells = np.floor(cols / edge)
        lo = cells.min(axis=1)
        spans = cells.max(axis=1) - lo + 1.0
        n_keys = spans[0] * spans[1] * spans[2]
        # stable sorts: the first entry of each run of equal cells is
        # the first point of that cell
        if n_keys <= _PACK_LIMIT:
            rel = cells - lo[:, None]
            key = ((rel[0] * spans[1] + rel[1]) * spans[2] + rel[2]).astype(np.uint16)
            order = np.argsort(key, kind="stable")
            ranked = key[order]
            new_run = ranked[1:] != ranked[:-1]
        else:
            order = np.lexsort(cells[::-1])
            ranked = cells[:, order]
            new_run = np.any(ranked[:, 1:] != ranked[:, :-1], axis=0)
        first = order[np.concatenate(([True], new_run))]
        if first.size <= cap:
            return pts[np.sort(first)]
        if edge >= 2.0 * reach and np.all((pts >= 0.0) | (pts <= -_NO_UNDERFLOW)):
            return pts[:1].copy()
        edge *= 2.0


def _thinned_union(a: np.ndarray, b: np.ndarray, size: float,
                   cap: int) -> tuple[PointCloud, float]:
    """The voxel-thinned union of two point sets, and `size` grown to the
    union's largest axis extent (it never shrinks, so earlier growth is
    kept even after thinning trimmed outlying points)."""
    union = np.vstack([a, b])
    lo, hi = column_bounds(union)
    size = max(size, float((hi - lo).max()))
    return PointCloud(voxel_thin(union, cap, edge=size / 32.0)), size


def fuse(lm: Landmark, cand: Candidate, now: float, cfg: AssociationConfig) -> Landmark:
    """Absorb a candidate into a landmark.

    The centroid is the running mean weighted by n_fused; the cloud and
    the size come from `_thinned_union`.
    """
    new_centroid = (lm.n_fused * lm.centroid + cand.map_centroid) / (lm.n_fused + 1)
    cloud, size = _thinned_union(lm.cloud.points, cand.cloud.points, lm.size,
                                 cfg.cloud_cap)
    return replace(
        lm,
        centroid=new_centroid,
        cloud=cloud,
        size=size,
        last_association=now,
        n_fused=lm.n_fused + 1,
    )


Bounds = tuple[np.ndarray, np.ndarray]


def _bounds_overlap_ratio(a: Bounds, b: Bounds) -> float:
    """Intersection volume over the smaller bounding volume, given two
    clouds' (lo, hi) bounds.

    Flat boxes are padded to a tiny thickness so coincident planar
    clouds still count as fully overlapping.
    """
    a_lo, a_hi = a
    b_lo, b_hi = b
    a_ext = np.maximum(a_hi - a_lo, _FLAT_EPS)
    b_ext = np.maximum(b_hi - b_lo, _FLAT_EPS)
    a_hi = a_lo + a_ext
    b_hi = b_lo + b_ext
    inter = np.minimum(a_hi, b_hi) - np.maximum(a_lo, b_lo)
    if np.any(inter <= 0):
        return 0.0
    smaller = min(float(np.prod(a_ext)), float(np.prod(b_ext)))
    return float(np.prod(inter)) / smaller


class LandmarkMap:
    """Single-writer registry of landmarks; ids are never reused.
    merged_into records each merge once, absorbed id -> absorber, in
    absorption order; resolve follows the chain to the survivor."""

    def __init__(self):
        self.landmarks: dict[int, Landmark] = {}
        self.merged_into: dict[int, int] = {}
        self._next_id = 0

    @property
    def aliases(self) -> dict[int, int]:
        """Absorbed id -> surviving id, flat, in absorption order."""
        return {old: self.resolve(old) for old in self.merged_into}

    def __len__(self) -> int:
        return len(self.landmarks)

    def ordered(self) -> list[Landmark]:
        return [self.landmarks[i] for i in sorted(self.landmarks)]

    def resolve(self, landmark_id: int) -> int:
        """Follow merge records to the surviving id."""
        while landmark_id in self.merged_into:
            landmark_id = self.merged_into[landmark_id]
        return landmark_id

    def preselect(self, cand: Candidate, now: float, cfg: AssociationConfig) -> list[Landmark]:
        """Same-class landmarks whose gate contains the candidate centroid."""
        out = []
        for lid in sorted(self.landmarks):
            lm = self.landmarks[lid]
            if lm.class_id != cand.class_id:
                continue
            dt = now - lm.last_association
            if dt < 0:
                dt = 0.0
            r = gate_radius(dt, cfg.ground_uncertainty, cand.size_estimate)
            if np.linalg.norm(lm.centroid - cand.map_centroid) <= r:
                out.append(lm)
        return out

    def associate(
        self,
        cand: Candidate,
        now: float,
        cfg: AssociationConfig,
        timings: dict[str, float] | None = None,
        inherit: int | None = None,
    ) -> AssocDecision:
        """Match-or-create for one candidate; mutates the registry.

        `inherit`, a live landmark id, skips the gate: the candidate is
        fused into that landmark, which emits by the usual interval.

        When `timings` is given, seconds spent in the centroid gate and
        in the cloud nearest-neighbor disambiguation are accumulated
        under 'association_path1' / 'association_path2', and the map
        mutation (create or fuse) under 'landmark_update'. The
        post-solve merge pass is timed by the caller as 'landmark_merge'.
        """
        nn_dist: float | None = None
        if inherit is not None:
            gate = [self.landmarks[inherit]]
        else:
            t0 = time.perf_counter()
            gate = self.preselect(cand, now, cfg)
            t1 = time.perf_counter()
            if timings is not None:
                timings["association_path1"] = (timings.get("association_path1", 0.0)
                                                + (t1 - t0))
        target = gate[0] if gate else None
        if len(gate) > 1:
            nn_dist = math.inf
            for lm in gate:  # gate is id-ordered, ties keep the lower id
                d = nn_cloud_distance(cand.cloud, lm.cloud)
                if d < nn_dist:
                    nn_dist = d
                    target = lm
            if timings is not None:
                timings["association_path2"] = timings.get("association_path2", 0.0) + (
                    time.perf_counter() - t1)

        t3 = time.perf_counter()
        if target is None:
            lid = self._next_id
            self._next_id += 1
            thinned = voxel_thin(
                cand.cloud.points, cfg.cloud_cap, edge=cand.size_estimate / 32.0
            )
            self.landmarks[lid] = Landmark(
                id=lid,
                class_id=cand.class_id,
                centroid=np.asarray(cand.map_centroid, dtype=float).copy(),
                cloud=PointCloud(thinned),
                size=cand.size_estimate,
                last_association=now,
                n_fused=1,
                last_emission=now,
            )
            decision: AssocDecision = NewLandmark(lid)
        else:
            emit = (now - target.last_emission) >= cfg.min_reobservation_interval
            fused = fuse(target, cand, now, cfg)
            if emit:
                fused = replace(fused, last_emission=now)
            self.landmarks[target.id] = fused
            decision = Matched(target.id, nn_dist, emit)
        if timings is not None:
            timings["landmark_update"] = timings.get(
                "landmark_update", 0.0
            ) + (time.perf_counter() - t3)
        return decision

    def merge_overlapping(self, cfg: AssociationConfig) -> list[tuple[int, int]]:
        """Fuse same-class landmarks with overlapping bounding volumes.

        Repeats until no pair overlaps by at least merge_overlap_ratio
        (fixpoint). The higher id is absorbed into the lower; each merge
        is returned and recorded in merged_into as old -> kept.
        """
        records: list[tuple[int, int]] = []
        # each landmark's bounds, computed when a same-class pair first
        # needs them and dropped when a merge changes the landmark
        bounds: dict[int, Bounds] = {}

        def bounds_of(lid: int) -> Bounds:
            if lid not in bounds:
                bounds[lid] = self.landmarks[lid].cloud.bounds()
            return bounds[lid]

        changed = True
        while changed:
            changed = False
            ids = sorted(self.landmarks)
            for i, low in enumerate(ids):
                if changed:
                    break
                for high in ids[i + 1:]:
                    a = self.landmarks[low]
                    b = self.landmarks[high]
                    if a.class_id != b.class_id:
                        continue
                    ratio = _bounds_overlap_ratio(bounds_of(low), bounds_of(high))
                    if ratio < cfg.merge_overlap_ratio:
                        continue
                    self.landmarks[low] = self._merge_pair(a, b, cfg)
                    del self.landmarks[high]
                    bounds.pop(low)
                    bounds.pop(high)
                    self.merged_into[high] = low
                    records.append((high, low))
                    changed = True
                    break
        return records

    @staticmethod
    def _merge_pair(a: Landmark, b: Landmark, cfg: AssociationConfig) -> Landmark:
        total = a.n_fused + b.n_fused
        centroid = (a.n_fused * a.centroid + b.n_fused * b.centroid) / total
        cloud, size = _thinned_union(a.cloud.points, b.cloud.points,
                                     max(a.size, b.size), cfg.cloud_cap)
        return replace(
            a,
            centroid=centroid,
            cloud=cloud,
            size=size,
            last_association=max(a.last_association, b.last_association),
            n_fused=total,
            # the survivor keeps its emission clock: the absorbed
            # landmark is usually freshly created and has emitted
            # nothing, so inheriting its newer stamp would push the
            # next emission out by a full interval per merge
        )

    def apply_centroids(self, positions: dict[int, np.ndarray]) -> None:
        """Overwrite centroids (e.g. from optimized graph estimates).

        Clouds translate rigidly with their centroid so relative
        geometry is preserved and corrected duplicates can merge.
        """
        for lid, new_c in positions.items():
            lid = self.resolve(lid)
            if lid not in self.landmarks:
                continue
            lm = self.landmarks[lid]
            delta = np.asarray(new_c, dtype=float) - lm.centroid
            self.landmarks[lid] = replace(
                lm,
                centroid=lm.centroid + delta,
                cloud=PointCloud(lm.cloud.points + delta),
            )

"""Deterministic synthetic scenes: boxy objects, a look-at camera path,
noisy detections with misses and false positives, and drifted odometry.

Stands in for a detector plus real sensor logs so every pipeline stage
can be exercised and scored against exact ground truth. All randomness
derives from a single seed; per-frame draws are seeded by
(seed, frame_id) so frames can be rendered in any order.

`ground_truth_bundle` computes each frame's camera pose once, as its
ground-truth pose, and renders the frame from it. What stays per frame
is the (seed, frame_id) random stream and one call of the module-level
`render_detections`, through the module global, which the benchmark's
set-up speed probe wraps; `render_detections(world, noise, t)` alone
gives the same frame. Each call projects the corners and centres of all
objects in one stacked pass, with the bits of projecting each object on
its own. The drifted odometry is integrated from stacked relative
motions and noise draws; only the running composition is a loop.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfigurationError, IllPosedScenarioError
from .geometry import (CameraIntrinsics, Pose, Trajectory, matvec, quat_from_matrix,
                       quat_from_rotvec, quat_mul, quat_normalize, quat_to_matrix,
                       relative_motion, unit_pose)
from .tracker import BoundingBox, Measurement

_ODOMETRY_STREAM = 10_000_019  # rng stream tag, disjoint from frame ids
_MIN_BOX_PX = 2.0
_MIN_DEPTH = 0.05

_CORNER_SIGNS = np.array(
    [[sx, sy, sz] for sx in (-0.5, 0.5) for sy in (-0.5, 0.5) for sz in (-0.5, 0.5)]
)


@dataclass(frozen=True)
class SceneObject:
    """Axis-aligned box, static or moving at constant velocity."""

    class_id: str
    center: tuple[float, float, float]
    extent: tuple[float, float, float]
    velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if min(self.extent) <= 0.0:
            raise ValueError("object extent must be positive on every axis")

    @property
    def dynamic(self) -> bool:
        return float(np.linalg.norm(self.velocity)) > 1e-12

    def position_at(self, t: float) -> np.ndarray:
        return np.asarray(self.center) + np.asarray(self.velocity) * t


def _cross(a, b) -> tuple[float, float, float]:
    """a x b of two float 3-sequences, with np.cross's operations."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


_UP = (0.0, 0.0, 1.0)


def look_at_pose(position: np.ndarray, target: np.ndarray) -> Pose:
    """Camera pose at `position` with +z toward `target`, world +z up.

    Image x points right, y points down (ground-plane convention).
    """
    position = np.asarray(position, dtype=float)
    forward = np.asarray(target, dtype=float) - position
    norm = np.linalg.norm(forward)
    if norm < 1e-9:
        raise DegenerateConfigurationError("camera position coincides with target")
    forward = (forward / norm).tolist()
    right = np.array(_cross(forward, _UP))
    r_norm = np.linalg.norm(right)
    if r_norm < 1e-9:
        raise DegenerateConfigurationError("camera looks straight along world z")
    right = (right / r_norm).tolist()
    down = _cross(forward, right)
    rot = np.array([right, down, forward]).T.copy()  # the axes as columns
    return Pose(rotation=quat_from_matrix(rot), translation=position)


@dataclass(frozen=True)
class CameraPathSpec:
    """Piecewise-linear path traversed at constant speed, looking at a
    fixed target. A closed path wraps around for multi-lap scenarios."""

    waypoints: tuple[tuple[float, float, float], ...]
    target: tuple[float, float, float]
    speed: float
    closed: bool = False

    def __post_init__(self):
        if len(self.waypoints) < 1:
            raise ValueError("path needs at least one waypoint")
        if self.speed < 0.0:
            raise ValueError("speed must be non-negative")
        pts = np.asarray(self.waypoints, dtype=float)
        if self.closed and len(pts) > 1:
            pts = np.vstack([pts, pts[0]])
        steps = np.diff(pts, axis=0)
        seg = np.linalg.norm(steps, axis=1)
        # the segments, once per path: each segment's start point, its
        # vector to the next waypoint, its length, and the path length
        # at its end, summed segment by segment
        object.__setattr__(self, "_segments", (
            pts, steps, seg.tolist(), np.cumsum(seg), float(seg.sum())))

    def position_at(self, t: float) -> np.ndarray:
        pts, steps, seg, ends, total = self._segments
        if total < 1e-12 or self.speed == 0.0:
            return pts[0].copy()
        d = self.speed * t
        d = d % total if self.closed else min(d, total)
        # the first segment whose end reaches d; the last takes the rest
        i = min(int(np.searchsorted(ends, d)), len(seg) - 1)
        start = ends[i - 1] if i else 0.0
        a = (d - start) / seg[i] if seg[i] > 0 else 0.0
        return pts[i] + a * steps[i]

    def pose_at(self, t: float) -> Pose:
        return look_at_pose(self.position_at(t), np.asarray(self.target))


@dataclass(frozen=True)
class WorldSpec:
    objects: tuple[SceneObject, ...]
    path: CameraPathSpec
    camera: CameraIntrinsics
    duration: float
    frame_rate: float

    def __post_init__(self):
        if not 0.0 < self.duration < math.inf:
            raise ValueError("duration must be positive and finite")
        if not 0.0 < self.frame_rate < math.inf:
            raise ValueError("frame_rate must be positive and finite")
        if not self.objects:
            raise ValueError("world needs at least one object")

    @property
    def n_frames(self) -> int:
        return int(round(self.duration * self.frame_rate))

    def timestamps(self) -> np.ndarray:
        return np.arange(self.n_frames) / self.frame_rate


@dataclass(frozen=True)
class SensorNoiseSpec:
    """Detection and odometry corruption. Sigmas are standard
    deviations; rates live in [0, 1]. The odometry bias terms model a
    miscalibrated sensor whose error accumulates deterministically,
    which is what makes a loop closure scenario reproducible."""

    box_center_sigma: float = 0.0
    box_size_sigma: float = 0.0
    false_positive_rate: float = 0.0
    missed_detection_rate: float = 0.0
    depth_sigma: float = 0.0
    odom_translation_sigma: float = 0.0
    odom_rotation_sigma: float = 0.0
    odom_translation_bias: tuple[float, float, float] = (0.0, 0.0, 0.0)
    odom_rotation_bias: tuple[float, float, float] = (0.0, 0.0, 0.0)
    seed: int = 0

    def __post_init__(self):
        for name in ("box_center_sigma", "box_size_sigma", "depth_sigma",
                     "odom_translation_sigma", "odom_rotation_sigma"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("false_positive_rate", "missed_detection_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in ("odom_translation_bias", "odom_rotation_bias"):
            value = getattr(self, name)
            if not (isinstance(value, (tuple, list, np.ndarray)) and len(value) == 3
                    and all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                            and abs(v) < math.inf for v in value)):
                raise ValueError(
                    f"{name} must be three finite real numbers, got {value!r:.40}")


@dataclass(frozen=True)
class FrameDetections:
    frame_id: int
    timestamp: float
    detections: tuple[Measurement, ...]


@dataclass(frozen=True)
class ScenarioBundle:
    """Everything the pipeline and the evaluator need for one run."""

    world: WorldSpec
    noise: SensorNoiseSpec
    ground_truth: Trajectory
    odometry: Trajectory
    frames: list[FrameDetections]
    registry: tuple[SceneObject, ...]


def _camera_points(world: WorldSpec, pose: Pose, t: float):
    """Every object's centre (n, 3) and 8 corners (n, 8, 3) at time t, in
    the camera frame of pose. Each object's rows keep the bits of its own
    projection: a centre is R.T @ (c - t) and its corners are
    (corners - t) @ R, stacked over the objects in one matmul each."""
    objects = world.objects
    rot = pose.rotation_matrix()
    centers = (np.array([o.center for o in objects], dtype=float)
               + np.array([o.velocity for o in objects], dtype=float) * t)
    extents = np.array([o.extent for o in objects], dtype=float)
    corners = centers[:, None] + _CORNER_SIGNS * extents[:, None]
    center_cam = matvec(rot.T, centers - pose.translation)
    return center_cam, (corners - pose.translation) @ rot


def _visible(world: WorldSpec, pose: Pose, t: float) -> np.ndarray:
    """Per object, trackable: its centre projects inside the image at
    working range."""
    x, y, z = _camera_points(world, pose, t)[0].T
    k = world.camera
    visible = (0.2 <= z) & (z <= 25.0)
    u = k.fx * x[visible] / z[visible] + k.cx
    v = k.fy * y[visible] / z[visible] + k.cy
    visible[visible] = (0.0 <= u) & (u < k.width) & (0.0 <= v) & (v < k.height)
    return visible


def _true_boxes(world: WorldSpec, center_cam: np.ndarray, corner_cam: np.ndarray):
    """(object index, pixel bounds, centre depth) of each object whose
    corners are all in front of the camera and whose clipped box spans
    at least _MIN_BOX_PX both ways, in object order."""
    k = world.camera
    front = np.flatnonzero((corner_cam[:, :, 2] > _MIN_DEPTH).all(axis=1))
    x, y, z = corner_cam[front].transpose(2, 0, 1)
    us = k.fx * x / z + k.cx
    vs = k.fy * y / z + k.cy
    x_min, x_max = np.maximum(us.min(axis=1), 0.0), np.minimum(us.max(axis=1), float(k.width))
    y_min, y_max = np.maximum(vs.min(axis=1), 0.0), np.minimum(vs.max(axis=1), float(k.height))
    keep = (x_max - x_min >= _MIN_BOX_PX) & (y_max - y_min >= _MIN_BOX_PX)
    boxes = np.stack([x_min, y_min, x_max, y_max], axis=1)[keep]
    return zip(front[keep].tolist(), boxes.tolist(), center_cam[front[keep], 2].tolist())


def render_detections(
    world: WorldSpec, noise: SensorNoiseSpec, t: float, pose: Pose | None = None
) -> list[Measurement]:
    """Noisy detections for the frame at time t, seen from pose, the
    camera pose at t (world.path.pose_at(t) when not given).

    Per visible object the draw order is fixed (miss, box center x/y,
    box size w/h, depth, confidence) so output is a pure function of
    (world, noise, t). False positives follow, Poisson-many.
    """
    if not -1e-9 <= t <= world.duration + 1e-9:
        raise ValueError("t outside scenario duration")
    frame_id = int(round(t * world.frame_rate))
    rng = np.random.default_rng([noise.seed, frame_id])
    if pose is None:
        pose = world.path.pose_at(t)
    k = world.camera
    out: list[Measurement] = []

    for j, box, center_z in _true_boxes(world, *_camera_points(world, pose, t)):
        draws = rng.uniform(size=1)
        jitter = rng.normal(size=5).tolist()
        if draws[0] < noise.missed_detection_rate:
            continue
        x_min, y_min, x_max, y_max = box
        cx = 0.5 * (x_min + x_max) + jitter[0] * noise.box_center_sigma
        cy = 0.5 * (y_min + y_max) + jitter[1] * noise.box_center_sigma
        w = max((x_max - x_min) + jitter[2] * noise.box_size_sigma, _MIN_BOX_PX)
        h = max((y_max - y_min) + jitter[3] * noise.box_size_sigma, _MIN_BOX_PX)
        x0, x1 = max(cx - 0.5 * w, 0.0), min(cx + 0.5 * w, float(k.width))
        y0, y1 = max(cy - 0.5 * h, 0.0), min(cy + 0.5 * h, float(k.height))
        if x1 - x0 < _MIN_BOX_PX or y1 - y0 < _MIN_BOX_PX:
            continue
        depth = max(center_z + jitter[4] * noise.depth_sigma, _MIN_DEPTH)
        confidence = float(rng.uniform(0.5, 1.0))
        out.append(
            Measurement(
                timestamp=t, frame_id=frame_id, class_id=world.objects[j].class_id,
                confidence=confidence, box=BoundingBox(x0, y0, x1, y1),
                depth_hint=depth,
            )
        )

    classes = sorted({o.class_id for o in world.objects})
    for _ in range(rng.poisson(noise.false_positive_rate)):
        cx = rng.uniform(0.1, 0.9) * k.width
        cy = rng.uniform(0.1, 0.9) * k.height
        w = rng.uniform(10.0, 0.25 * k.width)
        h = rng.uniform(10.0, 0.25 * k.height)
        x0, x1 = max(cx - 0.5 * w, 0.0), min(cx + 0.5 * w, float(k.width))
        y0, y1 = max(cy - 0.5 * h, 0.0), min(cy + 0.5 * h, float(k.height))
        if x1 - x0 < _MIN_BOX_PX or y1 - y0 < _MIN_BOX_PX:
            continue
        out.append(
            Measurement(
                timestamp=t, frame_id=frame_id,
                class_id=classes[int(rng.integers(len(classes)))],
                confidence=float(rng.uniform(0.25, 0.9)),
                box=BoundingBox(x0, y0, x1, y1),
                depth_hint=float(rng.uniform(0.5, 20.0)),
            )
        )
    return out


def ground_truth_trajectory(world: WorldSpec) -> Trajectory:
    stamps = world.timestamps()
    return Trajectory.from_pairs(
        [(float(t), world.path.pose_at(float(t))) for t in stamps]
    )


def drift_odometry(gt: Trajectory, noise: SensorNoiseSpec) -> Trajectory:
    """Integrates ground-truth relative motions, each perturbed on the
    tangent space by Gaussian noise plus the configured bias. The first
    pose is exact, so drift is zero at the start and grows with path
    length.

    Each step is `rel.compose(Pose.exp(xi))` with rel the ground truth's
    relative motion, and the odometry pose is the running
    `current.compose(step)`; all of it runs on stacked rows with those
    expressions' bits, and only the running composition is a loop."""
    rng = np.random.default_rng([noise.seed, _ODOMETRY_STREAM])
    n = len(gt)
    if n < 2:
        raise ValueError("drifted odometry needs at least 2 poses")
    q = np.array([p.rotation for p in gt.poses])
    t = np.array([p.translation for p in gt.poses])
    rel_q, rel_t = relative_motion(q, t)
    bias = np.concatenate(
        [np.asarray(noise.odom_translation_bias), np.asarray(noise.odom_rotation_bias)]
    )
    # per step, rng.normal(scale=s, size=3) for the translation and then
    # for the rotation: 0.0 + s * z over the stream's standard normals
    scale = np.repeat([noise.odom_translation_sigma, noise.odom_rotation_sigma], 3)
    xi = (0.0 + scale * rng.standard_normal((n - 1, 6))) + bias
    if not np.isfinite(xi).all():
        raise ValueError("pose fields must be finite")
    exp_q = quat_normalize(quat_from_rotvec(xi[:, 3:]))
    step_q = quat_normalize(quat_normalize(quat_mul(rel_q, exp_q)))
    step_t = rel_t + matvec(quat_to_matrix(rel_q), np.ascontiguousarray(xi[:, :3]))
    q[1:], t[1:] = step_q, step_t
    for i in range(1, n):
        t[i] = t[i - 1] + quat_to_matrix(q[i - 1]) @ t[i]
        q[i] = quat_normalize(quat_normalize(quat_mul(q[i - 1], q[i])))
    if not np.isfinite(t).all():
        raise ValueError("pose fields must be finite")
    return Trajectory(gt.stamps.copy(), [unit_pose(a, b) for a, b in zip(q, t)])


def ground_truth_bundle(
    world: WorldSpec, noise: SensorNoiseSpec, min_track: int = 5
) -> ScenarioBundle:
    """Full scenario package: exact trajectory, drifted odometry,
    per-frame detections, and the object registry for scoring.

    Each frame's camera pose is computed once, as a ground-truth pose,
    and the frame is rendered from it.

    Raises IllPosedScenarioError unless at least one object stays
    trackable (in frame, within working range) for min_track
    consecutive frames."""
    stamps = world.timestamps().tolist()
    gt = ground_truth_trajectory(world)

    run = np.zeros(len(world.objects), dtype=int)
    for t, pose in zip(stamps, gt.poses):
        run = np.where(_visible(world, pose, t), run + 1, 0)
        if run.max() >= min_track:
            break
    else:
        raise IllPosedScenarioError(
            f"no object stays trackable for {min_track} consecutive frames"
        )

    frames = [
        FrameDetections(
            frame_id=i, timestamp=t,
            detections=tuple(render_detections(world, noise, t, pose)),
        )
        for i, (t, pose) in enumerate(zip(stamps, gt.poses))
    ]
    return ScenarioBundle(
        world=world, noise=noise, ground_truth=gt,
        odometry=drift_odometry(gt, noise), frames=frames,
        registry=tuple(world.objects),
    )


# ----------------------------------------------------------------------
# presets
# ----------------------------------------------------------------------

# the camera of every preset, and PipelineConfig's default camera
DEFAULT_CAMERA = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0,
                                  width=640, height=480)

# a long workbench: objects spread to +-0.95 m so that a tight orbit
# sweeps them in and out of the field of view. The visibility gaps let
# the association gate grow between revisits, which is the regime the
# gate law is built for; a camera that stares at every object forever
# would re-propose each one on a sub-second clock with a near-zero gate.
_DESK_OBJECTS = (
    SceneObject("monitor", (0.00, 0.15, 0.96), (0.52, 0.08, 0.36)),
    SceneObject("keyboard", (0.05, -0.28, 0.74), (0.44, 0.16, 0.04)),
    SceneObject("mouse", (0.42, -0.25, 0.74), (0.07, 0.11, 0.05)),
    SceneObject("cup", (-0.75, -0.22, 0.78), (0.14, 0.14, 0.18)),
    SceneObject("plant", (0.92, 0.15, 0.94), (0.22, 0.22, 0.40)),
    SceneObject("lamp", (-0.92, 0.20, 1.04), (0.16, 0.16, 0.50)),
    SceneObject("book", (-0.40, -0.02, 0.76), (0.23, 0.16, 0.06)),
    SceneObject("phone", (0.72, -0.28, 0.73), (0.12, 0.20, 0.05)),
)


def _orbit(radius: float, height: float, n: int = 72):
    return tuple(
        (radius * math.cos(2 * math.pi * i / n),
         radius * math.sin(2 * math.pi * i / n), height)
        for i in range(n)
    )


def desk_preset(
    seed: int = 0, duration: float = 20.0, frame_rate: float = 30.0,
    laps: float = 2.5, **noise_overrides,
) -> tuple[WorldSpec, SensorNoiseSpec]:
    """Eight static desk objects, camera orbiting the desk center.

    The orbit is tight relative to the object spread, so peripheral
    objects leave the view for seconds at a time and re-entries exercise
    the time-grown association gate (and close loops under drift).
    """
    radius = 0.9
    speed = laps * 2.0 * math.pi * radius / duration
    world = WorldSpec(
        objects=_DESK_OBJECTS,
        path=CameraPathSpec(
            waypoints=_orbit(radius, 1.45), target=(0.0, 0.0, 0.85),
            speed=speed, closed=True,
        ),
        camera=DEFAULT_CAMERA, duration=duration, frame_rate=frame_rate,
    )
    defaults = dict(
        box_center_sigma=1.0, box_size_sigma=1.0, false_positive_rate=0.05,
        missed_detection_rate=0.02, depth_sigma=0.02,
        odom_translation_sigma=0.005, odom_rotation_sigma=math.radians(0.1),
        seed=seed,
    )
    defaults.update(noise_overrides)
    return world, SensorNoiseSpec(**defaults)


def walking_preset(seed: int = 0, **noise_overrides) -> tuple[WorldSpec, SensorNoiseSpec]:
    """Low frame-rate scene with one person walking through the view.

    At 4 Hz a 0.7 m/s walker moves about 0.18 m between frames, so the
    spread of its per-frame centroids clears the default dynamic-object
    threshold while the static furniture stays well below it."""
    statics = (
        SceneObject("chair", (-1.2, 2.0, 0.45), (0.45, 0.45, 0.9)),
        SceneObject("table", (0.0, 2.4, 0.38), (1.2, 0.7, 0.76)),
        SceneObject("shelf", (1.4, 2.2, 0.90), (0.8, 0.3, 1.8)),
        SceneObject("bin", (2.0, 1.2, 0.25), (0.3, 0.3, 0.5)),
    )
    person = SceneObject(
        "person", (4.0, 10.0, 0.85), (0.5, 0.5, 1.7), velocity=(-0.4, -0.574, 0.0)
    )
    world = WorldSpec(
        objects=statics + (person,),
        path=CameraPathSpec(
            waypoints=((-1.0, -6.0, 1.5), (1.0, -6.0, 1.5)),
            target=(0.0, 2.0, 0.9), speed=2.0 / 30.0,
        ),
        camera=DEFAULT_CAMERA, duration=30.0, frame_rate=4.0,
    )
    defaults = dict(
        box_center_sigma=1.0, box_size_sigma=1.0, false_positive_rate=0.05,
        missed_detection_rate=0.02, depth_sigma=0.02,
        odom_translation_sigma=0.002, odom_rotation_sigma=math.radians(0.05),
        seed=seed,
    )
    defaults.update(noise_overrides)
    return world, SensorNoiseSpec(**defaults)


def drift_loop_preset(seed: int = 0, **noise_overrides) -> tuple[WorldSpec, SensorNoiseSpec]:
    """Two laps around the desk with a deterministic odometry yaw bias.

    Raw odometry drifts far enough during lap two that small objects
    fall outside their association gates and duplicate, while large
    objects still re-associate and close the loop. The outermost desk
    objects are pulled inside the orbit ring: a grazing pass meters
    from a biased trajectory yields centroids too scattered to merge
    back after correction."""
    world, _ = desk_preset(seed=seed, duration=24.0, frame_rate=15.0, laps=2.0)
    pulled = {"lamp": (-0.80, 0.20, 1.04), "plant": (0.82, 0.15, 0.94)}
    world = dataclasses.replace(
        world,
        objects=tuple(
            dataclasses.replace(o, center=pulled[o.class_id])
            if o.class_id in pulled else o
            for o in world.objects
        ),
    )
    defaults = dict(
        box_center_sigma=1.0, box_size_sigma=1.0, false_positive_rate=0.02,
        missed_detection_rate=0.02, depth_sigma=0.02,
        odom_translation_sigma=0.001, odom_rotation_sigma=math.radians(0.02),
        odom_rotation_bias=(0.0, 2.0e-3, 0.0),
        seed=seed,
    )
    defaults.update(noise_overrides)
    return world, SensorNoiseSpec(**defaults)


PRESETS = {
    "desk": desk_preset,
    "walking": walking_preset,
    "drift_loop": drift_loop_preset,
}

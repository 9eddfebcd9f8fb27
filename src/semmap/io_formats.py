"""File formats: TUM trajectories, detection logs, object registries,
landmark map documents, PLY clouds, g2o-style graph dumps, and scenario
configs.

Every writer prints floats with fixed formatting so identical inputs
produce byte-identical files; every parser reports the offending line
number on malformed input. JSON files are read only by read_json and
written by write_json, or with its bytes by write_landmark_map, which
streams the largest document; a malformed JSON document raises
ConfigParseError.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from typing import Iterable

import numpy as np

from .association import Landmark, LandmarkMap
from .errors import (
    ConfigParseError,
    FormatError,
    MalformedLineError,
    NonUnitQuaternionError,
)
from .geometry import PointCloud, Pose, Trajectory
from .simulator import (
    CameraPathSpec,
    CameraIntrinsics,
    FrameDetections,
    PRESETS,
    SceneObject,
    SensorNoiseSpec,
    WorldSpec,
)
from .tracker import BoundingBox, Measurement, check_class_id

logger = logging.getLogger("semmap")

_QUAT_NORM_TOL = 1e-3


def config_hash(text: str) -> str:
    """Stable fingerprint of a config's canonical text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _parse_float(token: str, line_no: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise MalformedLineError(f"unparseable {what}: {token!r}", line=line_no)
    if not math.isfinite(value):
        raise MalformedLineError(f"non-finite {what}: {token!r}", line=line_no)
    return value


# ----------------------------------------------------------------------
# TUM trajectories: `timestamp tx ty tz qx qy qz qw`
# ----------------------------------------------------------------------

def parse_tum_trajectory(path: str) -> Trajectory:
    """Parses a TUM-format file; '#' lines and blank lines are skipped.

    Quaternions off unit norm by at most 1e-3 are renormalized; larger
    deviations are rejected. File order must be strictly increasing in
    time.
    """
    pairs: list[tuple[float, Pose]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != 8:
                raise MalformedLineError(
                    f"expected 8 fields, got {len(tokens)}", line=line_no
                )
            vals = [_parse_float(t, line_no, "field") for t in tokens]
            stamp = vals[0]
            tx, ty, tz, qx, qy, qz, qw = vals[1:]
            norm = (qw * qw + qx * qx + qy * qy + qz * qz) ** 0.5
            if abs(norm - 1.0) > _QUAT_NORM_TOL:
                raise NonUnitQuaternionError(
                    f"quaternion norm {norm:.6f} too far from 1", line=line_no
                )
            pose = Pose(
                rotation=np.array([qw, qx, qy, qz]) / norm,
                translation=np.array([tx, ty, tz]),
            )
            pairs.append((stamp, pose))
    if not pairs:
        logger.warning("trajectory file %s contains no poses", path)
        return Trajectory([], [])
    try:
        return Trajectory.from_pairs(pairs)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_tum_trajectory(
    path: str, traj: Trajectory, header_lines: Iterable[str] = ()
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# timestamp tx ty tz qx qy qz qw\n")
        for line in header_lines:
            fh.write(f"# {line}\n")
        for stamp, pose in traj:
            qw, qx, qy, qz = pose.rotation
            tx, ty, tz = pose.translation
            fh.write(
                f"{stamp:.10f} {tx:.10f} {ty:.10f} {tz:.10f} "
                f"{qx:.10f} {qy:.10f} {qz:.10f} {qw:.10f}\n"
            )


# ----------------------------------------------------------------------
# detection log: `timestamp frame_id class_id confidence
#                 x_min y_min x_max y_max depth_hint`
# ----------------------------------------------------------------------

def write_detection_log(
    path: str, frames: Iterable[FrameDetections], header_lines: Iterable[str] = ()
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            "# timestamp frame_id class_id confidence "
            "x_min y_min x_max y_max depth_hint\n"
        )
        for line in header_lines:
            fh.write(f"# {line}\n")
        for frame in frames:
            for m in frame.detections:
                check_class_id(m.class_id)
                fh.write(
                    f"{m.timestamp:.10f} {m.frame_id} {m.class_id} "
                    f"{m.confidence:.6f} {m.box.x_min:.6f} {m.box.y_min:.6f} "
                    f"{m.box.x_max:.6f} {m.box.y_max:.6f} {m.depth_hint:.10f}\n"
                )


def parse_detection_log(path: str) -> list[FrameDetections]:
    """Groups records by frame id; frames come back in time order. All
    records of one frame id must carry the same timestamp."""
    by_frame: dict[int, list[Measurement]] = {}
    stamps: dict[int, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != 9:
                raise MalformedLineError(
                    f"expected 9 fields, got {len(tokens)}", line=line_no
                )
            stamp = _parse_float(tokens[0], line_no, "timestamp")
            try:
                frame_id = int(tokens[1])
            except ValueError:
                raise MalformedLineError(
                    f"unparseable frame_id: {tokens[1]!r}", line=line_no
                )
            nums = [_parse_float(t, line_no, "field") for t in tokens[3:]]
            try:
                meas = Measurement(
                    timestamp=stamp, frame_id=frame_id, class_id=tokens[2],
                    confidence=nums[0],
                    box=BoundingBox(nums[1], nums[2], nums[3], nums[4]),
                    depth_hint=nums[5],
                )
            except ValueError as exc:
                raise MalformedLineError(str(exc), line=line_no) from exc
            if stamps.setdefault(frame_id, stamp) != stamp:
                raise MalformedLineError(
                    f"frame {frame_id} has timestamp {tokens[0]}, but its earlier "
                    f"records have {stamps[frame_id]!r}", line=line_no
                )
            by_frame.setdefault(frame_id, []).append(meas)
    frames = [
        FrameDetections(frame_id=fid, timestamp=stamps[fid],
                        detections=tuple(by_frame[fid]))
        for fid in sorted(by_frame, key=lambda f: (stamps[f], f))
    ]
    return frames


# ----------------------------------------------------------------------
# JSON documents: every JSON file is read by read_json and written with
# write_json's bytes
# ----------------------------------------------------------------------

def read_json(path) -> dict:
    """Decode a JSON file whose top level must be an object.

    Decode errors and any other top-level value raise ConfigParseError,
    with the line and column where the decoder gives them.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigParseError(f"col {exc.colno}: {exc.msg}", line=exc.lineno) from exc
    return _expect(doc, dict, "the top level of a JSON document")


def write_json(path, doc: dict, indent: int | None = None) -> None:
    """Write `doc` with sorted keys and a trailing newline; indent=None
    gives the compact one-line layout."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=indent, sort_keys=True) + "\n")


_KIND_NAMES = {dict: "an object", list: "an array", str: "a string", int: "an integer"}
# what a well-formed JSON document with a wrong field raises on the way
# into the package's types (an integer too large for a float overflows)
_FIELD_ERRORS = (KeyError, TypeError, ValueError, ArithmeticError)


def _expect(value, kind: type, what: str):
    """`value` when it has the JSON type `kind`, else ConfigParseError."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigParseError(f"{what} must be {_KIND_NAMES[kind]}, got {value!r:.40}")
    return value


def _vec3(value, what: str) -> tuple:
    """Three finite JSON numbers, kept as given."""
    if not (isinstance(value, list) and len(value) == 3
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    and math.isfinite(v) for v in value)):
        raise ConfigParseError(f"{what} must be 3 finite numbers, got {value!r:.40}")
    return tuple(value)


def _scene_object(o) -> SceneObject:
    o = _expect(o, dict, "an object record")
    return SceneObject(
        class_id=_expect(o["class_id"], str, "class_id"),
        center=_vec3(o["center"], "center"),
        extent=_vec3(o["extent"], "extent"),
        velocity=_vec3(o.get("velocity", [0.0, 0.0, 0.0]), "velocity"),
    )


# ----------------------------------------------------------------------
# object registry (JSON)
# ----------------------------------------------------------------------

def write_registry(path: str, registry: Iterable[SceneObject],
                   extra: dict | None = None) -> None:
    doc = {
        "objects": [
            {
                "class_id": o.class_id,
                "center": list(o.center),
                "extent": list(o.extent),
                "velocity": list(o.velocity),
                "dynamic": o.dynamic,
            }
            for o in registry
        ],
    }
    if extra:
        doc.update(extra)
    write_json(path, doc, indent=2)


def parse_registry(path: str) -> tuple[SceneObject, ...]:
    doc = read_json(path)
    try:
        return tuple(_scene_object(o) for o in _expect(doc["objects"], list, "objects"))
    except _FIELD_ERRORS as exc:
        raise ConfigParseError(f"bad registry document: {exc}") from exc


# ----------------------------------------------------------------------
# landmark map document (JSON)
# ----------------------------------------------------------------------

def write_landmark_map(path: str, lm_map: LandmarkMap,
                       extra: dict | None = None) -> None:
    """Write the map document on one line; `extra` adds top-level keys.

    The bytes are those of write_json, json.dumps(doc, sort_keys=True)
    plus a newline, but the document is streamed: top-level keys in
    sorted order, each landmark record dumped on its own, so no string
    of the whole document is ever built.
    """
    landmarks = object()  # stands for the streamed record list
    doc = {
        "landmarks": landmarks,
        "aliases": {str(k): v for k, v in sorted(lm_map.aliases.items())},
    }
    if extra:
        doc.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{")
        for n, key in enumerate(sorted(doc)):
            if n:
                fh.write(", ")
            if doc[key] is not landmarks:
                # one key-value pair exactly as json.dumps writes it
                fh.write(json.dumps({key: doc[key]}, sort_keys=True)[1:-1])
                continue
            fh.write(json.dumps({key: []})[1:-2])
            for i, lm in enumerate(lm_map.ordered()):
                if i:
                    fh.write(", ")
                fh.write(json.dumps({
                    "id": lm.id,
                    "class_id": lm.class_id,
                    "centroid": lm.centroid.tolist(),
                    "size": float(lm.size),
                    "n_fused": lm.n_fused,
                    "last_association": float(lm.last_association),
                    "last_emission": float(lm.last_emission),
                    "points": lm.cloud.points.tolist(),
                }, sort_keys=True))
            fh.write("]")
        fh.write("}\n")


def _landmark(rec) -> Landmark:
    rec = _expect(rec, dict, "a landmark record")
    return Landmark(
        id=_expect(rec["id"], int, "id"),
        class_id=_expect(rec["class_id"], str, "class_id"),
        centroid=np.array(_vec3(rec["centroid"], "centroid"), dtype=float),
        cloud=PointCloud(np.array(rec["points"], dtype=float).reshape(-1, 3)),
        size=float(rec["size"]),
        last_association=float(rec["last_association"]),
        n_fused=_expect(rec["n_fused"], int, "n_fused"),
        last_emission=float(rec.get("last_emission", rec["last_association"])),
    )


def parse_landmark_map(path: str) -> LandmarkMap:
    """The map a document describes. Each alias must point at a landmark
    of the document whose id has no alias itself, as in the flat table
    write_landmark_map writes, so every alias resolves in one step, and
    no alias may carry the id of a landmark of the document: resolve
    would then send that live landmark's id to another."""
    doc = read_json(path)
    lm_map = LandmarkMap()
    try:
        for rec in _expect(doc["landmarks"], list, "landmarks"):
            lm = _landmark(rec)
            lm_map.landmarks[lm.id] = lm
        aliases = _expect(doc.get("aliases", {}), dict, "aliases")
        lm_map.merged_into = {int(k): _expect(v, int, "an alias target")
                              for k, v in aliases.items()}
    except _FIELD_ERRORS as exc:
        raise ConfigParseError(f"bad landmark map document: {exc}") from exc
    for old, kept in lm_map.merged_into.items():
        if old in lm_map.landmarks:
            raise ConfigParseError(
                f"bad landmark map document: alias {old} -> {kept} has the id "
                "of a landmark of the map")
        if kept not in lm_map.landmarks or kept in lm_map.merged_into:
            raise ConfigParseError(
                f"bad landmark map document: alias {old} -> {kept} does not "
                "point at an unaliased landmark")
    ids = list(lm_map.landmarks) + list(lm_map.merged_into)
    lm_map._next_id = max(ids, default=-1) + 1
    return lm_map


# ----------------------------------------------------------------------
# PLY cloud export (ASCII)
# ----------------------------------------------------------------------

def write_ply(path: str, points: np.ndarray) -> None:
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(points)}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        fh.write("end_header\n")
        for x, y, z in points:
            fh.write(f"{x:.8f} {y:.8f} {z:.8f}\n")


# ----------------------------------------------------------------------
# g2o-style graph dump
# ----------------------------------------------------------------------

_LANDMARK_ID_OFFSET = 1_000_000


def _info_upper(info: np.ndarray) -> str:
    info = np.asarray(info, dtype=float)
    n = info.shape[0]
    vals = [info[i, j] for i in range(n) for j in range(i, n)]
    return " ".join(f"{v:.10f}" for v in vals)


def write_g2o(path: str, graph, header_lines: Iterable[str] = ()) -> None:
    """Text dump of the factor graph.

    Poses become VERTEX_SE3:QUAT (x y z qx qy qz qw), landmarks become
    VERTEX_TRACKXYZ with ids offset by 1000000 to keep the two id
    spaces disjoint. Odometry edges are EDGE_SE3:QUAT with the 21
    upper-triangular information entries; pixel observations use a
    custom EDGE_SE3_TRACKXYZ_PIXEL record (u v + 3 upper-triangular
    information entries) since standard g2o has no pinhole-pixel edge.
    The prior pose is marked FIX.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        for pid in sorted(graph.poses):
            p = graph.poses[pid]
            qw, qx, qy, qz = p.rotation
            tx, ty, tz = p.translation
            fh.write(
                f"VERTEX_SE3:QUAT {pid} {tx:.10f} {ty:.10f} {tz:.10f} "
                f"{qx:.10f} {qy:.10f} {qz:.10f} {qw:.10f}\n"
            )
        for lid in sorted(graph.landmarks):
            x, y, z = graph.landmarks[lid]
            fh.write(
                f"VERTEX_TRACKXYZ {lid + _LANDMARK_ID_OFFSET} "
                f"{x:.10f} {y:.10f} {z:.10f}\n"
            )
        if graph.prior is not None:
            fh.write(f"FIX {graph.prior.pose_id}\n")
        for f in graph.odometry:
            qw, qx, qy, qz = f.rel.rotation
            tx, ty, tz = f.rel.translation
            fh.write(
                f"EDGE_SE3:QUAT {f.from_id} {f.to_id} "
                f"{tx:.10f} {ty:.10f} {tz:.10f} "
                f"{qx:.10f} {qy:.10f} {qz:.10f} {qw:.10f} "
                f"{_info_upper(f.information)}\n"
            )
        for f in graph.observations:
            fh.write(
                f"EDGE_SE3_TRACKXYZ_PIXEL {f.pose_id} "
                f"{f.landmark_id + _LANDMARK_ID_OFFSET} "
                f"{f.pixel[0]:.10f} {f.pixel[1]:.10f} "
                f"{_info_upper(f.information)}\n"
            )


# ----------------------------------------------------------------------
# scenario config (JSON): either a preset reference or an explicit world
# ----------------------------------------------------------------------

def parse_scenario_config(path: str) -> tuple[WorldSpec, SensorNoiseSpec]:
    """Loads a scenario from JSON.

    Preset form: {"preset": "desk", "seed": 3, "noise": {...overrides}}
    plus optional preset arguments (duration, frame_rate). Explicit
    form: {"world": {objects, path, camera, duration, frame_rate},
    "noise": {...}}. The seed, wherever it is given, must be a
    non-negative integer.
    """
    doc = read_json(path)
    try:
        world, noise = _scenario(doc)
    except _FIELD_ERRORS as exc:
        raise ConfigParseError(f"bad scenario config: {exc}") from exc
    if _expect(noise.seed, int, "seed") < 0:
        raise ConfigParseError(f"seed must be non-negative, got {noise.seed}")
    return world, noise


def _scenario(doc: dict) -> tuple[WorldSpec, SensorNoiseSpec]:
    if "preset" in doc:
        name = doc["preset"]
        if name not in PRESETS:
            raise ConfigParseError(
                f"unknown preset {name!r}; available: {sorted(PRESETS)}"
            )
        kwargs = {k: v for k, v in doc.items() if k not in ("preset", "noise")}
        overrides = doc.get("noise", {})
        return PRESETS[name](**kwargs, **overrides)
    if "world" not in doc:
        raise ConfigParseError("config needs either 'preset' or 'world'")
    w = doc["world"]
    world = WorldSpec(
        objects=tuple(_scene_object(o) for o in w["objects"]),
        path=CameraPathSpec(
            waypoints=tuple(_vec3(p, "waypoint") for p in w["path"]["waypoints"]),
            target=_vec3(w["path"]["target"], "target"),
            speed=float(w["path"]["speed"]),
            closed=bool(w["path"].get("closed", False)),
        ),
        camera=CameraIntrinsics(**w["camera"]),
        duration=float(w["duration"]),
        frame_rate=float(w["frame_rate"]),
    )
    noise = SensorNoiseSpec(**{
        k: tuple(v) if isinstance(v, list) else v
        for k, v in doc.get("noise", {}).items()
    })
    return world, noise

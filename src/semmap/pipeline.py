"""Online mapping pipeline: detections + odometry in, landmark map and
corrected trajectory out.

One loop runs per odometry frame: track the frame's detections, propose
a localized candidate for each promoted tracklet, associate the accepted
candidates with the landmark map, and optimize the pose graph on a
frame that emitted an observation factor when no solve ran in the last
min_reobservation_interval seconds. A run whose last observation came
after its last solve ends with one more solve.

A tracklet that continues a promoted one (its tracker parent) fuses
straight into the landmark its parent's candidate went to, resolved
through merges, without the gate; the MAD gate still judges it first.
Candidates are localized on raw odometry, so the candidate stream never
depends on when the optimizer last ran. Duplicate landmarks are a
designed-for consequence: under odometry drift a revisited object can
fall outside its own validation gate and spawn a second landmark. Both
keep emitting observations, the optimizer pulls them together, and the
overlap merge collapses them.
"""
import json
import logging
import math
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from .association import AssociationConfig, LandmarkMap, Matched
from .candidate import Views, propose_candidate
from .errors import TimestampMismatchError
from .evaluation import (
    STAGE_NAMES,
    STAMP_WINDOW,
    evaluate_ate,
    score_landmarks,
    timing_report,
)
from .geometry import CameraIntrinsics, Trajectory, relative_poses
from .io_formats import (
    config_hash,
    parse_detection_log,
    parse_landmark_map,
    parse_registry,
    parse_scenario_config,
    parse_tum_trajectory,
    read_json,
    write_detection_log,
    write_g2o,
    write_json,
    write_landmark_map,
    write_registry,
    write_tum_trajectory,
)
from .posegraph import (
    STOP_REASONS,
    OptimizerConfig,
    PoseGraph,
    SolveReport,
    apply_correction,
)
from .simulator import DEFAULT_CAMERA, ground_truth_bundle
from .tracker import IouTracker, TrackerConfig, filter_detections

logger = logging.getLogger("semmap")

# information matrices blow up as sigma -> 0; the floor keeps a
# zero-noise configuration solvable while still pinning poses hard
_SIGMA_FLOOR = 1e-4

# a solve stops at a 1e-6 relative cost decrease, where a standalone
# OptimizerConfig stops at 1e-9: the run re-solves a few frames later
# from the warm estimates, so digits below that are redone anyway
_SOLVER = OptimizerConfig(min_rel_decrease=1e-6)

SIMULATE_OUTPUTS = ("ground_truth.txt", "odometry.txt",
                    "detections.txt", "registry.json")
RUN_OUTPUTS = ("corrected_trajectory.txt", "landmark_map.json", "graph.g2o",
               "timings.json", "run_manifest.json")
# byte-stable across reruns; timings and the manifest (absolute paths)
# are excluded
DETERMINISTIC_RUN_OUTPUTS = ("corrected_trajectory.txt", "landmark_map.json",
                             "graph.g2o")


@dataclass(frozen=True)
class PipelineConfig:
    """The settings of one mapping run: the sensor, the tracker and
    association thresholds and the mapping policy.

    seed drives nothing: the run has no stochastic stage. It stays
    because the benchmark's configs pass it, and it is recorded in
    the run manifest. The solver runs on a frame that emitted an
    observation factor when no solve ran in the last
    association.min_reobservation_interval seconds, the interval that
    already spaces each landmark's emissions, and once more at the end
    of a run whose last observation came after its last solve;
    optimize_every only paces the merge-only passes between emitting
    frames. The odometry sigmas weight the relative-motion factors and
    should match the sensor; they are floored at 1e-4 so a zero value
    means "trust fully" rather than a singular information matrix. The
    solver's settings are a constant (pipeline._SOLVER).
    """

    camera: CameraIntrinsics = DEFAULT_CAMERA
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    association: AssociationConfig = field(default_factory=AssociationConfig)
    pixel_noise_sigma: float = 4.0
    mad_threshold: float = 0.15
    optimize_every: int = 10
    odometry_translation_sigma: float = 0.005
    odometry_rotation_sigma: float = 0.0017453292519943295
    seed: int = 0

    def __post_init__(self):
        # each pixel observation's information is eye(2) / sigma^2
        sigma = float(self.pixel_noise_sigma)
        variance = sigma * sigma
        if not (sigma > 0 and 0.0 < variance < math.inf
                and 1.0 / variance < math.inf):
            raise ValueError("pixel_noise_sigma must be positive, with its square "
                             "and the square's inverse finite")
        if self.mad_threshold <= 0:
            raise ValueError("mad_threshold must be positive")
        if self.optimize_every < 1:
            raise ValueError("optimize_every must be at least 1")
        if self.odometry_translation_sigma < 0 or self.odometry_rotation_sigma < 0:
            raise ValueError("odometry sigmas must be non-negative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        """Config from a (possibly partial) document: a section overrides
        only the keys it names, on top of PipelineConfig()'s section.
        Every value must have its field's type (a float field takes any
        finite number); anything else raises ValueError."""
        defaults = cls()
        kwargs = {}
        for key, value in doc.items():
            if key in CONFIG_SECTIONS:
                if not isinstance(value, dict):
                    raise ValueError(f"config section {key!r} must be an object")
                section = getattr(defaults, key)
                kwargs[key] = replace(section, **{
                    sub: _typed(section, sub, v, f"{key} ") for sub, v in value.items()})
            else:
                kwargs[key] = _typed(defaults, key, value)
        return cls(**kwargs)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def hash(self) -> str:
        return config_hash(self.canonical_json())


# PipelineConfig's nested sections, each a dataclass: field name -> type
CONFIG_SECTIONS = {f.name: f.type for f in fields(PipelineConfig) if is_dataclass(f.type)}


def _typed(defaults, key: str, value, section: str = ""):
    """`value` for the field `key` of the dataclass instance `defaults`,
    when it has the type of that field's default (a float field takes
    any finite number)."""
    if key not in {f.name for f in fields(defaults)}:
        raise ValueError(f"unknown {section}config key {key!r}")
    default = getattr(defaults, key)
    if isinstance(default, float):
        # an int may stand for a float, if a float can hold it
        kind = "finite number"
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and abs(value) <= sys.float_info.max)
    else:
        kind = type(default).__name__
        ok = type(value) is type(default)
    if not ok:
        raise ValueError(f"{section}config key {key!r} must be a {kind}, "
                         f"got {value!r:.40}")
    return value


@dataclass(frozen=True)
class ProposalRecord:
    """Per-proposal diagnostic: what the gate and the map decided."""

    frame_id: int
    timestamp: float
    tracklet_id: int
    class_id: str
    accepted: bool
    mad: float
    low_confidence: bool
    # "new" | "matched" (through the gate) | "inherited" (fused into the
    # landmark of the tracklet's parent) | None when rejected
    decision: str | None
    landmark_id: int | None
    emitted_observation: bool


@dataclass
class RunResult:
    corrected: Trajectory
    landmark_map: LandmarkMap
    graph: PoseGraph
    timings: dict[str, list[float]]
    proposals: list[ProposalRecord]
    counts: dict
    solves: list[SolveReport]  # one per optimize call, in run order


@dataclass(frozen=True)
class RunManifest:
    config_hash: str
    seed: int
    inputs: dict
    outputs: dict
    deterministic_outputs: tuple[str, ...]
    timing_trace: str
    counts: dict

    def to_dict(self) -> dict:
        return asdict(self)


def _index_detections(frames, odometry: Trajectory) -> dict[int, list]:
    """Group detections by frame id, validated against the odometry grid.

    A detection is seen from odometry row frame_id (see
    propose_candidate), so each must carry its frame's id, and the
    frame's stamp must lie within STAMP_WINDOW of that row's.
    """
    n = len(odometry)
    by_frame: dict[int, list] = {}
    for fr in frames:
        if not 0 <= fr.frame_id < n:
            raise TimestampMismatchError(
                f"frame {fr.frame_id} has no odometry pose (have {n})")
        gap = abs(fr.timestamp - float(odometry.stamps[fr.frame_id]))
        if gap > STAMP_WINDOW:
            raise TimestampMismatchError(
                f"frame {fr.frame_id} timestamp is {gap:.4f}s away from "
                "its odometry stamp")
        for m in fr.detections:
            if m.frame_id != fr.frame_id:
                raise TimestampMismatchError(
                    f"frame {fr.frame_id} holds a detection of frame {m.frame_id}")
        if fr.frame_id in by_frame:
            raise ValueError(f"duplicate frame id {fr.frame_id}")
        by_frame[fr.frame_id] = list(fr.detections)
    return by_frame


def run_pipeline(frames, odometry: Trajectory,
                 config: PipelineConfig | None = None) -> RunResult:
    """Execute the full mapping run over pre-loaded inputs.

    frames is any iterable of FrameDetections keyed to odometry rows by
    frame_id; rows without detections still advance the tracker and the
    graph. The returned trajectory covers every odometry stamp.
    """
    cfg = config if config is not None else PipelineConfig()
    if len(odometry) == 0:
        raise TimestampMismatchError("odometry is empty")
    by_frame = _index_detections(frames, odometry)
    # the raw odometry stacked once: every proposal's views and every
    # frame's relative motion come from these rows
    views = Views.of(odometry.poses)
    steps = relative_poses(views.quaternions, views.translations)

    sigma_px = cfg.pixel_noise_sigma
    observation_information = np.eye(2) / (sigma_px * sigma_px)
    tracker = IouTracker(cfg.tracker)
    graph = PoseGraph(cfg.camera)
    lm_map = LandmarkMap()
    records: list[ProposalRecord] = []
    solves: list[SolveReport] = []
    timings: dict[str, list[float]] = {name: [] for name in STAGE_NAMES}
    detections = detections_kept = 0
    # sigma 0 declares the odometry exact: poses become hard
    # constraints and only landmarks are optimized
    fix_poses = (cfg.odometry_translation_sigma == 0.0
                 and cfg.odometry_rotation_sigma == 0.0)
    sigma_t = max(cfg.odometry_translation_sigma, _SIGMA_FLOOR)
    sigma_r = max(cfg.odometry_rotation_sigma, _SIGMA_FLOOR)
    odometry_information = np.diag([1.0 / sigma_t**2] * 3 + [1.0 / sigma_r**2] * 3)

    # each accepted tracklet's landmark, for its successor to inherit
    landmark_of: dict[int, int] = {}
    last_solve = -math.inf
    pending = False  # an observation the graph has not solved with

    def solve(now: float) -> None:
        nonlocal last_solve, pending
        t0 = perf_counter()
        report = graph.optimize(_SOLVER, fix_poses=fix_poses)
        timings["optimize"].append(perf_counter() - t0)
        solves.append(report)
        logger.debug(
            "solve: %d poses, %d landmarks, %d observations, %d iterations, "
            "%d steps, stop %s, cost %.6g -> %.6g, %.3f ms",
            len(graph.poses), len(graph.landmarks), len(graph.observations),
            report.iterations, report.steps, report.stop_reason,
            report.initial_cost, report.final_cost, 1e3 * timings["optimize"][-1])
        apply_correction(graph, lm_map)
        last_solve, pending = now, False

    def merge_pass() -> None:
        t0 = perf_counter()
        merges = lm_map.merge_overlapping(cfg.association)
        for old_id, kept_id in merges:
            graph.merge_landmarks(old_id, kept_id)
        timings["landmark_merge"].append(perf_counter() - t0)
        logger.debug("merge pass: %d merges", len(merges))

    for i in range(len(odometry)):
        stamp = float(odometry.stamps[i])
        raw = by_frame.get(i, [])
        t0 = perf_counter()
        kept = filter_detections(raw, cfg.tracker)
        promoted, _ = tracker.step(kept, stamp)
        timings["detection_ingest"].append(perf_counter() - t0)
        detections += len(raw)
        detections_kept += len(kept)

        proposals = []
        for tracklet in promoted:
            t0 = perf_counter()
            prop = propose_candidate(tracklet, views, cfg.camera, cfg.mad_threshold)
            timings["candidate_proposal"].append(perf_counter() - t0)
            proposals.append(prop)

        if i == 0:
            graph.add_prior(0, odometry.poses[0])
        else:
            graph.add_odometry(i - 1, i, steps[i - 1], odometry_information)

        emitted = False
        for prop in proposals:
            decision = None
            inherit = landmark_of.get(prop.tracklet.parent)
            if inherit is not None:
                inherit = lm_map.resolve(inherit)
            if prop.accepted:
                call_timings: dict[str, float] = {}
                decision = lm_map.associate(
                    prop.candidate, stamp, cfg.association, call_timings, inherit)
                for key, seconds in call_timings.items():
                    timings[key].append(seconds)
                landmark_of[prop.tracklet.id] = decision.landmark_id
            emit = isinstance(decision, Matched) and decision.emit_observation
            if emit:
                last = prop.tracklet.measurements[-1]
                graph.add_observation(
                    last.frame_id, decision.landmark_id,
                    np.asarray(last.box.center), observation_information,
                    landmark_position=lm_map.landmarks[decision.landmark_id].centroid)
            emitted |= emit
            records.append(ProposalRecord(
                i, stamp, prop.tracklet.id, prop.tracklet.class_id,
                prop.accepted, prop.mad, prop.low_confidence,
                None if decision is None else "inherited" if inherit is not None
                else "matched" if isinstance(decision, Matched) else "new",
                None if decision is None else decision.landmark_id, emit))

        # a graph extended only by odometry since the last solve keeps
        # its previous optimum (new chain factors are exactly satisfied
        # by the composed initialization), so re-solving would only
        # churn; an emitting frame solves at most once per re-observation
        # interval
        pending |= emitted
        if emitted and stamp - last_solve >= cfg.association.min_reobservation_interval:
            solve(stamp)
        if emitted or (graph.observations and (i + 1) % cfg.optimize_every == 0):
            merge_pass()

    if pending:
        solve(stamp)
    if graph.observations:
        merge_pass()

    accepted = sum(rec.accepted for rec in records)
    counts = {
        "frames": len(odometry),
        "detections": detections,
        "detections_kept": detections_kept,
        "tracklets_promoted": len(records),
        "proposals_accepted": accepted,
        "proposals_rejected": len(records) - accepted,
        "proposals_inherited": sum(rec.decision == "inherited" for rec in records),
        "observations_emitted": sum(rec.emitted_observation for rec in records),
        "optimize_calls": len(solves),
        "optimize_iterations": sum(s.iterations for s in solves),
        "optimize_steps": sum(s.steps for s in solves),
        # each merge records the absorbed id once, and ids are never reused
        "merges": len(lm_map.merged_into),
        "landmarks": len(lm_map),
        # behind-camera observation factors, counted at each solve's
        # final linearization point and summed over the run's solves
        "deactivated_observations": sum(s.deactivated_observations for s in solves),
        # which stopping rule ended each solve
        "solves_by_stop_reason": {
            reason: sum(s.stop_reason == reason for s in solves)
            for reason in STOP_REASONS},
    }
    corrected = Trajectory(
        odometry.stamps,
        [graph.poses[i] for i in range(len(odometry))])
    return RunResult(
        corrected=corrected,
        landmark_map=lm_map,
        graph=graph,
        timings=timings,
        proposals=records,
        counts=counts,
        solves=solves,
    )


# ----------------------------------------------------------------------
# file-level commands (the CLI is a thin argparse shell over these)
# ----------------------------------------------------------------------

def cmd_simulate(config_path, out_dir) -> dict:
    """Render a scenario into the four run inputs.

    Emits ground_truth.txt and odometry.txt (TUM), detections.txt and
    registry.json into out_dir; every file carries the hash of the
    scenario config text. Deterministic per config.
    """
    raw = Path(config_path).read_text(encoding="utf-8")
    world, noise = parse_scenario_config(config_path)
    bundle = ground_truth_bundle(world, noise)
    scenario_hash = config_hash(raw)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = [f"config {scenario_hash}"]
    write_tum_trajectory(out / "ground_truth.txt", bundle.ground_truth, header)
    write_tum_trajectory(out / "odometry.txt", bundle.odometry, header)
    write_detection_log(out / "detections.txt", bundle.frames, header)
    write_registry(out / "registry.json", bundle.registry,
                   extra={"config_hash": scenario_hash})
    return {
        "config_hash": scenario_hash,
        "outputs": {name: str(out / name) for name in SIMULATE_OUTPUTS},
        "frames": len(bundle.frames),
        "objects": len(bundle.registry),
    }


def cmd_run(detections_path, odometry_path, out_dir,
            config: PipelineConfig | None = None) -> RunManifest:
    """Run the pipeline over logged inputs and write all outputs.

    corrected_trajectory.txt, landmark_map.json and graph.g2o are
    byte-stable for fixed inputs and config; timings.json holds the
    wall-clock trace and run_manifest.json ties everything together.
    """
    cfg = config if config is not None else PipelineConfig()
    # an out-dir that cannot be made fails here, not after the mapping
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    frames = parse_detection_log(detections_path)
    odometry = parse_tum_trajectory(odometry_path)
    result = run_pipeline(frames, odometry, cfg)
    counts = result.counts
    logger.info(
        "run: %d frames, %d landmarks, %d solves (%s), %d steps, optimize %.3f s",
        counts["frames"], counts["landmarks"], counts["optimize_calls"],
        ", ".join(f"{reason} {n}" for reason, n in counts["solves_by_stop_reason"].items()),
        counts["optimize_steps"], sum(result.timings["optimize"]))
    run_hash = cfg.hash()
    header = [f"config {run_hash}"]

    write_tum_trajectory(out / "corrected_trajectory.txt", result.corrected,
                         header)
    write_landmark_map(out / "landmark_map.json", result.landmark_map,
                       extra={"config_hash": run_hash})
    write_g2o(out / "graph.g2o", result.graph, header)

    stats = timing_report(result.timings)
    timing_doc = {
        "config_hash": run_hash,
        "no_data": stats.no_data,
        "stages": {
            name: {"mean_ms": stat.mean_ms, "max_ms": stat.max_ms,
                   "count": stat.count}
            for name, stat in sorted(stats.stages.items())
        },
    }
    write_json(out / "timings.json", timing_doc, indent=2)

    manifest = RunManifest(
        config_hash=run_hash,
        seed=cfg.seed,
        inputs={"detections": str(detections_path),
                "odometry": str(odometry_path)},
        outputs={name: str(out / name) for name in RUN_OUTPUTS},
        deterministic_outputs=DETERMINISTIC_RUN_OUTPUTS,
        timing_trace=str(out / "timings.json"),
        counts=result.counts,
    )
    write_json(out / "run_manifest.json", manifest.to_dict(), indent=2)
    return manifest


def cmd_eval(est_path, gt_path, out_dir, map_path=None, registry_path=None,
             baseline_path=None, timings_path=None) -> dict:
    """Score a run against ground truth.

    Reports ATE RMSE (plus improvement over a baseline trajectory when
    given) and which alignment it used ("rigid", or "translation" on a
    straight path; see evaluate_ate), landmark precision/recall when
    both map and registry are available, and the timing summary when a
    trace is available. The landmark score and the timing summary do
    not depend on the alignment. Writes report.json and
    aligned_trajectory.csv into out_dir.
    """
    est = parse_tum_trajectory(est_path)
    gt = parse_tum_trajectory(gt_path)
    report: dict = {}

    if map_path is not None and registry_path is not None:
        lm_map = parse_landmark_map(map_path)
        registry = parse_registry(registry_path)
        duration = float(gt.stamps[-1] - gt.stamps[0]) if len(gt) else 0.0
        score = score_landmarks(lm_map.ordered(), registry, duration)
        report["landmarks"] = {
            "precision": score.precision,
            "recall": score.recall,
            "mean_centroid_error": (
                None if np.isnan(score.mean_centroid_error)
                else score.mean_centroid_error),
            "matches": len(score.matches),
            "dynamic_matches": len(score.dynamic_matches),
            "empty_map": score.empty_map,
        }
        doc = read_json(map_path)
        if "config_hash" in doc:
            report["config_hash"] = doc["config_hash"]
    else:
        report["landmarks"] = {
            "skipped": "need both --map and --registry to score landmarks"}

    if timings_path is not None and Path(timings_path).exists():
        report["timing"] = read_json(timings_path)
    else:
        report["timing"] = {"no_data": True}

    ate = evaluate_ate(est, gt)
    report["ate_rmse"] = ate.rmse
    report["alignment"] = ate.alignment
    report["matched_frames"] = len(ate.per_frame_errors)
    report["dropped_frames"] = ate.dropped
    if baseline_path is not None:
        baseline = parse_tum_trajectory(baseline_path)
        base = evaluate_ate(baseline, gt)
        report["baseline_ate_rmse"] = base.rmse
        report["improvement_percent"] = (
            100.0 * (1.0 - ate.rmse / base.rmse) if base.rmse > 0 else None)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    est_idx, gt_idx = (list(ix) for ix in zip(*ate.pairs))
    aligned = ((ate.transform.rotation_matrix() @ est.positions()[est_idx].T).T
               + ate.transform.translation)
    rows = zip(est.stamps[est_idx], aligned, gt.positions()[gt_idx], ate.per_frame_errors)
    with open(out / "aligned_trajectory.csv", "w", encoding="utf-8") as fh:
        fh.write("timestamp,est_x,est_y,est_z,gt_x,gt_y,gt_z,error_m\n")
        for stamp, p, q, err in rows:
            fh.write(f"{float(stamp):.10f},"
                     f"{p[0]:.6f},{p[1]:.6f},{p[2]:.6f},"
                     f"{q[0]:.6f},{q[1]:.6f},{q[2]:.6f},{err:.6f}\n")
    write_json(out / "report.json", report, indent=2)
    return report

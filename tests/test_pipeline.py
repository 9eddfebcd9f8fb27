"""End-to-end runner: config round trips, input validation, the
zero-noise exactness invariant, determinism across reruns,
dynamic-object exclusion and drift reduction on small scenes."""

import json
import logging
import re
from dataclasses import replace

import numpy as np
import pytest

from oracles import PanningPath, rebuilt_poses

from semmap.errors import TimestampMismatchError
from semmap.evaluation import ate_rmse
from semmap.geometry import Pose, Trajectory
from semmap import association, pipeline, posegraph, tracker
from semmap.candidate import RandomWalkConfig
from semmap.pipeline import (
    DETERMINISTIC_RUN_OUTPUTS,
    PipelineConfig,
    cmd_eval,
    cmd_run,
    cmd_simulate,
    run_pipeline,
)
from semmap.posegraph import STOP_REASONS, OptimizerConfig
from semmap.simulator import (
    FrameDetections,
    desk_preset,
    ground_truth_bundle,
    walking_preset,
)
from semmap.tracker import BoundingBox, Measurement


def _small_desk(seed=0, **noise_overrides):
    # 1.5 laps in 120 frames keeps every object re-observed at least
    # once while the whole run stays around a second
    world, noise = desk_preset(seed=seed, duration=12.0, frame_rate=10.0,
                               laps=1.5, **noise_overrides)
    return ground_truth_bundle(world, noise)


class TestConfigRoundTrip:
    def test_dict_round_trip_preserves_every_field(self):
        for cfg in (PipelineConfig(),
                    PipelineConfig(seed=7, optimize_every=3, mad_threshold=0.2,
                                   odometry_translation_sigma=0.001)):
            again = PipelineConfig.from_dict(cfg.to_dict())
            assert again.to_dict() == cfg.to_dict()
            assert again.hash() == cfg.hash()

    def test_pipeline_solves_stop_earlier_than_standalone(self):
        assert PipelineConfig().optimizer.min_rel_decrease == 1e-6
        assert OptimizerConfig().min_rel_decrease == 1e-9

    def test_partial_section_overrides_only_its_keys(self):
        cfg = PipelineConfig.from_dict({"optimizer": {"max_iterations": 50}})
        assert cfg.optimizer == replace(PipelineConfig().optimizer, max_iterations=50)
        assert cfg.optimizer.min_rel_decrease == 1e-6

    def test_json_file_round_trip(self, tmp_path):
        cfg = PipelineConfig(seed=3, pixel_noise_sigma=2.5)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        again = PipelineConfig.from_json_file(path)
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_top_level_key_rejected(self):
        doc = PipelineConfig().to_dict()
        doc["optimizer_every"] = 5
        with pytest.raises(ValueError, match="optimizer_every"):
            PipelineConfig.from_dict(doc)

    def test_unknown_section_key_rejected(self):
        doc = PipelineConfig().to_dict()
        doc["tracker"]["iou_treshold"] = 0.3
        with pytest.raises(ValueError, match="iou_treshold"):
            PipelineConfig.from_dict(doc)

    def test_deleted_random_walk_seed_key_rejected(self):
        # the top-level seed drives the walk; the nested key is gone, so
        # even its old default is an unknown key
        for value in (5, 0):
            with pytest.raises(ValueError, match="unknown random_walk config key 'seed'"):
                PipelineConfig.from_dict({"random_walk": {"seed": value}})
        with pytest.raises(TypeError):
            RandomWalkConfig(seed=1)

    @pytest.mark.parametrize("doc", [
        {"tracker": 5}, {"tracker": [1]}, {"pixel_noise_sigma": "4"},
        {"optimize_every": 2.0}, {"seed": True}, {"camera": {"width": 640.0}},
        {"association": {"cloud_cap": None}}, {"odometry_translation_sigma": 10**400},
        {"mad_threshold": float("nan")}, {"tracker": {"max_gap": float("inf")}}])
    def test_value_of_the_wrong_type_rejected(self, doc):
        with pytest.raises(ValueError):
            PipelineConfig.from_dict(doc)

    def test_hash_pinned(self):
        # the hashes the run outputs of these configs embed
        assert PipelineConfig().hash() == "4589918507edebb4"
        assert PipelineConfig.from_dict({"seed": 3, "odometry_translation_sigma": 0.002}
                                        ).hash() == "900e4c230cc25c8c"

    def test_deleted_huber_scale_key_rejected(self):
        # the observation cost is plain least squares; the robust
        # kernel's scale is no longer a config key
        with pytest.raises(ValueError, match="huber_scale_px"):
            PipelineConfig.from_dict({"optimizer": {"huber_scale_px": 5.0}})

    def test_hash_tracks_content(self):
        assert PipelineConfig().hash() == PipelineConfig().hash()
        assert PipelineConfig(seed=1).hash() != PipelineConfig(seed=2).hash()

    @pytest.mark.parametrize("kwargs", [
        {"pixel_noise_sigma": 0.0},
        {"mad_threshold": -0.1},
        {"optimize_every": 0},
        {"odometry_translation_sigma": -1e-9},
        # sigma^2 overflows, or its inverse does, or it underflows to 0
        {"pixel_noise_sigma": 1e200},
        {"pixel_noise_sigma": 1e-160},
        {"pixel_noise_sigma": 1e-200},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)

    @pytest.mark.parametrize("sigma", [1e-150, 0.1, 4, 1e150])
    def test_pixel_noise_sigma_with_finite_weights_accepted(self, sigma):
        assert PipelineConfig(pixel_noise_sigma=sigma).pixel_noise_sigma == sigma


class TestInputValidation:
    def _odometry(self, n=3, dt=0.1):
        return Trajectory([i * dt for i in range(n)],
                          [Pose.identity() for _ in range(n)])

    def test_empty_odometry_rejected(self):
        empty = Trajectory([], [])
        with pytest.raises(TimestampMismatchError, match="empty"):
            run_pipeline([], empty)

    def test_frame_id_without_pose_rejected(self):
        frames = [FrameDetections(frame_id=5, timestamp=0.5, detections=())]
        with pytest.raises(TimestampMismatchError, match="frame 5"):
            run_pipeline(frames, self._odometry())

    def test_timestamp_far_from_odometry_stamp_rejected(self):
        # frame 1 claims t=0.5 but odometry row 1 is at t=0.1
        frames = [FrameDetections(frame_id=1, timestamp=0.5, detections=())]
        with pytest.raises(TimestampMismatchError, match="0.4"):
            run_pipeline(frames, self._odometry())

    @pytest.mark.parametrize("det_frame", [-1, 2])
    def test_detection_of_another_frame_rejected(self, det_frame):
        # a view is taken from odometry row frame_id, where -1 would
        # silently index the last pose and 2 another frame's
        det = Measurement(0.1, det_frame, "cup", 0.9, BoundingBox(300, 220, 340, 260), 2.0)
        frames = [FrameDetections(frame_id=1, timestamp=0.1, detections=(det,))]
        with pytest.raises(TimestampMismatchError, match=f"detection of frame {det_frame}"):
            run_pipeline(frames, self._odometry())

    def test_duplicate_frame_id_rejected(self):
        frames = [FrameDetections(0, 0.0, ()), FrameDetections(0, 0.0, ())]
        with pytest.raises(ValueError, match="duplicate"):
            run_pipeline(frames, self._odometry())

    def test_detection_free_run_still_covers_every_stamp(self):
        odo = self._odometry(n=4)
        result = run_pipeline([], odo)
        assert len(result.corrected) == 4
        assert len(result.landmark_map) == 0


class TestStressScenes:
    """Degenerate scenes through run_pipeline: a camera that never
    moves, one that only turns, detections that never form a tracklet,
    and blackouts."""

    @pytest.mark.parametrize("start, end, solves", [(6.0, 12.0, 12), (2.0, 18.0, 5)])
    def test_blackout_maps_and_solves_cleanly(self, start, end, solves):
        # every detection dropped for seconds on end: gates grow with
        # the time since association, and the objects seen before the
        # blackout are seen again after it
        world, noise = desk_preset(seed=0, duration=20.0)
        bundle = ground_truth_bundle(world, noise)
        frames = [replace(f, detections=()) if start <= f.timestamp <= end else f
                  for f in bundle.frames]
        result = run_pipeline(frames, bundle.odometry, PipelineConfig())
        assert len(result.landmark_map) == 8
        made_before = {p.landmark_id for p in result.proposals
                       if p.decision == "new" and p.timestamp < start}
        assert any(p.decision == "matched" and p.landmark_id in made_before
                   for p in result.proposals if p.timestamp > end)
        assert len(result.solves) == solves
        assert not {s.stop_reason for s in result.solves} & {"stalled", "max_iterations"}
        np.testing.assert_array_equal(result.corrected.stamps, bundle.odometry.stamps)

    def test_static_camera_maps_on_the_no_baseline_fallback(self):
        # one waypoint at speed 0 on exact odometry: no view has a
        # baseline, so every accepted proposal falls back to its range
        # hint; zero sigmas hold the poses fixed
        world, noise = desk_preset(seed=0, duration=6.0, odom_translation_sigma=0.0,
                                   odom_rotation_sigma=0.0)
        world = replace(world, path=replace(world.path, waypoints=((0.9, 0.0, 1.45),),
                                            speed=0.0))
        bundle = ground_truth_bundle(world, noise)
        result = run_pipeline(bundle.frames, bundle.odometry,
                              PipelineConfig(odometry_translation_sigma=0.0,
                                             odometry_rotation_sigma=0.0))
        accepted = [p for p in result.proposals if p.accepted]
        assert len(accepted) == 208
        assert all(p.low_confidence for p in accepted)
        assert len(result.landmark_map) == 6
        np.testing.assert_array_equal(result.corrected.stamps, bundle.odometry.stamps)

    def test_pure_rotation_maps_and_solves_cleanly(self):
        # the camera never moves and pans 0.9 rad either way across the
        # desk, under the desk noise: views of an object share (up to
        # odometry drift) one centre, so there is no depth baseline
        world, noise = desk_preset(seed=0, duration=6.0)
        world = replace(world, path=PanningPath(
            (0.9, 0.0, 1.45), (0.0, 0.0, 0.85), sweep=0.9, period=6.0))
        bundle = ground_truth_bundle(world, noise)
        assert np.ptp(bundle.ground_truth.positions(), axis=0).max() == 0.0
        result = run_pipeline(bundle.frames, bundle.odometry, PipelineConfig(
            odometry_translation_sigma=noise.odom_translation_sigma,
            odometry_rotation_sigma=noise.odom_rotation_sigma))
        np.testing.assert_array_equal(result.corrected.stamps, bundle.odometry.stamps)
        assert result.solves
        assert all(s.stop_reason in STOP_REASONS for s in result.solves)
        assert len(result.landmark_map) > 0

    def test_false_positives_only_give_an_empty_map(self):
        world, noise = desk_preset(seed=0, duration=6.0, missed_detection_rate=1.0,
                                   false_positive_rate=1.0)
        bundle = ground_truth_bundle(world, noise)
        result = run_pipeline(bundle.frames, bundle.odometry, PipelineConfig())
        assert result.counts["detections"] > 0
        assert result.proposals == []
        assert len(result.landmark_map) == 0
        assert result.solves == []
        np.testing.assert_array_equal(result.corrected.stamps, bundle.odometry.stamps)


class TestZeroNoiseExactness:
    def test_perfect_inputs_give_machine_precision_trajectory(self):
        bundle = _small_desk(
            box_center_sigma=0.0, box_size_sigma=0.0,
            false_positive_rate=0.0, missed_detection_rate=0.0,
            depth_sigma=0.0, odom_translation_sigma=0.0,
            odom_rotation_sigma=0.0,
        )
        cfg = PipelineConfig(seed=0, odometry_translation_sigma=0.0,
                             odometry_rotation_sigma=0.0)
        result = run_pipeline(bundle.frames, bundle.odometry, cfg)
        err = ate_rmse(result.corrected, bundle.ground_truth)
        # exact odometry declared exact must pass through untouched
        assert err < 1e-6
        assert len(result.landmark_map) == len(bundle.registry)


class TestDeterminism:
    def test_reruns_agree_exactly(self):
        bundle = _small_desk(seed=4)
        cfg = PipelineConfig(seed=4)
        first, other = (run_pipeline(bundle.frames, bundle.odometry, cfg)
                        for _ in range(2))
        for a, b in zip(first.corrected.poses, other.corrected.poses):
            np.testing.assert_array_equal(a.translation, b.translation)
            np.testing.assert_array_equal(a.rotation, b.rotation)
        assert sorted(first.landmark_map.landmarks) == \
            sorted(other.landmark_map.landmarks)
        for lid, lm in first.landmark_map.landmarks.items():
            np.testing.assert_array_equal(
                lm.centroid, other.landmark_map.landmarks[lid].centroid)
        assert first.counts == other.counts


def _same_proposal(a, b) -> bool:
    """Same decision, MAD bits, and candidate centroid, size and cloud
    bits."""
    if (a.tracklet.id, a.accepted, a.low_confidence, a.mad.hex()) != \
            (b.tracklet.id, b.accepted, b.low_confidence, b.mad.hex()):
        return False
    if a.candidate is None or b.candidate is None:
        return a.candidate is b.candidate
    return (a.candidate.map_centroid.tobytes() == b.candidate.map_centroid.tobytes()
            and a.candidate.size_estimate.hex() == b.candidate.size_estimate.hex()
            and a.candidate.cloud.points.tobytes() == b.candidate.cloud.points.tobytes())


def _stamped(frame, shift):
    """The frame with it and each of its detections stamped `shift`
    seconds later."""
    return FrameDetections(frame.frame_id, frame.timestamp + shift, tuple(
        replace(m, timestamp=m.timestamp + shift) for m in frame.detections))


def _run_recording_proposals(frames, odometry, cfg):
    """run_pipeline's result and every propose_candidate result of the
    run, in call order."""
    real = pipeline.propose_candidate
    proposals = []

    def record(*args):
        proposals.append(real(*args))
        return proposals[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "propose_candidate", record)
        result = run_pipeline(frames, odometry, cfg)
    return result, proposals


def _walking_scene(seed=1):
    world, noise = walking_preset(seed=seed)
    cfg = PipelineConfig(seed=seed,
                         odometry_translation_sigma=noise.odom_translation_sigma,
                         odometry_rotation_sigma=noise.odom_rotation_sigma)
    return ground_truth_bundle(world, noise), cfg


class TestOffGridStamps:
    """Detections stamped off their odometry stamps, inside the 20 ms
    matching window, the last frame's included. Each is seen from its
    frame's odometry row, the pose its observation factor constrains,
    and the tracker runs on frame stamps, so the run is the on-grid run
    bit for bit."""

    @pytest.fixture(scope="class", params=["desk", "walking"])
    def scene(self, request):
        if request.param == "desk":
            bundle, cfg = _small_desk(seed=2), PipelineConfig(seed=2)
        else:
            bundle, cfg = _walking_scene()
        return bundle, cfg, _run_recording_proposals(bundle.frames, bundle.odometry, cfg)

    # -0.005 s: a tracklet silent for max_gap is pruned on the frame
    # clock, not a frame earlier by its detection stamps (on walking s1,
    # 101 proposals instead of 107 when the tracker read them)
    @pytest.mark.parametrize("shift", [-0.005, 0.005, 0.0199])
    def test_run_equals_the_on_grid_run(self, scene, shift):
        bundle, cfg, (base, base_proposals) = scene
        assert bundle.frames[-1].frame_id == len(bundle.odometry) - 1
        frames = [_stamped(f, shift) for f in bundle.frames]
        result, proposals = _run_recording_proposals(frames, bundle.odometry, cfg)
        assert len(proposals) == len(base_proposals) >= 20
        assert sum(p.accepted for p in proposals) >= 10
        assert all(_same_proposal(got, want)
                   for got, want in zip(proposals, base_proposals))
        assert result.proposals == base.proposals
        for got, want in zip(result.corrected.poses, base.corrected.poses):
            assert got.rotation.tobytes() == want.rotation.tobytes()
            assert got.translation.tobytes() == want.translation.tobytes()
        assert result.counts == base.counts

    def test_stamped_past_the_next_frame_maps(self):
        # at 60 Hz, +18 ms is inside the matching window but past the
        # next frame's stamp: a tracklet's detection stamp then follows
        # the frame that updates it
        world, noise = desk_preset(seed=2, duration=4.0, frame_rate=60.0)
        bundle = ground_truth_bundle(world, noise)
        frames = [_stamped(f, 0.018) for f in bundle.frames]
        result = run_pipeline(frames, bundle.odometry, PipelineConfig(seed=2))
        assert sum(p.accepted for p in result.proposals) >= 10
        assert len(result.landmark_map) > 0

    def test_first_frame_stamped_early_maps(self):
        # 5 ms before the odometry's first stamp, still seen from row 0
        bundle = _small_desk(seed=2)
        first, *rest = bundle.frames
        frames = [_stamped(first, -0.005), *rest]
        result, proposals = _run_recording_proposals(
            frames, bundle.odometry, PipelineConfig(seed=2))
        assert any(m.frame_id == 0 for p in proposals for m in p.tracklet.measurements)
        assert len(result.landmark_map) > 0


class TestDynamicExclusion:
    def test_walker_never_becomes_a_landmark(self):
        bundle, cfg = _walking_scene(seed=0)
        result = run_pipeline(bundle.frames, bundle.odometry, cfg)
        classes = {lm.class_id for lm in result.landmark_map.ordered()}
        assert "person" not in classes
        # the static furniture still maps
        assert len(classes & {"chair", "table", "shelf", "bin"}) >= 3


class TestDriftReduction:
    def test_corrected_beats_raw_and_run_is_instrumented(self):
        bundle = _small_desk(seed=1)
        cfg = PipelineConfig(seed=1)
        result = run_pipeline(bundle.frames, bundle.odometry, cfg)
        raw = ate_rmse(bundle.odometry, bundle.ground_truth)
        corrected = ate_rmse(result.corrected, bundle.ground_truth)
        assert corrected < raw
        assert len(result.timings["detection_ingest"]) == len(bundle.odometry)
        assert len(result.timings["association_path1"]) > 0
        assert result.counts["landmarks"] == len(result.landmark_map)


class TestRunRecords:
    def test_one_solve_report_per_solve_and_split_stages(self, monkeypatch):
        # every solve reports one deactivated observation, so the run's
        # count is the number of solves only when it sums over them
        optimize = posegraph.PoseGraph.optimize

        def one_deactivated(self, *args, **kwargs):
            report = optimize(self, *args, **kwargs)
            report.deactivated_observations = 1
            return report

        monkeypatch.setattr(posegraph.PoseGraph, "optimize", one_deactivated)
        bundle = _small_desk(seed=1)
        result = run_pipeline(bundle.frames, bundle.odometry, PipelineConfig(seed=1))
        solves = result.solves
        assert len(solves) >= 2
        assert len(solves) == result.counts["optimize_calls"]
        assert sum(s.iterations for s in solves) == \
            result.counts["optimize_iterations"]
        assert result.counts["deactivated_observations"] == len(solves)
        assert result.counts["solves_by_stop_reason"] == {
            reason: sum(s.stop_reason == reason for s in solves)
            for reason in STOP_REASONS}
        # every accepted step is one of the damped steps tried
        assert all(s.steps >= s.iterations for s in solves)
        assert sum(s.steps for s in solves) == result.counts["optimize_steps"]
        # fusion inside associate and the post-solve merge pass are
        # separate stages
        assert len(result.timings["landmark_update"]) == \
            result.counts["proposals_accepted"]
        assert len(result.timings["landmark_merge"]) >= len(solves)
        assert "landmark_update_merge" not in result.timings

    def test_solved_poses_match_per_pose_rebuild(self, monkeypatch):
        # over a whole run some rows change their last bit when normalized
        # again, so the stacked write-back must match Pose's own rounding
        store = posegraph.PoseEstimates.store
        checked = []

        def checked_store(self, ids, q, t):
            store(self, ids, q, t)
            for pid, ref in rebuilt_poses(ids, q, t).items():
                assert self[pid].rotation.tobytes() == ref.rotation.tobytes()
                assert self[pid].translation.tobytes() == ref.translation.tobytes()
            checked.append(len(ids))

        monkeypatch.setattr(posegraph.PoseEstimates, "store", checked_store)
        bundle = _small_desk(seed=1)
        run_pipeline(bundle.frames, bundle.odometry, PipelineConfig(seed=1))
        assert len(checked) >= 2

    def test_optimize_builds_no_pose(self, monkeypatch):
        # the solver reads and writes the graph's pose arrays; Poses are
        # built only where the pipeline reads graph.poses
        optimize, post_init = posegraph.PoseGraph.optimize, Pose.__post_init__
        inside = {"solving": False, "built": 0, "solves": 0}

        def counted_optimize(self, *args, **kwargs):
            inside["solving"] = True
            try:
                return optimize(self, *args, **kwargs)
            finally:
                inside["solving"] = False
                inside["solves"] += 1

        def counted_post_init(self):
            inside["built"] += inside["solving"]
            post_init(self)

        monkeypatch.setattr(posegraph.PoseGraph, "optimize", counted_optimize)
        monkeypatch.setattr(Pose, "__post_init__", counted_post_init)
        bundle = _small_desk(seed=1)
        run_pipeline(bundle.frames, bundle.odometry, PipelineConfig(seed=1))
        assert inside["solves"] >= 2
        assert inside["built"] == 0

    def test_counts_match_the_runs_own_records(self, monkeypatch):
        # promotions and merges are tallied where they happen, so the
        # counts derived from the records are checked against the run
        seen = {"promoted": 0, "merges": 0}
        step = tracker.IouTracker.step
        merge = association.LandmarkMap.merge_overlapping

        def counted_step(self, *args, **kwargs):
            promoted, rest = step(self, *args, **kwargs)
            seen["promoted"] += len(promoted)
            return promoted, rest

        def counted_merge(self, *args, **kwargs):
            merges = merge(self, *args, **kwargs)
            seen["merges"] += len(merges)
            return merges

        monkeypatch.setattr(tracker.IouTracker, "step", counted_step)
        monkeypatch.setattr(association.LandmarkMap, "merge_overlapping", counted_merge)
        bundle = _small_desk(seed=1)
        result = run_pipeline(bundle.frames, bundle.odometry, PipelineConfig(seed=1))
        counts, records = result.counts, result.proposals
        # the scene exercises every path the counts summarize
        assert counts["merges"] > 0 and counts["optimize_calls"] > 0
        assert counts["proposals_rejected"] >= 1
        assert counts["tracklets_promoted"] == len(records) == seen["promoted"]
        assert counts["proposals_accepted"] == sum(r.accepted for r in records)
        assert counts["proposals_rejected"] == sum(not r.accepted for r in records)
        assert counts["observations_emitted"] == \
            sum(r.emitted_observation for r in records)
        assert all(r.decision is None and r.landmark_id is None
                   and not r.emitted_observation
                   for r in records if not r.accepted)
        assert counts["merges"] == len(result.landmark_map.aliases) == seen["merges"]


def _runs_at(levels, only, tmp_path, caplog):
    """cmd_run of the small desk scene once at each log level, in order:
    per level, the deterministic outputs, the semmap messages logged at
    level `only` and the run's counts."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(
        {"preset": "desk", "seed": 1, "duration": 12.0, "frame_rate": 10.0,
         "laps": 1.5}), encoding="utf-8")
    sim = tmp_path / "sim"
    cmd_simulate(scenario, sim)
    outputs, lines, counts = {}, {}, {}
    for level in levels:
        caplog.clear()
        caplog.set_level(level, logger="semmap")
        out = tmp_path / logging.getLevelName(level)
        manifest = cmd_run(sim / "detections.txt", sim / "odometry.txt", out,
                           PipelineConfig(seed=1))
        outputs[level] = {name: (out / name).read_bytes()
                          for name in DETERMINISTIC_RUN_OUTPUTS}
        lines[level] = [r.getMessage() for r in caplog.records
                        if r.name == "semmap" and r.levelno == only]
        counts[level] = manifest.counts
    return outputs, lines, counts


class TestInfoLog:
    def test_one_line_per_run_and_outputs_unchanged(self, tmp_path, caplog):
        outputs, lines, counts = _runs_at((logging.WARNING, logging.INFO), logging.INFO,
                                          tmp_path, caplog)
        assert outputs[logging.INFO] == outputs[logging.WARNING]
        assert lines[logging.WARNING] == []
        c = counts[logging.INFO]
        [line] = lines[logging.INFO]
        by_reason = ", ".join(f"{r} {n}" for r, n in c["solves_by_stop_reason"].items())
        assert re.fullmatch(
            rf"run: {c['frames']} frames, {c['landmarks']} landmarks, "
            rf"{c['optimize_calls']} solves \({by_reason}\), {c['optimize_steps']} "
            r"steps, optimize \d+\.\d{3} s", line)


class TestDebugLog:
    def test_one_line_per_solve_and_outputs_unchanged(self, tmp_path, caplog,
                                                      monkeypatch):
        reports = []
        optimize = posegraph.PoseGraph.optimize

        def recorded(self, *args, **kwargs):
            reports.append(optimize(self, *args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(posegraph.PoseGraph, "optimize", recorded)
        outputs, lines, counts = _runs_at((logging.WARNING, logging.DEBUG), logging.DEBUG,
                                          tmp_path, caplog)
        # the DEBUG run's reports follow the WARNING run's
        del reports[:counts[logging.WARNING]["optimize_calls"]]
        assert outputs[logging.DEBUG] == outputs[logging.WARNING]
        assert lines[logging.WARNING] == []
        solve_lines = [m for m in lines[logging.DEBUG] if m.startswith("solve:")]
        assert len(solve_lines) == len(reports) == counts[logging.DEBUG]["optimize_calls"]
        assert len(reports) >= 2
        for line, report in zip(solve_lines, reports):
            assert f" {report.iterations} iterations, {report.steps} steps, " \
                f"stop {report.stop_reason}," in line
        # each line ends with its solve's wall time, the optimize sample
        # timings.json aggregates
        solve_ms = [float(re.search(r", (\d+\.\d{3}) ms$", line).group(1))
                    for line in solve_lines]
        stage = json.loads((tmp_path / "DEBUG" / "timings.json").read_text())[
            "stages"]["optimize"]
        assert max(solve_ms) == pytest.approx(stage["max_ms"], abs=5e-4)
        assert sum(solve_ms) == pytest.approx(stage["mean_ms"] * stage["count"],
                                              abs=5e-4 * len(solve_ms))
        merge_passes = [int(re.fullmatch(r"merge pass: (\d+) merges", m).group(1))
                        for m in lines[logging.DEBUG] if m.startswith("merge pass:")]
        assert len(merge_passes) >= len(reports)
        assert sum(merge_passes) == counts[logging.DEBUG]["merges"]


class TestStraightPathEval:
    def test_walking_scene_scored_with_translation_alignment(self, tmp_path):
        # a straight camera path leaves the rotation undetermined; the
        # report still carries the ATE, the landmark score and timings
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"preset": "walking", "seed": 0}),
                            encoding="utf-8")
        sim, run = tmp_path / "sim", tmp_path / "run"
        cmd_simulate(scenario, sim)
        _, noise = walking_preset(seed=0)
        cmd_run(sim / "detections.txt", sim / "odometry.txt", run,
                PipelineConfig(odometry_translation_sigma=noise.odom_translation_sigma,
                               odometry_rotation_sigma=noise.odom_rotation_sigma))
        report = cmd_eval(run / "corrected_trajectory.txt", sim / "ground_truth.txt",
                          tmp_path / "eval", map_path=run / "landmark_map.json",
                          registry_path=sim / "registry.json",
                          baseline_path=sim / "odometry.txt",
                          timings_path=run / "timings.json")
        assert report["alignment"] == "translation"
        assert report["matched_frames"] == 120
        assert 0.0 < report["ate_rmse"] < 0.1
        assert report["landmarks"]["matches"] > 0
        assert report["timing"] == json.loads((run / "timings.json").read_text())
        assert json.loads((tmp_path / "eval" / "report.json").read_text()) == report

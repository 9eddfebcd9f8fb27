"""System acceptance checks, one test per numbered criterion.

Every test prints a `criterion N: PASS/FAIL (...)` line directly on the
terminal (capture bypassed) so a full run reads as a checklist. The
five-seed desk sweep is computed once at module scope and shared by the
drift-correction and latency criteria; the wall-clock budget for the
whole suite is enforced by test_zz_runtime_budget, which collects last.
"""

import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from oracles import brute_force_nn_mean, grid_search_max, horn_quaternion_align
from test_candidate import _k, _tracklet_viewing
from test_posegraph import (
    K,
    _build_consistent_graph,
    _linearized,
    _observation_fd_error,
    _odometry_fd_error,
    _prior_fd_error,
    _random_pose,
    _rel_err,
)

from semmap.association import nn_cloud_distance
from semmap.candidate import Views, estimate_centroid
from semmap.evaluation import ate_rmse, evaluate_ate, score_landmarks
from semmap.geometry import PointCloud, Pose, Trajectory, quat_from_rotvec, quat_to_matrix
from semmap.pipeline import PipelineConfig, cmd_run, cmd_simulate, run_pipeline
from semmap.posegraph import _retract
from semmap.simulator import (
    desk_preset,
    drift_loop_preset,
    ground_truth_bundle,
    walking_preset,
)
from semmap.tracker import BoundingBox, iou


@pytest.fixture
def report(capsys):
    def _report(num, ok, detail):
        line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capsys.disabled():
            print(line)
        assert ok, line
    return _report


@pytest.fixture(scope="module")
def desk_sweep():
    """Five full desk runs (600 frames each) under the default config."""
    rows = []
    for seed in range(5):
        world, noise = desk_preset(seed=seed)
        bundle = ground_truth_bundle(world, noise)
        result = run_pipeline(bundle.frames, bundle.odometry,
                              PipelineConfig(seed=seed))
        raw = ate_rmse(bundle.odometry, bundle.ground_truth)
        corrected = ate_rmse(result.corrected, bundle.ground_truth)
        path1 = result.timings["association_path1"]
        rows.append({
            "seed": seed,
            "noise": noise,
            "frames": len(bundle.odometry),
            "improvement": 100.0 * (1.0 - corrected / raw),
            "landmarks": len(result.landmark_map),
            "objects": len(bundle.registry),
            "mean_frame_ms": 1e3 * sum(
                sum(v) for v in result.timings.values()) / len(bundle.odometry),
            "path1_mean_ms": 1e3 * float(np.mean(path1)) if path1 else 0.0,
        })
    return rows


def test_criterion_1_drift_correction(desk_sweep, report):
    noise = desk_sweep[0]["noise"]
    assert noise.odom_translation_sigma == 0.005
    assert noise.odom_rotation_sigma == pytest.approx(math.radians(0.1))
    assert desk_sweep[0]["frames"] == 600
    assert desk_sweep[0]["objects"] == 8
    improvements = sorted(r["improvement"] for r in desk_sweep)
    median = improvements[len(improvements) // 2]
    per_seed = ", ".join(
        f"s{r['seed']}={r['improvement']:.1f}%" for r in desk_sweep)
    report(1, median >= 30.0,
           f"median ATE improvement {median:.1f}% >= 30% [{per_seed}]")


def test_criterion_2_dynamic_rejection(report):
    world, noise = walking_preset(seed=0)
    bundle = ground_truth_bundle(world, noise)
    cfg = PipelineConfig(
        seed=0,
        odometry_translation_sigma=noise.odom_translation_sigma,
        odometry_rotation_sigma=noise.odom_rotation_sigma,
    )
    result = run_pipeline(bundle.frames, bundle.odometry, cfg)
    dynamic_classes = {
        o.class_id for o in bundle.registry
        if np.linalg.norm(o.velocity) >= 0.5
    }
    assert dynamic_classes == {"person"}
    dynamic = [p for p in result.proposals if p.class_id in dynamic_classes]
    rejected = [p for p in dynamic if not p.accepted]
    duration = float(bundle.ground_truth.stamps[-1])
    score = score_landmarks(result.landmark_map.ordered(), bundle.registry,
                            duration)
    rate = len(rejected) / len(dynamic) if dynamic else 0.0
    ok = bool(dynamic) and rate >= 0.9 and len(score.dynamic_matches) == 0
    report(2, ok,
           f"{len(rejected)}/{len(dynamic)} walker tracklets rejected "
           f"({100.0 * rate:.0f}% >= 90%), "
           f"{len(score.dynamic_matches)} dynamic landmarks (need 0)")


def test_criterion_3_iou_matches_grid_counting(report):
    rng = np.random.default_rng(3)
    worst = None
    for _ in range(1000):
        x0, y0, x1b, y1b = rng.integers(0, 30, size=4)
        w0, h0, w1, h1 = rng.integers(1, 13, size=4)
        a = BoundingBox(float(x0), float(y0), float(x0 + w0), float(y0 + h0))
        b = BoundingBox(float(x1b), float(y1b), float(x1b + w1), float(y1b + h1))
        cells_a = {(i, j) for i in range(x0, x0 + w0)
                   for j in range(y0, y0 + h0)}
        cells_b = {(i, j) for i in range(x1b, x1b + w1)
                   for j in range(y1b, y1b + h1)}
        inter = len(cells_a & cells_b)
        want = (float(inter) / float(len(cells_a) + len(cells_b) - inter)
                if inter else 0.0)
        got = iou(a, b)
        if got != want:
            worst = (a, b, got, want)
            break
    report(3, worst is None,
           "1000 random integer boxes, exact equality"
           if worst is None else f"mismatch {worst}")


def test_criterion_4_nn_association_matches_brute_force(report):
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        na, nb = rng.integers(5, 501, size=2)
        a = rng.uniform(-3.0, 3.0, size=(int(na), 3))
        b = rng.uniform(-3.0, 3.0, size=(int(nb), 3))
        got = nn_cloud_distance(PointCloud(a),
                                PointCloud(b))
        worst = max(worst, abs(got - brute_force_nn_mean(a, b)))
    report(4, worst < 1e-9,
           f"100 cloud pairs (<= 500 pts), max |diff| {worst:.2e} < 1e-9")


def test_criterion_5_map_localization(report):
    k = _k()
    # ten exact views from a 2.5 m arc
    point = np.array([0.4, 2.5, 1.2])
    angles = np.linspace(-0.8, 0.8, 10)
    eyes = [point + 2.5 * np.array([math.sin(a), -math.cos(a), 0.1 * a])
            for a in angles]
    tracklet, poses = _tracklet_viewing(point, eyes, k)
    est = estimate_centroid(tracklet, Views.of(poses), k)
    noise_free_err = float(np.linalg.norm(est.point - point))

    # two views at 1 px noise against the 1 cm grid oracle
    point2 = np.array([0.0, 2.0, 1.0])
    eyes2 = [np.array([-0.4, 0.0, 1.0]), np.array([0.4, 0.0, 1.0])]
    rng = np.random.default_rng(8)
    tracklet2, poses2 = _tracklet_viewing(point2, eyes2, k, px_noise=1.0,
                                          rng=rng)
    est2 = estimate_centroid(tracklet2, Views.of(poses2), k)
    centers = [m.box.center for m in tracklet2.measurements]
    oracle_pt, _ = grid_search_max(centers, poses2, k, np.eye(2),
                                   around=point2, half=0.5, step=0.01)
    oracle_err = float(np.linalg.norm(oracle_pt - point2))
    two_view_err = float(np.linalg.norm(est2.point - point2))
    ok = noise_free_err < 1e-3 and two_view_err <= oracle_err + 0.02
    report(5, ok,
           f"10 noise-free views err {noise_free_err:.2e} < 1e-3; 2 views "
           f"err {two_view_err:.3f} <= grid oracle {oracle_err:.3f} + 0.02")


def test_criterion_6_optimizer_correctness(report):
    # the solver's factor kernels against central differences: 40
    # odometry, 40 observation and 20 prior factors, each kind in one call
    rng = np.random.default_rng(6)
    odo = []
    for _ in range(40):
        pose_i, pose_j = _random_pose(rng), _random_pose(rng)
        odo.append((pose_i, pose_j, pose_i.inverse().compose(pose_j).compose(
            _random_pose(rng, 0.2, 0.1))))
    obs = []
    for _ in range(40):
        pose = _random_pose(rng)
        point = pose.transform(np.array([rng.uniform(-0.8, 0.8),
                                         rng.uniform(-0.6, 0.6),
                                         rng.uniform(1.0, 5.0)]))
        pixel = np.array([rng.uniform(0, 640), rng.uniform(0, 480)])
        obs.append((pose, point, pixel))
    prior = [(_random_pose(rng), _random_pose(rng)) for _ in range(20)]
    worst = max(_odometry_fd_error(*zip(*odo)),
                _observation_fd_error(*zip(*obs)),
                _prior_fd_error(*zip(*prior)))

    # the solver's own assembled gradient against central differences of
    # the cost it returns, through its own retraction. The cost is
    # r^T W r, so its gradient is twice J^T W r. A small perturbation
    # (the gauge pose included) keeps every landmark in front of its
    # cameras. Compared node by node, so the gauge prior's large
    # gradient does not mask an error in a landmark's.
    fd_graph, _, _ = _build_consistent_graph(perturb_scale=0.002, seed=6)
    fd_graph.poses[0] = fd_graph.poses[0].retract(rng.normal(scale=0.002, size=6))
    _, cols, lin, (obs, rz_t), _, _ = _linearized(fd_graph)
    state, grad = (lin.q, lin.t, lin.lm), cols[:, 0]

    def cost_at(delta):
        q, t, lm = _retract(*state, delta, quat_to_matrix(state[0]))
        return fd_graph._residuals(q, t, lm, quat_to_matrix(q), rz_t, obs)[1]

    h = 1e-6
    fd = np.array([(cost_at(h * e) - cost_at(-h * e)) / (2.0 * h)
                   for e in np.eye(grad.size)])
    base = 6 * len(fd_graph.poses)
    for node in np.split(np.arange(grad.size),
                         [*range(6, base + 1, 6), *range(base + 3, grad.size, 3)]):
        worst = max(worst, _rel_err([2.0 * grad[node]], [fd[node]]))

    graph, _, _ = _build_consistent_graph(perturb_scale=0.05, seed=6)
    rep = graph.optimize()
    monotone = all(b < a for a, b in zip(rep.cost_trace, rep.cost_trace[1:]))
    ok = worst < 1e-4 and rep.final_cost < 1e-12 and monotone
    report(6, ok,
           f"100 factors and the solver's {grad.size}-dof gradient, max FD "
           f"rel err {worst:.2e} < 1e-4; satisfiable "
           f"graph cost {rep.final_cost:.2e} < 1e-12; "
           f"{len(rep.cost_trace) - 1} accepted steps monotone: {monotone}")


def test_criterion_7_ate_metric(report):
    rng = np.random.default_rng(7)
    stamps = [0.1 * i for i in range(40)]
    poses = [
        Pose(quat_from_rotvec(rng.normal(scale=0.2, size=3)),
             np.array([math.cos(0.3 * i), math.sin(0.3 * i), 0.05 * i]))
        for i in range(40)
    ]
    gt = Trajectory(stamps, poses)

    identity_rmse = evaluate_ate(gt, gt).rmse

    rigid = Pose(quat_from_rotvec(np.array([0.3, -0.2, 0.5])),
                 np.array([4.0, -2.0, 1.5]))
    moved = Trajectory(stamps, [rigid.compose(p) for p in poses])
    rigid_rmse = evaluate_ate(moved, gt).rmse

    # displace one pose and cross-check against the quaternion-eigen
    # alignment oracle
    est_poses = list(poses)
    est_poses[11] = Pose(est_poses[11].rotation,
                         est_poses[11].translation + np.array([0.3, -0.2, 0.1]))
    est = Trajectory(stamps, est_poses)
    got = evaluate_ate(est, gt).rmse
    p = np.array([pose.translation for pose in est_poses])
    q = np.array([pose.translation for pose in poses])
    rot, t = horn_quaternion_align(p, q)
    want = float(np.sqrt(np.mean(
        np.linalg.norm((p @ rot.T + t) - q, axis=1) ** 2)))
    ok = (identity_rmse < 1e-12 and rigid_rmse < 1e-9
          and abs(got - want) < 1e-9)
    report(7, ok,
           f"identity {identity_rmse:.1e}; rigid transform {rigid_rmse:.1e} "
           f"< 1e-9; displaced-pose |{got:.6f} - oracle {want:.6f}| "
           f"= {abs(got - want):.1e} < 1e-9")


def test_criterion_8_default_config_fields(report):
    cfg = PipelineConfig()
    checks = [
        ("iou_threshold", cfg.tracker.iou_threshold, 0.2),
        ("min_tracklet_size", cfg.tracker.min_tracklet_size, 5),
        ("max_gap", cfg.tracker.max_gap, 0.5),
        ("min_confidence", cfg.tracker.min_confidence, 0.4),
        ("min_distance", cfg.tracker.min_distance, 0.2),
        ("max_distance", cfg.tracker.max_distance, 25.0),
        ("ground_uncertainty", cfg.association.ground_uncertainty, 10.0),
    ]
    bad = [f"{name}={got!r} (want {want!r})"
           for name, got, want in checks if got != want]
    report(8, not bad,
           "all 7 published defaults match" if not bad else "; ".join(bad))


def test_criterion_9_latency_soft_budget(desk_sweep, report):
    assert PipelineConfig().association.cloud_cap == 2048
    assert all(r["landmarks"] <= 50 for r in desk_sweep)
    frame_ms = max(r["mean_frame_ms"] for r in desk_sweep)
    path1_ms = max(r["path1_mean_ms"] for r in desk_sweep)
    soft = frame_ms <= 65.0 and path1_ms <= 10.0
    hard = frame_ms <= 650.0 and path1_ms <= 100.0
    if not soft:
        warnings.warn(
            f"soft latency budget exceeded: frame {frame_ms:.1f} ms "
            f"(soft 65), path1 {path1_ms:.2f} ms (soft 10); "
            "hardware-dependent, failing only at 10x")
    report(9, hard,
           f"worst mean frame {frame_ms:.1f} ms (soft 65, hard 650), "
           f"worst path1 {path1_ms:.2f} ms (soft 10, hard 100)"
           + ("" if soft else " [soft budget exceeded: warning]"))


def test_criterion_10_run_determinism(tmp_path, report):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(
        {"preset": "desk", "seed": 3, "duration": 8.0,
         "frame_rate": 15.0, "laps": 1.25}), encoding="utf-8")
    sim = tmp_path / "sim"
    cmd_simulate(scenario, sim)
    outputs = {}
    for name in ("a", "b"):
        out = tmp_path / name
        manifest = cmd_run(sim / "detections.txt", sim / "odometry.txt", out,
                           config=PipelineConfig(seed=3))
        outputs[name] = manifest
    same = {
        rel: (Path(outputs["a"].outputs[rel]).read_bytes()
              == Path(outputs["b"].outputs[rel]).read_bytes())
        for rel in outputs["a"].deterministic_outputs
    }
    report(10, all(same.values()),
           "byte-identical reruns: "
           + ", ".join(f"{k}={v}" for k, v in same.items()))


def test_criterion_11_merge_fixpoint_after_loop(report):
    world, noise = drift_loop_preset(seed=0)
    bundle = ground_truth_bundle(world, noise)
    cfg = PipelineConfig(
        seed=0,
        odometry_translation_sigma=0.001,
        odometry_rotation_sigma=2.0e-3,
    )
    result = run_pipeline(bundle.frames, bundle.odometry, cfg)
    # a second "new" decision for a class whose landmark survives forever
    # means two same-class landmarks coexisted before correction
    created: dict[str, int] = {}
    duplicates = 0
    for p in result.proposals:
        if p.decision == "new":
            created[p.class_id] = created.get(p.class_id, 0) + 1
            if created[p.class_id] > 1:
                duplicates += 1
    ok = duplicates >= 1 and len(result.landmark_map) == len(bundle.registry)
    report(11, ok,
           f"{duplicates} duplicate creations during the loop (need >= 1); "
           f"final map {len(result.landmark_map)} landmarks == registry "
           f"{len(bundle.registry)}")

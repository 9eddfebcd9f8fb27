#!/usr/bin/env python3
"""Mapping benchmark: render a workload's scenes, map each through the
file-level command `semmap run` uses (`cmd_run`: parse, map, write),
check the outputs and print the metrics.

    python3 mapbench/run.py --workload desk --seed 0 --seconds 10 --trace 0

The set-up renders every scene of the workload to log files. The
measurement then maps all of them, in an order drawn from --seed, in
whole rounds until --seconds have passed (at least one round). One
operation is one `cmd_run` over one scene plus the checks of its
outputs; it fails if `cmd_run` raises or a check fails.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
rounds with rounds whose layer functions are wrapped (see layers.py) and
prints the per-layer metrics. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "semmap" / "__init__.py").is_file():
    sys.exit(f"mapbench: no semmap sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import semmap  # noqa: E402
from semmap import pipeline  # noqa: E402

if Path(semmap.__file__).resolve().parent != SRC / "semmap":
    sys.exit(f"mapbench: semmap imported from {semmap.__file__}")

import checks  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, pipeline_config  # noqa: E402

OUT_ROOT = ROOT / ".mapbench_out"
DETERMINISTIC = ("corrected_trajectory.txt", "landmark_map.json", "graph.g2o")


@dataclass
class Scene:
    """A scene rendered to log files, with where its run writes."""

    name: str
    sim: Path
    run: Path
    eval: Path
    config: pipeline.PipelineConfig
    checked: bool = False  # its quality figures are counted
    digest: str | None = None  # of the first passing run's outputs


def render(order, work: Path) -> list[Scene]:
    out = []
    for spec in order:
        base = work / spec.name
        base.mkdir(parents=True)
        scenario = base / "scenario.json"
        scenario.write_text(json.dumps(spec.scenario), encoding="utf-8")
        pipeline.cmd_simulate(scenario, base / "sim")
        out.append(Scene(spec.name, base / "sim", base / "run", base / "eval",
                         pipeline_config(scenario)))
    return out


def digest(run: Path) -> str:
    h = hashlib.sha256()
    for name in DETERMINISTIC:
        h.update((run / name).read_bytes())
    return h.hexdigest()


class Bench:
    def __init__(self, workload, scenes: list[Scene]):
        self.workload = workload
        self.scenes = scenes
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0
        self.quality = checks.SceneCheck()
        self.clock = layers.FrameClock()

    def verify(self, scene: Scene) -> list[str]:
        """All checks until a run of the scene passes them; after that, its
        outputs must stay byte-identical."""
        if scene.digest is not None:
            if digest(scene.run) != scene.digest:
                return ["outputs differ from the first passing run"]
            return []
        out = checks.SceneCheck()
        straight = self.workload.straight_path
        corrected = checks.read_tum(scene.run / "corrected_trajectory.txt")
        odometry = checks.read_tum(scene.sim / "odometry.txt")
        truth = checks.read_tum(scene.sim / "ground_truth.txt")
        checks.check_trajectory(out, corrected, odometry, truth, not straight)
        if not straight:
            report = pipeline.cmd_eval(scene.run / "corrected_trajectory.txt",
                                       scene.sim / "ground_truth.txt",
                                       scene.eval)
            checks.check_eval_agrees(out, corrected, truth, report)
        checks.check_graph_edges(out, scene.run / "graph.g2o", odometry)
        checks.check_landmarks(out, scene.run / "landmark_map.json",
                               scene.sim / "registry.json",
                               scene.config.association.cloud_cap, truth,
                               straight)
        # quality counts once per scene, whatever the checks found, so a
        # scene that starts failing cannot improve the figures
        if not scene.checked:
            scene.checked = True
            self.quality.sq_err_sum += out.sq_err_sum
            self.quality.frames += out.frames
            self.quality.object_dist.extend(out.object_dist)
        if not out.errors:
            scene.digest = digest(scene.run)
        return out.errors

    def round(self, probe) -> tuple[float, float, int]:
        """Map every scene once under `probe` (the frame clock or a span
        recorder). Returns the mapping seconds as measured, the same
        rescaled to the reference speed (frame clock only), and the
        bytes written."""
        wall = scaled = 0.0
        written = 0
        for scene in self.scenes:
            self.attempted += 1
            try:
                with layers.installed(probe):
                    t0 = time.perf_counter()
                    pipeline.cmd_run(scene.sim / "detections.txt",
                                     scene.sim / "odometry.txt",
                                     scene.run, scene.config)
                    seconds = time.perf_counter() - t0
            except Exception as exc:  # a raising run is a failed operation
                errors = [f"cmd_run raised {type(exc).__name__}: {exc}"]
            else:
                if probe is self.clock:
                    run = self.clock.runs[-1]
                    seconds -= run.speed.excluded_s
                    frames = run.scaled_frame_s()
                    scaled += (frames.sum() + run.speed.factor
                               * (seconds - sum(run.frame_s)))
                wall += seconds
                written += sum((scene.run / n).stat().st_size
                               for n in DETERMINISTIC)
                try:
                    errors = self.verify(scene)
                except Exception as exc:  # unreadable output fails the checks
                    errors = [f"check raised {type(exc).__name__}: {exc}"]
                self.check_failures += bool(errors)
            if errors:
                self.failed += 1
                for e in errors:
                    print(f"{scene.name}: {e}", file=sys.stderr)
        return wall, scaled, written

    def result(self, metrics: dict) -> dict:
        return {"correct": self.check_failures == 0,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}


def measure_plain(bench: Bench, seconds: float, setup_s: float) -> dict:
    t_begin = time.perf_counter()
    wall, scaled = [], []
    while not wall or time.perf_counter() - t_begin < seconds:
        w, s, _ = bench.round(bench.clock)
        wall.append(w)
        scaled.append(s)
        print(f"round {len(wall)}: map {w:.3f} s as measured, "
              f"{s:.3f} s at reference speed")
    runs = bench.clock.runs
    raw_ms = np.array([1000.0 * f for r in runs for f in r.frame_s])
    frame_ms = 1000.0 * np.concatenate([r.scaled_frame_s() for r in runs])
    factors = [r.speed.factor for r in runs]
    print(f"{len(frame_ms)} frames over {len(wall)} rounds; as measured "
          f"p50 {np.percentile(raw_ms, 50):.3f} ms, "
          f"p98 {np.percentile(raw_ms, 98):.3f} ms; "
          f"speed factors {min(factors):.3f}-{max(factors):.3f}")
    q = bench.quality
    metrics = {
        "setup_s": (setup_s, "s"),
        "map_s": (statistics.median(scaled), "s"),
        "frame_ms_p50": (float(np.percentile(frame_ms, 50)), "ms"),
        "frame_ms_p98": (float(np.percentile(frame_ms, 98)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "traj_rmse_m": ((q.sq_err_sum / q.frames) ** 0.5
                        if q.frames else None, "m"),
        "landmark_err_m": (statistics.fmean(q.object_dist)
                           if q.object_dist else None, "m"),
    }
    return bench.result({k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()})


def measure_traced(bench: Bench, seconds: float) -> dict:
    """Untraced and traced rounds alternate; the traced ones give the
    per-layer figures, the difference of the two the tracing cost.
    Nothing here is rescaled."""
    t_begin = time.perf_counter()
    plain, traced, traced_map = [], [], []
    while (not plain or not traced
           or time.perf_counter() - t_begin < seconds):
        if len(plain) <= len(traced):
            plain.append(bench.round(bench.clock)[0])
            print(f"untraced round: map {plain[-1]:.3f} s")
            continue
        rec = layers.Recorder()
        map_s, _, written = bench.round(rec)
        traced.append(layers.round_figures(rec, written))
        traced_map.append(map_s)
        print(f"traced round: map {map_s:.3f} s")
    metrics = layers.layer_metrics(traced)
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced_map) - statistics.median(plain),
        "unit": "s"}
    return bench.result(metrics)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload]
    order = random.Random(args.seed).sample(workload.scenes,
                                            len(workload.scenes))
    work = OUT_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    # a terminated run still removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        # set-up: imports and rendering, timed from the first line of this
        # file, rescaled by the speed samples taken while rendering
        clock = layers.RenderClock()
        with layers.installed(clock):
            scenes = render(order, work)
        setup_wall = time.perf_counter() - _T0 - clock.speed.excluded_s
        setup_s = setup_wall * clock.speed.factor
        print(f"{workload.name}: {len(scenes)} scenes rendered, set-up "
              f"{setup_wall:.3f} s as measured, {setup_s:.3f} s at "
              f"reference speed")
        bench = Bench(workload, scenes)
        if args.trace:
            result = measure_traced(bench, args.seconds)
        else:
            result = measure_plain(bench, args.seconds, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass  # other runs still use it, or it was never made
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

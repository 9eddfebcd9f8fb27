#!/usr/bin/env python3
"""Drift correction on the desk or drift_loop scene, swept over seeds.

For each seed the scene is rendered, the pipeline is run on the
drifting odometry with the scene's odometry sigmas, and the corrected
trajectory is scored against ground truth. Prints one row per seed:
the aligned ATE of raw and corrected odometry and the improvement, the
unaligned RMS position error of both, the mean landmark centroid error,
the LM iterations summed over the run's solves, and the landmark count.
Ends with the median improvement.

  python3 scripts/drift_correction_experiment.py --preset drift_loop --seeds 0 1 2 3 4
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from semmap.evaluation import ate_rmse, score_landmarks
from semmap.pipeline import PipelineConfig, run_pipeline
from semmap.simulator import desk_preset, drift_loop_preset, ground_truth_bundle


def unaligned_rms(est, gt) -> float:
    """RMS position error over the shared stamps, without alignment."""
    return float(np.sqrt(np.mean(np.sum((est.positions() - gt.positions()) ** 2, axis=1))))


def run_seed(preset: str, seed: int, **scene) -> dict:
    """One seed of the preset; scene holds the desk preset's duration,
    frame_rate and laps when they are set."""
    make = desk_preset if preset == "desk" else drift_loop_preset
    world, noise = make(seed=seed, **scene)
    bundle = ground_truth_bundle(world, noise)
    cfg = PipelineConfig(
        seed=seed,
        odometry_translation_sigma=noise.odom_translation_sigma,
        odometry_rotation_sigma=noise.odom_rotation_sigma,
    )
    t0 = time.perf_counter()
    result = run_pipeline(bundle.frames, bundle.odometry, cfg)
    wall = time.perf_counter() - t0
    gt = bundle.ground_truth
    raw = ate_rmse(bundle.odometry, gt)
    corrected = ate_rmse(result.corrected, gt)
    score = score_landmarks(result.landmark_map.ordered(), bundle.registry,
                            float(gt.stamps[-1] - gt.stamps[0]))
    return {
        "seed": seed,
        "raw_ate_m": raw,
        "corrected_ate_m": corrected,
        "improvement_percent": 100.0 * (1.0 - corrected / raw),
        "raw_rms_m": unaligned_rms(bundle.odometry, gt),
        "corrected_rms_m": unaligned_rms(result.corrected, gt),
        "landmark_err_m": score.mean_centroid_error,
        "lm_iterations": result.counts["optimize_iterations"],
        "landmarks": len(result.landmark_map),
        "objects": len(bundle.registry),
        "frames": len(bundle.odometry),
        "wall_s": wall,
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--preset", choices=("desk", "drift_loop"), default="desk")
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=[0, 1, 2, 3, 4])
    parser.add_argument("--duration", type=float,
                        help="desk only: scenario length in seconds (20)")
    parser.add_argument("--frame-rate", type=float, help="desk only (30)")
    parser.add_argument("--laps", type=float,
                        help="desk only: orbits of the desk within the duration (2.5)")
    parser.add_argument("--out", type=Path,
                        help="also write the rows as JSON")
    args = parser.parse_args()
    scene = {k: v for k, v in (("duration", args.duration),
                               ("frame_rate", args.frame_rate),
                               ("laps", args.laps)) if v is not None}
    if scene and args.preset != "desk":
        parser.error("--duration, --frame-rate and --laps apply to the desk preset only")

    rows = []
    print(f"{'seed':>4} {'raw ATE':>9} {'corrected':>9} {'impr %':>7} "
          f"{'raw RMS':>9} {'corr RMS':>9} {'lm err':>7} {'LM its':>6} "
          f"{'landmarks':>9} {'wall s':>7}")
    for seed in args.seeds:
        row = run_seed(args.preset, seed, **scene)
        rows.append(row)
        print(f"{row['seed']:>4} {row['raw_ate_m']:>9.4f} "
              f"{row['corrected_ate_m']:>9.4f} "
              f"{row['improvement_percent']:>7.1f} "
              f"{row['raw_rms_m']:>9.4f} {row['corrected_rms_m']:>9.4f} "
              f"{row['landmark_err_m']:>7.4f} {row['lm_iterations']:>6} "
              f"{row['landmarks']:>6}/{row['objects']:<2} "
              f"{row['wall_s']:>7.1f}")

    median = statistics.median(r["improvement_percent"] for r in rows)
    print(f"median improvement over {len(rows)} seeds: {median:.1f}%")
    if args.out:
        args.out.write_text(
            json.dumps({"preset": args.preset, "rows": rows,
                        "median_improvement_percent": median},
                       indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

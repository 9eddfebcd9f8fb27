#!/usr/bin/env python3
"""Replay a workload's candidate proposals and time them in-process.

Renders each scene of the workload through `cmd_simulate`, maps it once
through `run_pipeline` with the scene's config, and keeps the argument
tuple of every `propose_candidate` call. It then replays all of them
--repeat times and prints, per call, the microseconds of the whole
`propose_candidate`, of `extract_clouds` and of `estimate_centroid`
(the calls whose MAD gate accepts): the minimum and the median over the
rounds of each round's mean.

    python3 scripts/proposal_replay.py --workload desk --repeat 5

One traced benchmark round (`candidate.localize_s`) cannot resolve a
change of a tenth in the proposal path; replaying the same calls many
times can. The numbers are wall time of this process, so run it on an
otherwise idle machine and compare builds alternately.
"""

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "mapbench"))

from semmap import candidate, pipeline  # noqa: E402
from semmap.io_formats import parse_detection_log, parse_tum_trajectory  # noqa: E402
from workloads import WORKLOADS, pipeline_config  # noqa: E402


def recorded_proposals(workload: str, work: Path) -> list[tuple]:
    """The argument tuple of every propose_candidate call of the
    workload's runs, in call order."""
    calls = []
    original = pipeline.propose_candidate

    def keep(*args):
        calls.append(args)
        return original(*args)

    pipeline.propose_candidate = keep
    try:
        for scene in WORKLOADS[workload].scenes:
            base = work / scene.name
            base.mkdir(parents=True)
            scenario = base / "scenario.json"
            scenario.write_text(json.dumps(scene.scenario), encoding="utf-8")
            pipeline.cmd_simulate(scenario, base / "sim")
            pipeline.run_pipeline(parse_detection_log(base / "sim" / "detections.txt"),
                                  parse_tum_trajectory(base / "sim" / "odometry.txt"),
                                  pipeline_config(scenario))
    finally:
        pipeline.propose_candidate = original
    return calls


def mean_us(fn, calls: list[tuple]) -> float:
    """Mean microseconds of fn over the calls, one timer around all."""
    t0 = perf_counter()
    for args in calls:
        fn(*args)
    return 1e6 * (perf_counter() - t0) / max(len(calls), 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--repeat", type=int, default=5, metavar="K",
                        help="rounds of replay (default 5)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        proposals = recorded_proposals(args.workload, Path(tmp))
    extracts, estimates = [], []
    for tracklet, odometry, k, mad_threshold in proposals:
        rows = [m.frame_id for m in tracklet.measurements]
        views = candidate.Views(*(stack[rows] for stack in odometry))
        extracts.append((tracklet, views, k))
        _, means = candidate.extract_clouds(tracklet, views, k)
        if candidate.mad_deviation(means) <= mad_threshold:
            estimates.append((tracklet, views, k))

    parts = (("propose_candidate", candidate.propose_candidate, proposals),
             ("extract_clouds", candidate.extract_clouds, extracts),
             ("estimate_centroid", candidate.estimate_centroid, estimates))
    rounds = {name: [] for name, _, _ in parts}
    for _ in range(args.repeat):
        for name, fn, calls in parts:
            rounds[name].append(mean_us(fn, calls))

    print(f"{args.workload}: {len(proposals)} proposals, {args.repeat} rounds")
    print(f"{'part':<18} {'calls':>6} {'min us':>9} {'median us':>10}")
    for name, _, calls in parts:
        us = rounds[name]
        print(f"{name:<18} {len(calls):>6} {min(us):>9.1f} {statistics.median(us):>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

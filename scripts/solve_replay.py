#!/usr/bin/env python3
"""Replay a workload's pose-graph solves and time them in-process.

Renders each scene of the workload through `cmd_simulate`, maps it once
through `run_pipeline` with the scene's config, and keeps a deep copy of
the graph (its stacked chain rows included) and the arguments of every
`PoseGraph.optimize` call, taken before the call. It then solves fresh
copies of all of them --repeat times and prints, per solve, the
microseconds of the whole `optimize`, of its linear-system passes
(`PoseGraph._linear_system`) and of its damped steps' linear algebra
(`posegraph.solve_chain_schur`): the minimum and the median over the
rounds of each round's mean.

    python3 scripts/solve_replay.py --workload walking --repeat 5

Each round times `optimize` alone first, then solves the copies again
with the two parts wrapped, so the wrappers' timers do not count in the
`optimize` figure. One traced benchmark round (`posegraph.optimize_s`)
cannot resolve a solver change of a few percent; replaying the same
solves many times can. The numbers are wall time of this process, so run
it on an otherwise idle machine and compare builds alternately.
"""

import argparse
import copy
import json
import statistics
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "mapbench"))

from semmap import pipeline, posegraph  # noqa: E402
from semmap.io_formats import parse_detection_log, parse_tum_trajectory  # noqa: E402
from workloads import WORKLOADS, pipeline_config  # noqa: E402

PARTS = ("optimize", "_linear_system", "solve_chain_schur")


@contextmanager
def wrapped(owner, attr: str, around):
    """owner.attr replaced by around(original) for the length of the block."""
    original = vars(owner)[attr]
    setattr(owner, attr, around(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def recorded_solves(scenes, work: Path) -> list[tuple]:
    """(graph copy, args, kwargs) of every PoseGraph.optimize call of the
    scenes' runs, in call order, each copy taken before its call."""
    solves = []

    def keep(optimize):
        def call(graph, *args, **kwargs):
            solves.append((copy.deepcopy(graph), args, kwargs))
            return optimize(graph, *args, **kwargs)
        return call

    with wrapped(posegraph.PoseGraph, "optimize", keep):
        for scene in scenes:
            base = work / scene.name
            base.mkdir(parents=True)
            scenario = base / "scenario.json"
            scenario.write_text(json.dumps(scene.scenario), encoding="utf-8")
            pipeline.cmd_simulate(scenario, base / "sim")
            pipeline.run_pipeline(parse_detection_log(base / "sim" / "detections.txt"),
                                  parse_tum_trajectory(base / "sim" / "odometry.txt"),
                                  pipeline_config(scenario))
    return solves


def replay_round(solves: list[tuple]) -> dict[str, float]:
    """Mean microseconds per solve of optimize and of its two parts over
    fresh copies of the recorded solves."""
    spent = dict.fromkeys(PARTS, 0.0)
    graphs = [copy.deepcopy(g) for g, _, _ in solves]
    t0 = perf_counter()
    for g, (_, args, kwargs) in zip(graphs, solves):
        g.optimize(*args, **kwargs)
    spent["optimize"] = perf_counter() - t0

    def timed(name):
        def around(fn):
            def call(*args, **kwargs):
                t = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    spent[name] += perf_counter() - t
            return call
        return around

    graphs = [copy.deepcopy(g) for g, _, _ in solves]
    with (wrapped(posegraph.PoseGraph, "_linear_system", timed("_linear_system")),
          wrapped(posegraph, "solve_chain_schur", timed("solve_chain_schur"))):
        for g, (_, args, kwargs) in zip(graphs, solves):
            g.optimize(*args, **kwargs)
    return {name: 1e6 * s / max(len(solves), 1) for name, s in spent.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--repeat", type=int, default=5, metavar="K",
                        help="rounds of replay (default 5)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        solves = recorded_solves(WORKLOADS[args.workload].scenes, Path(tmp))
    rounds = [replay_round(solves) for _ in range(args.repeat)]

    print(f"{args.workload}: {len(solves)} solves, {args.repeat} rounds")
    print(f"{'part':<18} {'min us':>10} {'median us':>10}")
    for name in PARTS:
        us = [r[name] for r in rounds]
        print(f"{name:<18} {min(us):>10.1f} {statistics.median(us):>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

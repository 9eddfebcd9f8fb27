#!/usr/bin/env python3
"""sha256 of every deterministic output of the benchmark's scenes.

Renders each scene of `mapbench/workloads.py` through `cmd_simulate`,
maps it through `cmd_run` with the scene's config, and records the
digest of `corrected_trajectory.txt`, `landmark_map.json` and
`graph.g2o` (each embeds the config hash). The four files
`cmd_simulate` writes (`ground_truth.txt`, `odometry.txt`,
`detections.txt` and `registry.json`) are digested too, under
`<scene>/sim/<file>`, so a change to the simulator can show that it
renders the same logs. Each `landmark_map.json`
also gets a content digest under `<scene>/landmark_map.json#content`:
the sha256 of the parsed document re-dumped with sorted keys, which
stays the same when only the file's layout changes. A refactor that
claims byte-identical outputs compares its digests with the parent's:

    python3 scripts/output_digests.py --out parent.json      # on the parent
    python3 scripts/output_digests.py --compare parent.json  # on the change

--workload NAME (repeatable) maps only that workload's scenes, and
--compare then checks only those scenes of the parent file:

    python3 scripts/output_digests.py --workload desk --compare parent.json

Each scene's `run_manifest.json` `counts` are recorded too, under
`<scene>/run_manifest.json#counts`, so a refactor of the run loop can
show its counts unchanged as well as its output files.

The solver's path is recorded under `<scene>/solves#path`: one sha256
over every `PoseGraph.optimize` report of the scene's run, in call
order, of its `iterations`, `steps`, `stop_reason`,
`deactivated_observations` and the float64 bits of `cost_trace` and
`lambda_trace`. A change to the solver that keeps its outputs can then
show that it also took the same steps.

The proposal stream is recorded under `<scene>/proposals#stream`: one
sha256 over every `propose_candidate` result of the scene's run, in
call order, of its tracklet id, `accepted`, `low_confidence`, the bits
(as float.hex) of `mad`, and for an accepted proposal the bits of the
candidate's `map_centroid` and `size_estimate` and the sha256 of its
cloud's point bytes. A change to the proposal path that keeps its
outputs can then show that every candidate is unchanged too.

--compare prints the files whose bytes differ, the scenes whose counts,
solve paths or proposal streams differ and, separately, the maps whose
content differs. It lists each scene that one side has and the other
lacks (a selected scene absent from the parent file, or a parent scene
this run did not map), and exits 1 if any bytes (of a run output or of
a simulator output), counts, solve paths or proposal streams differ or
any scene is missing. A parent file without simulator digests, content
digests, counts, solve paths or proposal streams gets only the
comparisons it has digests for.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "mapbench"))

from semmap import pipeline  # noqa: E402
from semmap.pipeline import (DETERMINISTIC_RUN_OUTPUTS, SIMULATE_OUTPUTS,  # noqa: E402
                             cmd_run, cmd_simulate)
from semmap.posegraph import PoseGraph  # noqa: E402
from workloads import WORKLOADS, pipeline_config  # noqa: E402

CONTENT = "#content"
COUNTS = "run_manifest.json#counts"
SOLVES = "solves#path"
PROPOSALS = "proposals#stream"
SIM = "/sim/"


@contextmanager
def recorded(owner, attr: str):
    """Every value `owner.attr` returns in the body of the block, in call
    order: a method looked up on its class, or a module global its
    module's callers look up at call time. The original is restored on
    exit."""
    results = []
    original = owner.__dict__[attr]

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(result)
        return result

    setattr(owner, attr, wrapper)
    try:
        yield results
    finally:
        setattr(owner, attr, original)


def proposal_stream_digest(proposals) -> str:
    """sha256 of each proposal's tracklet id, flags and the bits of its
    MAD, and of an accepted candidate's centroid, size and cloud, one
    JSON line per proposal."""
    h = hashlib.sha256()
    for p in proposals:
        line = [p.tracklet.id, p.accepted, p.low_confidence, p.mad.hex()]
        if p.candidate is not None:
            c = p.candidate
            line += [[float(x).hex() for x in c.map_centroid], c.size_estimate.hex(),
                     hashlib.sha256(c.cloud.points.tobytes()).hexdigest()]
        h.update(json.dumps(line).encode("utf-8") + b"\n")
    return h.hexdigest()


def solve_path_digest(reports) -> str:
    """sha256 of each report's step counts, stop reason, deactivated
    count and the float64 bits (as float.hex) of its cost and damping
    traces, one JSON line per report."""
    h = hashlib.sha256()
    for r in reports:
        line = [r.iterations, r.steps, r.stop_reason, r.deactivated_observations,
                [x.hex() for x in r.cost_trace], [x.hex() for x in r.lambda_trace]]
        h.update(json.dumps(line).encode("utf-8") + b"\n")
    return h.hexdigest()


def content_digest(data: bytes) -> str:
    """sha256 of a JSON document re-dumped with sorted keys."""
    doc = json.loads(data)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def scene_digests(work: Path, workloads: list[str]) -> dict[str, str | dict]:
    """'<scene>/<file>' and '<scene>/sim/<file>' -> sha256 hex digest of a
    run output and of a simulator output, '<scene>/<COUNTS>' -> the
    run's counts, '<scene>/<SOLVES>' -> the digest of its solve path and
    '<scene>/<PROPOSALS>' -> the digest of its proposal stream, over the
    named workloads' scenes, in workload order."""
    out = {}
    for name in workloads:
        for scene in WORKLOADS[name].scenes:
            base = work / scene.name
            base.mkdir(parents=True)
            scenario = base / "scenario.json"
            scenario.write_text(json.dumps(scene.scenario), encoding="utf-8")
            cmd_simulate(scenario, base / "sim")
            for name in SIMULATE_OUTPUTS:
                data = (base / "sim" / name).read_bytes()
                out[f"{scene.name}{SIM}{name}"] = hashlib.sha256(data).hexdigest()
            with (recorded(PoseGraph, "optimize") as reports,
                  recorded(pipeline, "propose_candidate") as proposals):
                manifest = cmd_run(base / "sim" / "detections.txt",
                                   base / "sim" / "odometry.txt",
                                   base / "run", pipeline_config(scenario))
            out[f"{scene.name}/{COUNTS}"] = manifest.counts
            out[f"{scene.name}/{SOLVES}"] = solve_path_digest(reports)
            out[f"{scene.name}/{PROPOSALS}"] = proposal_stream_digest(proposals)
            for name in DETERMINISTIC_RUN_OUTPUTS:
                data = (base / "run" / name).read_bytes()
                out[f"{scene.name}/{name}"] = hashlib.sha256(data).hexdigest()
                if name == "landmark_map.json":
                    out[f"{scene.name}/{name}{CONTENT}"] = content_digest(data)
            print(f"{scene.name}: done", file=sys.stderr)
    return out


def scene_of(key: str) -> str:
    return key.split("/", 1)[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the digests as JSON")
    parser.add_argument("--compare", type=Path, metavar="PARENT_JSON",
                        help="list the files whose digests differ from these")
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        metavar="NAME", help="map only this workload's scenes "
                        "(repeatable; default: every workload)")
    args = parser.parse_args(argv)
    workloads = [w for w in WORKLOADS if w in args.workload] if args.workload else list(WORKLOADS)

    with tempfile.TemporaryDirectory() as tmp:
        digests = scene_digests(Path(tmp), workloads)
    if args.out:
        args.out.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    if args.compare is None:
        return 0
    parent = json.loads(args.compare.read_text(encoding="utf-8"))
    mapped = {scene.name for w in workloads for scene in WORKLOADS[w].scenes}
    if args.workload:
        parent = {k: v for k, v in parent.items() if scene_of(k) in mapped}
    parent_scenes = {scene_of(k) for k in parent}
    missing = [f"scene missing from {args.compare}: {scene}"
               for scene in sorted(mapped - parent_scenes)]
    missing += [f"scene not mapped in this run: {scene}"
                for scene in sorted(parent_scenes - mapped)]
    for line in missing:
        print(line)
    keys = sorted(k for k in parent.keys() | digests.keys()
                  if scene_of(k) in mapped & parent_scenes)
    byte_keys = [k for k in keys if SIM not in k
                 and not k.endswith((CONTENT, COUNTS, SOLVES, PROPOSALS))]

    def kind(suffix):
        """The keys of one digest kind, if the parent file records it."""
        return ([k for k in keys if k.endswith(suffix)]
                if any(k.endswith(suffix) for k in parent) else [])

    content_keys, count_keys, solve_keys, proposal_keys = (
        kind(CONTENT), kind(COUNTS), kind(SOLVES), kind(PROPOSALS))
    sim_keys = [k for k in keys if SIM in k] if any(SIM in k for k in parent) else []
    differ = [k for k in byte_keys if parent.get(k) != digests.get(k)]
    sim_differ = [k for k in sim_keys if parent.get(k) != digests.get(k)]
    for key in differ + sim_differ:
        print(f"bytes differ: {key}")
    counts_differ = [k for k in count_keys if parent.get(k) != digests.get(k)]
    for key in counts_differ:
        print(f"counts differ: {scene_of(key)}")
    solves_differ = [k for k in solve_keys if parent.get(k) != digests.get(k)]
    for key in solves_differ:
        print(f"solve path differs: {scene_of(key)}")
    proposals_differ = [k for k in proposal_keys if parent.get(k) != digests.get(k)]
    for key in proposals_differ:
        print(f"proposal stream differs: {scene_of(key)}")
    content_differ = [k for k in content_keys if parent.get(k) != digests.get(k)]
    for key in content_differ:
        print(f"content differs: {key.removesuffix(CONTENT)}")
    print(f"{len(byte_keys) - len(differ)}/{len(byte_keys)} outputs byte-identical")
    if sim_keys:
        print(f"{len(sim_keys) - len(sim_differ)}/{len(sim_keys)} "
              "simulator outputs byte-identical")
    if content_keys:
        print(f"{len(content_keys) - len(content_differ)}/{len(content_keys)} "
              "landmark maps content-identical")
    if count_keys:
        print(f"{len(count_keys) - len(counts_differ)}/{len(count_keys)} "
              "scenes with identical counts")
    if solve_keys:
        print(f"{len(solve_keys) - len(solves_differ)}/{len(solve_keys)} "
              "scenes with identical solve paths")
    if proposal_keys:
        print(f"{len(proposal_keys) - len(proposals_differ)}/{len(proposal_keys)} "
              "scenes with identical proposal streams")
    return 1 if (differ or sim_differ or counts_differ or solves_differ or proposals_differ
                 or missing) else 0


if __name__ == "__main__":
    sys.exit(main())

"""Every name the benchmark's probes wrap still lives where they look it up,
and every config and command the benchmark calls still takes its call.

mapbench/layers.py replaces functions and methods for the length of a
run through `owner.__dict__[attr]`. A refactor that moves one of them
out of its owner (a function imported from elsewhere, a method
inherited) passes every other test here and then fails the first traced
benchmark round with a KeyError. Likewise mapbench/workloads.py builds
each scene's PipelineConfig by keyword, and mapbench/run.py calls the
file-level commands through the pipeline module: a renamed or deleted
field or command would fail every benchmark run. scripts/output_digests.py,
which a refactor uses to show its outputs unchanged, records the solver
and proposal paths the same way, and scripts/solve_replay.py times the
solver through the names it wraps.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from semmap import pipeline
from semmap.simulator import desk_preset, ground_truth_bundle

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "mapbench"))
sys.path.insert(0, str(ROOT / "scripts"))

import output_digests  # noqa: E402
import solve_replay  # noqa: E402
from layers import FrameClock, Recorder, RenderClock, installed  # noqa: E402
from workloads import WORKLOADS, pipeline_config  # noqa: E402

PROBES = (Recorder, FrameClock, RenderClock)


def test_every_probe_target_is_in_its_owner():
    targets = [(owner, attr) for probe in PROBES for owner, attr, _ in probe().targets()]
    assert len(targets) >= 21
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in targets if attr not in vars(owner)]
    assert missing == []


def test_probes_install_and_restore():
    for probe in PROBES:
        targets = probe().targets()
        before = [vars(owner)[attr] for owner, attr, _ in targets]
        with installed(probe()):
            pass
        assert [vars(owner)[attr] for owner, attr, _ in targets] == before


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_workload_config_builds(workload, tmp_path):
    # parsing only: the scene is not rendered
    scene = WORKLOADS[workload].scenes[0]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(scene.scenario), encoding="utf-8")
    assert isinstance(pipeline_config(scenario), pipeline.PipelineConfig)


def test_file_level_commands_are_in_the_pipeline_module():
    for name in ("cmd_simulate", "cmd_run", "cmd_eval"):
        assert callable(vars(pipeline).get(name)), name


def test_layer_probes_record_the_proposal_path():
    # the candidate spans wrap the names propose_candidate and the
    # pipeline look up at call time; a refactor that stopped calling
    # through them would leave the names in place and zero the layers
    world, noise = desk_preset(seed=0, duration=12.0, frame_rate=10.0, laps=1.5)
    bundle = ground_truth_bundle(world, noise)
    rec = Recorder()
    with installed(rec):
        pipeline.run_pipeline(bundle.frames, bundle.odometry, pipeline.PipelineConfig())
    for name in ("candidate.propose", "candidate.extract", "candidate.localize"):
        assert rec.n_spans(name) >= 1, name


def test_output_digests_record_and_compare(tmp_path, capsys):
    # the names the script wraps while a scene runs
    assert "optimize" in vars(output_digests.PoseGraph)
    assert "propose_candidate" in vars(output_digests.pipeline)
    digests = tmp_path / "digests.json"
    assert output_digests.main(["--workload", "desk", "--out", str(digests)]) == 0
    capsys.readouterr()
    assert output_digests.main(["--workload", "desk", "--compare", str(digests)]) == 0
    out = capsys.readouterr().out
    n = len(WORKLOADS["desk"].scenes)
    for line in (f"{n}/{n} scenes with identical solve paths",
                 f"{n}/{n} scenes with identical proposal streams"):
        assert line in out


def test_solve_replay_times_every_part(monkeypatch, capsys):
    # the names the script wraps, each in its owner's __dict__
    assert "optimize" in vars(solve_replay.posegraph.PoseGraph)
    assert "_linear_system" in vars(solve_replay.posegraph.PoseGraph)
    assert "solve_chain_schur" in vars(solve_replay.posegraph)
    desk = WORKLOADS["desk"]
    monkeypatch.setitem(solve_replay.WORKLOADS, "desk",
                        dataclasses.replace(desk, scenes=desk.scenes[:1]))
    assert solve_replay.main(["--workload", "desk", "--repeat", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "desk: 10 solves, 1 rounds"
    times = {line.split()[0]: [float(x) for x in line.split()[1:]] for line in out[2:]}
    assert set(times) == set(solve_replay.PARTS)
    # every part ran: a wrapped name the solver no longer calls would read 0
    assert all(t > 0.0 for us in times.values() for t in us)

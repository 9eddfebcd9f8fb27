"""The benchmark's workloads: which scenes each maps, and how.

A scene is a simulator scenario (the JSON `semmap simulate` reads) plus
the `PipelineConfig` it is mapped with: the defaults, with `seed` set to
the scenario seed and the odometry sigmas set to the scene's odometry
noise, as the experiment scripts do.
"""

from __future__ import annotations

from dataclasses import dataclass

from semmap.io_formats import parse_scenario_config
from semmap.pipeline import PipelineConfig


@dataclass(frozen=True)
class Scene:
    name: str
    scenario: dict


@dataclass(frozen=True)
class Workload:
    name: str
    scenes: tuple[Scene, ...]
    # the camera moves on a straight line far from the objects (walking).
    # `semmap eval` cannot align such a path. With no loop to close, the
    # correction does not reliably beat raw odometry (it is slightly worse
    # on 3 of the 18 walking scenes). Landmarks are triangulated over a
    # short baseline, so checks.py allows them a looser distance.
    straight_path: bool


def _scenes(preset: str, seeds, **extra) -> tuple[Scene, ...]:
    tag = "-".join([preset] + [f"{k}{v}" for k, v in extra.items()])
    return tuple(Scene(f"{tag}-s{s}", {"preset": preset, "seed": s, **extra})
                 for s in seeds)


WORKLOADS = {
    w.name: w for w in (
        Workload("desk", _scenes("desk", (0, 1)), False),
        Workload("drift_loop", _scenes("drift_loop", (0, 1)), False),
        Workload("desk_long", _scenes("desk", (0,), duration=60, laps=7.5),
                 False),
        Workload("walking", _scenes("walking", range(18)), True),
    )
}


def pipeline_config(scenario_path) -> PipelineConfig:
    """The config a scene is mapped with, read from its scenario file."""
    _, noise = parse_scenario_config(scenario_path)
    return PipelineConfig(
        seed=noise.seed,
        odometry_translation_sigma=noise.odom_translation_sigma,
        odometry_rotation_sigma=noise.odom_rotation_sigma,
    )

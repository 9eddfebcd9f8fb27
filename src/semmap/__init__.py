"""Semantic landmark mapping on top of a drifting odometry stream.

The package turns per-frame 2D object detections plus camera poses into
a 3D landmark map and uses re-observed landmarks as pose-graph
constraints to correct odometry drift.
"""

__version__ = "0.1.0"

from .geometry import CameraIntrinsics, Pixel, PointCloud, Pose, Trajectory
from .pipeline import PipelineConfig, RunResult, run_pipeline

__all__ = [
    "CameraIntrinsics",
    "Pixel",
    "PipelineConfig",
    "PointCloud",
    "Pose",
    "RunResult",
    "Trajectory",
    "run_pipeline",
    "__version__",
]

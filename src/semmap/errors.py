"""Exception types raised by the mapping pipeline.

Everything derives from MappingError so callers can catch the whole
family at the CLI boundary and map it to an exit code.
"""

from __future__ import annotations


class MappingError(Exception):
    """Base class for all pipeline errors."""


class DataError(MappingError):
    """Malformed or inconsistent input data (exit code 2 at the CLI)."""


class NumericalError(MappingError):
    """Numerical failure inside an algorithm (exit code 3 at the CLI)."""


class BehindCameraError(NumericalError):
    """Point has non-positive depth in the camera frame."""


class NonPositiveDepthError(DataError):
    """Requested back-projection depth is zero or negative."""


class EmptyCloudError(DataError):
    """Operation requires at least one point."""


class OutOfOrderTimestampError(DataError):
    """Timestamps moved backwards where monotone time is required."""


class TooFewMeasurementsError(DataError):
    """Operation requires more measurements than were supplied."""


class UnknownNodeError(DataError):
    """Factor references a graph node that does not exist."""


class SingularSystemError(NumericalError):
    """Normal equations are singular beyond what damping can repair."""


class DegenerateConfigurationError(NumericalError):
    """Point configuration does not determine a unique alignment."""


class FormatError(DataError):
    """Structured text file violates its format."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MalformedLineError(FormatError):
    """Line has the wrong field count or an unparseable field."""


class NonUnitQuaternionError(FormatError):
    """Quaternion norm deviates from 1 beyond the repair tolerance."""


class ConfigParseError(FormatError):
    """Configuration file could not be parsed."""


class TimestampMismatchError(DataError):
    """Stamps or frame ids that do not line up: a detection off its
    frame's odometry row, or two trajectories sharing too few stamps."""


class IllPosedScenarioError(DataError):
    """Simulated scenario cannot exercise the pipeline (nothing trackable)."""

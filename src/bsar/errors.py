"""Exception hierarchy shared by the toolkit.

Each error class carries the process exit status used by the CLI, so the
command layer can map failures without a lookup table.
"""


class BsarError(Exception):
    """Base class for all toolkit errors."""

    exit_status = 1
    kind = "error"


class ParameterError(BsarError):
    """Invalid argument, configuration or file content outside format issues."""

    exit_status = 2
    kind = "parameter"


class SampleError(ParameterError):
    """A NaN or infinite sample in a BSAR input: a fault of the file, not of
    the stage that read it."""


class ConfigurationError(ParameterError):
    """A simulation configuration that cannot produce a valid scene."""

    kind = "configuration"


class DegenerateFitError(ParameterError):
    """Least-squares phase fit is rank-deficient or its phase is not quadratic."""

    kind = "degenerate-fit"


class NoTargetError(ParameterError):
    """No point target found in the analysis window."""

    kind = "no-target"


class FormatError(BsarError):
    """Malformed file on disk; for a BSAR file the message names the byte ("at byte N")."""

    exit_status = 3
    kind = "format"


class UnsuitableSceneError(BsarError):
    """Scene does not satisfy the dominant point-scatterer precondition."""

    exit_status = 4
    kind = "unsuitable-scene"


class ConvergenceError(BsarError):
    """Iterative decomposition failed to converge within its sweep limit."""

    exit_status = 5
    kind = "convergence"


class TrackingError(ConvergenceError):
    """Too few usable peaks to fit a migration trajectory."""

    kind = "tracking"

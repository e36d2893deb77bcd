"""Typed numerical failures shared by every solver module.

Each module's base error (SymplecticError, FlowError, SpectraError,
ResolventError, DampedWaveError) subclasses LoxokitError only;
GridTooCoarse and StepFailure are defined here once. The command line
maps every LoxokitError to exit code 3, and a ValueError, which is how
every module reports a bad input, to exit code 2.
"""


class LoxokitError(RuntimeError):
    """Root of every numerical failure raised by loxokit."""


class GridTooCoarse(LoxokitError):
    """The discretization grid cannot resolve the requested scale."""


class StepFailure(LoxokitError):
    """A time integrator or propagator failed to reach the requested time."""

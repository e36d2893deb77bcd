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


def check_entries(entries, name, plural=None, empty=None):
    """entries as a tuple: the one rule for list inputs refuses an empty
    list (with the message empty, if given) and a repeated entry. name
    is one entry's noun and plural the list's (name + "s" by default)."""
    entries = tuple(entries)
    if not entries:
        raise ValueError(empty or f"need at least one {name}")
    if len(set(entries)) < len(entries):
        listed = ", ".join(map(str, entries))
        raise ValueError(f"{plural or name + 's'} [{listed}] repeat a "
                         f"{name}; each {name} counts once")
    return entries

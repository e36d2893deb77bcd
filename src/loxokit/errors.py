"""Typed numerical failures shared by every solver module.

Each module's base error (SymplecticError, FlowError, SpectraError,
ResolventError, DampedWaveError) subclasses LoxokitError only;
GridTooCoarse and StepFailure are defined here once. The command line
maps every LoxokitError to exit code 3, and a ValueError, which is how
every module reports a bad input, to exit code 2. The rules for those
inputs live here too, one per kind: a finite positive scalar, an
angular mode, a grid size, and a list.
"""

import math
import numbers


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


def check_positive(value, name):
    """The rule for a scalar input: finite and > 0 (ValueError naming
    the value otherwise)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, not {value}")


def check_count(value, name, least):
    """The rule for a grid size: an integer (not a bool or a float,
    however whole) of at least least (ValueError naming the value
    otherwise)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, not {value}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, not {value}")


def check_mode(k):
    """The rule for an angular mode k: a nonnegative integer, so not NaN
    or infinite either (ValueError otherwise)."""
    if not (0 <= k < math.inf and k == int(k)):
        raise ValueError(f"mode k must be a nonnegative integer, not {k}")


def check_modes(entries, name, plural=None):
    """entries as a tuple, refused before any solve when the list breaks
    the list rule (check_entries, with name and plural its nouns) or
    holds an entry that breaks the mode rule (check_mode)."""
    entries = check_entries(entries, name, plural)
    for k in entries:
        check_mode(k)
    return entries

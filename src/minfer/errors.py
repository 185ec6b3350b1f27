"""Exception hierarchy, and the one checker of each input quantity.

``ValidationError`` and its subclasses signal bad user input (CLI exit
code 1); ``NumericError`` subclasses signal a computation that cannot
proceed (CLI exit code 2). Domain outcomes that are not failures of the
caller, such as an empty level set, derive from ``MinferError`` directly.

The library entry points call the checkers below; an error they raise
names the parameter, its value and the rule, so the CLI can name the
flag that set it. Counts and sample sizes are integers >= 1, seeds >= 0
(numpy integers are integers, bool is not), and NaN fails every range.
Sample sizes end at ``MAX_SIZE`` = 2**63 - 1, the int64 range numpy's
samplers take, and replicate counts at 2**32, the indices one 32-bit
spawn word holds.
"""

import numbers

import numpy as np

MAX_SIZE = 2**63 - 1


class MinferError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MinferError, ValueError):
    """Invalid input: counts, probabilities, or arguments out of range."""

    name: str | None = None
    value: object = None
    rule: str | None = None


class ThetaOutOfDomain(ValidationError):
    """A parameter-of-interest value lies outside [0, 1]."""


class BoundaryTheta(ValidationError):
    """theta sits exactly on an identification bound where the requested
    classification (interior vs exterior) is undefined."""


class NumericError(MinferError):
    """A numeric routine cannot produce a valid result."""


class DegenerateVariance(NumericError):
    """The normal approximation is unavailable because an estimated cell
    probability sits on {0, 1}."""


class EmptyLevelSet(MinferError):
    """No grid point reaches the requested corroboration level."""


class NoQualifyingH(MinferError):
    """No candidate offset h meets the requested assurance level."""


def _invalid(kind: type, name: str, value: object, rule: str) -> ValidationError:
    # parameter ``name`` = ``value`` (None: not shown) breaks ``rule``
    error = kind(f"{name} {rule}" if value is None else f"{name} = {value} {rule}")
    error.name, error.value, error.rule = name, value, rule
    return error


def _check_count(value, name: str, least: int = 1) -> int:
    # an integer >= least, returned as an int
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise _invalid(ValidationError, name, repr(value), "must be an integer")
    if value < least:
        raise _invalid(ValidationError, name, value, f"must be at least {least}")
    return int(value)


def _check_replicates(value, name: str) -> int:
    # a replicate count: replicate b's stream is spawned with the 32-bit word b
    count = _check_count(value, name)
    if count > 2**32:
        raise _invalid(ValidationError, name, value, f"must be at most {2**32}")
    return count


def _check_seed(value, name: str = "master_seed") -> int:
    # a master seed, or a replicate's spawn index
    return _check_count(value, name, least=0)


def _check_sizes(sizes, name: str = "sizes") -> None:
    # n, or a pair (n1, n2)
    if np.ndim(sizes) and np.shape(sizes) != (2,):
        raise _invalid(ValidationError, name, sizes, "must be n or a pair (n1, n2)")
    for n in sizes if np.ndim(sizes) else (sizes,):
        if _check_count(n, name) > MAX_SIZE:
            raise _invalid(ValidationError, name, n, f"must be at most {MAX_SIZE}")


def _check_theta(theta, name: str = "theta") -> np.ndarray:
    # a number or an array, returned as a float array of at least one dimension
    values = np.atleast_1d(np.asarray(theta, dtype=float))
    outside = ~((0.0 <= values) & (values <= 1.0))
    if outside.any():
        raise _invalid(ThetaOutOfDomain, name, values[outside][0], "must lie in [0, 1]")
    return values


def _check_probability(value: float, name: str, positive: bool = False) -> None:
    # in (0, 1] when ``positive`` (a corroboration level alpha)
    if not ((value > 0.0 if positive else value >= 0.0) and value <= 1.0):
        raise _invalid(ValidationError, name, value, f"must lie in {'(' if positive else '['}0, 1]")


def _check_offset(h: float, name: str = "h") -> None:
    # corroboration lies in [0, 1], so any h >= 1 would select the whole grid
    if not 0.0 <= h < 1.0:
        raise _invalid(ValidationError, name, h, "must lie in [0, 1)")


def _check_grid(grid: np.ndarray) -> None:
    # a theta grid, given as a float array
    if grid.ndim != 1 or grid.size == 0:
        raise _invalid(ValidationError, "grid", None, "must be a nonempty 1-D array")
    if not (grid[0] >= 0.0 and grid[-1] <= 1.0 and np.all(np.diff(grid) > 0.0)):
        raise _invalid(ValidationError, "grid", None, "must be strictly increasing within [0, 1]")

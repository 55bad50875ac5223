"""Exception hierarchy shared by all modules, and the integer conversion
and range check of their site and count arguments."""

from operator import index


class SpectralWalkError(Exception):
    """Base class for all library errors."""


class DomainError(SpectralWalkError, ValueError):
    """A mathematical precondition on input values is violated.

    Raised e.g. for a nonpositive birth rate where positivity is required,
    or an elliptic modulus outside (0, 1). Messages name the offending
    index or field.
    """


class UsageError(SpectralWalkError, ValueError):
    """The call itself is malformed: mismatched objects, empty input,
    size above a configured cap, unnormalized measure."""


class NumericError(SpectralWalkError, RuntimeError):
    """A numerical procedure failed to converge or lost validity."""


class ConfigurationError(SpectralWalkError, ValueError):
    """A truncation/tolerance configuration cannot be satisfied; the
    message suggests how to widen it."""


def _integer(name: str, value) -> int:
    """``value`` as an int by operator.index: ints, numpy integers and
    bools pass, while 2.7, 2.0, "1" and None raise UsageError naming the
    argument and the value."""
    try:
        return index(value)
    except TypeError:
        raise UsageError(f"{name} is {value!r}, expected an integer") from None


def _check_sites(size: int, *sites: int) -> None:
    """A site below 0, then one at or beyond size, raise UsageError."""
    if min(sites) < 0:
        raise UsageError(f"site index {min(sites)} must be nonnegative")
    if max(sites) >= size:
        raise UsageError(f"site index {max(sites)} beyond operator size {size}")

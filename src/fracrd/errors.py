"""Exception hierarchy shared by all fracrd modules, and the number readers."""

import math


class FracRDError(Exception):
    """Base class for all fracrd errors."""


class InvalidParameter(FracRDError, ValueError):
    """An argument outside its domain.  ``name`` names the argument when it
    is also a config key, so a config reader can point at the key; the
    message then reads "<name> <requirement>"."""

    def __init__(self, requirement, name=None):
        self.name = name
        self.requirement = requirement
        super().__init__(requirement if name is None else f"{name} {requirement}")


def as_int(x, name=None, lo=0) -> int:
    """x when it is an int, not a bool, and at least lo; raises InvalidParameter."""
    if type(x) is not int or x < lo:
        raise InvalidParameter(f"must be an integer >= {lo}, got {x!r}", name)
    return x


def as_real(x, name=None, finite=False) -> float:
    """x as a float: any number but a bool, or "inf" unless finite (then NaN, inf fail)."""
    if not finite and isinstance(x, str) and x.lower() in ("inf", "infinity"):
        return math.inf
    if isinstance(x, bool) or not isinstance(x, (int, float)) or finite and not math.isfinite(x):
        raise InvalidParameter(f"must be a {'finite ' * finite}number, got {x!r}", name)
    return float(x)


def in_range(x, name, interval, error=InvalidParameter) -> float:
    """x read by as_real when it lies in interval, written "(a, b]" with ( ) open
    and [ ] closed ends; NaN lies in no interval, inf only in one closed at inf."""
    v = as_real(x, name)
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above = lo < v or interval[0] == "[" and v == lo
    below = v < hi or interval[-1] == "]" and v == hi
    if not (above and below):
        raise error(f"must lie in {interval}, got {x!r}", name)
    return v


# --- grid / spectral ---------------------------------------------------
class InvalidDims(InvalidParameter):
    pass


class NotPowerOfTwo(InvalidParameter):
    pass


class MemoryBudgetExceeded(InvalidParameter):
    pass


class NonFiniteInput(FracRDError):
    pass


class GridTooLarge(FracRDError):
    pass


class BetaOutOfRange(InvalidParameter):
    pass


# --- heat kernel -------------------------------------------------------
class NonPositiveTime(InvalidParameter):
    pass


class NegativeTime(InvalidParameter):
    pass


class TailMassTooLarge(FracRDError):
    pass


class ExponentOrder(InvalidParameter):
    pass


class DegenerateFit(FracRDError):
    pass


# --- reaction models ---------------------------------------------------
class NegativeStateBeyondTolerance(FracRDError):
    pass


class NonFiniteRate(FracRDError):
    pass


class MissingMeta(FracRDError):
    pass


class DissipationViolated(FracRDError):
    pass


# --- mild solver -------------------------------------------------------
class PicardDivergence(FracRDError):
    """A rejected Picard window: ``reason`` is "non-finite", "stalled" or
    "max-iterations"; ``iterations`` is the iteration it stopped at and
    ``residual`` that iteration's relative change (NaN when non-finite)."""

    def __init__(self, message, iterations=None, residual=None, reason=None):
        super().__init__(message)
        self.iterations, self.residual, self.reason = iterations, residual, reason


class NegativeInitialData(FracRDError):
    pass


# --- estimate lab ------------------------------------------------------
class EmptyTrajectory(FracRDError):
    pass


class GammaOutOfRange(InvalidParameter):
    pass


class TooFewSlices(FracRDError):
    pass


class EllOutOfRange(InvalidParameter):
    pass


class QOutOfRange(InvalidParameter):
    pass


class ZeroField(FracRDError):
    pass


class NonUniformTimeGrid(FracRDError):
    pass


class RhoInadmissible(InvalidParameter):
    pass


class P0TooSmall(InvalidParameter):
    pass


# --- CLI / orchestration ----------------------------------------------
class ConfigInvalid(FracRDError):
    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class ModelUnknown(FracRDError):
    pass


class OutputUnwritable(FracRDError):
    pass


class UnknownAxis(FracRDError):
    pass


class EmptyValues(FracRDError):
    pass

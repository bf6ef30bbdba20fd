"""Exception hierarchy.

Three groups matter to callers: input/usage problems (``ParseError``,
``ConfigError``), violated mathematical preconditions (``PreconditionError``),
and iterative non-convergence (``NoConvergence``).  The CLI maps these to
exit codes 2, 3 and 4 respectively.

``reason`` names a violated precondition the same way everywhere: the CLI
reports it as "inapplicable" and the sweeps count skips under it.
"""

import re
from functools import lru_cache


class NbZagrebError(Exception):
    """Base class for all package errors."""


class ParseError(NbZagrebError):
    """Malformed graph input."""


class MalformedLine(ParseError):
    pass


class SelfLoop(ParseError):
    pass


class DuplicateEdge(ParseError):
    pass


class NonContiguousIds(ParseError):
    pass


class InvalidGraph6(ParseError):
    pass


class ConfigError(NbZagrebError):
    """Bad run configuration (limits, unknown names)."""


class NTooLarge(ConfigError):
    pass


class VertexCountTooLarge(ConfigError):
    pass


class ProfileTooLarge(ConfigError):
    """Distance-2 sums past both the stamp step budget and the bitset cap."""


class UnknownBoundSource(ConfigError):
    pass


class PreconditionError(NbZagrebError):
    """An operation's mathematical precondition does not hold."""


class ForbiddenAlpha(PreconditionError):
    """Exponent within 1e-12 of 0 or 1, or not finite."""


class ZeroBaseNegativeExponent(PreconditionError):
    """A zero degree raised to a negative power."""


class PowerOverflow(PreconditionError):
    """A power of a degree, or a value formed from such powers, leaves the
    float64 range."""


class NeighborhoodRegular(PreconditionError):
    """All neighborhood degrees coincide (min = max)."""


class NotDiameterTwo(PreconditionError):
    pass


class ZeroMinDist2Degree(PreconditionError):
    pass


class Dist2Regular(PreconditionError):
    pass


class GapTooSmall(PreconditionError):
    """Neighborhood-degree gap max - min is below 2."""


class NonPositiveQuotient(PreconditionError):
    """M1 - n*min is too small for a positive quotient."""


class RemainderZero(PreconditionError):
    pass


class UnoccupiedRemainderDegree(PreconditionError):
    pass


class OutOfRangeIndex(PreconditionError):
    pass


class Disconnected(PreconditionError):
    pass


class EmptyGraph(PreconditionError):
    """No edges, so degree-based denominators vanish."""


class NoConvergence(NbZagrebError):
    """Iteration budget exhausted before reaching tolerance."""


_SNAKE = re.compile(r"(?<!^)(?=[A-Z])")


@lru_cache(maxsize=None)
def _snake_name(cls: type) -> str:
    return _SNAKE.sub("_", cls.__name__).lower()


def reason(exc: NbZagrebError) -> str:
    """Snake_case name of the exception's class, e.g. ``neighborhood_regular``."""
    return _snake_name(type(exc))

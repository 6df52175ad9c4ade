"""Exception types shared across the package, and its enumeration guard."""


class MrGridError(Exception):
    """Base class for all domain errors."""


class DivisionByZero(MrGridError):
    pass


class ZeroHasNoLog(MrGridError):
    pass


class RankDeficient(MrGridError):
    pass


class Inconsistent(MrGridError):
    pass


class ResourceGuard(MrGridError):
    pass


# The enumerations the package runs are counted first and refused with
# ResourceGuard when the count exceeds this guard.
ENUMERATION_GUARD = 10 ** 7


class Uncorrectable(MrGridError):
    pass


class InconsistentWord(MrGridError):
    pass


class NotIrreducible(MrGridError):
    pass


class NotMds(MrGridError):
    pass


class MissingConstant(MrGridError):
    pass

"""Exception types shared across the package."""


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


class Uncorrectable(MrGridError):
    pass


class InconsistentWord(MrGridError):
    pass


class DimensionMismatch(MrGridError):
    pass


class NotIrreducible(MrGridError):
    pass


class NotMds(MrGridError):
    pass


class MissingConstant(MrGridError):
    pass

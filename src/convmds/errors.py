"""Exception hierarchy shared by the whole package.

Every domain error derives from CodingError and carries a short machine
readable code (``err.code``).  The command line front end prints that code on
a single line and exits with status 1, so scripts can grep for it.
"""


class CodingError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "ERROR"

    def __init__(self, message=""):
        super().__init__(message or self.code)


class NotPrime(CodingError):
    code = "NOT_PRIME"


class ReducibleModulus(CodingError):
    code = "REDUCIBLE_MODULUS"


class BadLength(CodingError):
    code = "BAD_LENGTH"


class FieldMismatch(CodingError):
    code = "FIELD_MISMATCH"


class DivisionByZero(CodingError):
    code = "DIVISION_BY_ZERO"


class BothZero(CodingError):
    code = "BOTH_ZERO"


class DenominatorNotUnit(CodingError):
    code = "DENOMINATOR_NOT_UNIT"


class BadParams(CodingError):
    code = "BAD_PARAMS"


class ShapeMismatch(CodingError):
    code = "SHAPE_MISMATCH"


class RankDeficient(CodingError):
    code = "RANK_DEFICIENT"


class NotBasic(CodingError):
    code = "NOT_BASIC"


class MissingMatrix(CodingError):
    code = "MISSING_MATRIX"


class NotRateNMinus1(CodingError):
    code = "NOT_RATE_N_MINUS_1"


class A1NotUnit(CodingError):
    code = "A1_NOT_UNIT"


class BudgetExceeded(CodingError):
    code = "BUDGET_EXCEEDED"


class Singular(CodingError):
    code = "SINGULAR"


class NotSuperregular(CodingError):
    code = "NOT_SUPERREGULAR"


class NoSuperregularFound(CodingError):
    code = "NO_SUPERREGULAR_FOUND"


class SystemInconsistent(CodingError):
    code = "SYSTEM_INCONSISTENT"


class ColumnPropertyFailed(CodingError):
    code = "COLUMN_PROPERTY_FAILED"


class DivisibilityViolated(CodingError):
    code = "DIVISIBILITY_VIOLATED"


class NoSolution(CodingError):
    code = "NO_SOLUTION"


class Ambiguous(CodingError):
    code = "AMBIGUOUS"


class Infeasible(CodingError):
    code = "INFEASIBLE"


class ParseError(CodingError):
    code = "PARSE_ERROR"

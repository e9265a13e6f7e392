"""Exception types shared across the package.

The library raises them directly.  Each class carries the process exit
code that the CLI returns for it in ``exit_code``: 2 invalid input (the
base class and every class that does not override it), 3 monoid not
reduced, 4 infinite answer without a limit, 5 a cross-check failed.
"""


class MonoidError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 2


class InvalidInput(MonoidError):
    """Malformed or inconsistent input data (bad JSON shape, duplicate
    generators, torsion modulus < 2, and similar)."""


class DimensionMismatch(InvalidInput):
    """Vector lengths disagree with the declared rank or torsion shape."""


class NotReduced(MonoidError):
    """The presented monoid is not reduced.

    Carries a witness: either a generator with zero free part, or a nonzero
    nonnegative integer combination of the generators' free parts summing
    to zero.
    """

    exit_code = 3

    def __init__(self, message, *, generator=None, combination=None):
        super().__init__(message)
        self.generator = generator
        self.combination = combination


class NotInMonoid(MonoidError):
    """An element required to lie in S (minus {0}) does not."""


class NotHomogeneous(MonoidError):
    """A binomial set is not homogeneous for the monoid grading in use."""


class InfiniteWithoutLimit(MonoidError):
    """An infinite set was requested without a truncation limit."""

    exit_code = 4


class EmptyLSet(MonoidError):
    """The same-length ideal is empty, so the requested value is undefined."""


class UndefinedForN2(EmptyLSet):
    """Numerical-semigroup invariant undefined because L_S is empty
    (embedding dimension at most two)."""


class CapExceeded(MonoidError):
    """A brute-force search exceeded the supplied cap."""


class HypothesisViolated(MonoidError):
    """Closed-form family constructor arguments violate the family's
    hypotheses."""


class InvalidScalar(MonoidError):
    """A presentation transform was given an out-of-range scalar."""


class BudgetExceeded(MonoidError):
    """A brute-force enumeration exceeded its count budget."""


class NotStabilized(MonoidError):
    """A bounded search ended before its stabilization window was reached."""


class CrossCheckError(MonoidError):
    """Two independent computations of the same value disagree."""

    exit_code = 5

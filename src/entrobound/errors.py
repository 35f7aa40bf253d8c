"""Semantic exception hierarchy.

Every error raised by this package derives from :class:`EntroboundError`,
so callers can catch one base class at API boundaries (the CLI does exactly
that).  The leaf classes mirror the contract of the operation that raises
them; messages carry the offending values.
"""


class EntroboundError(Exception):
    """Base class for all package errors."""


class InternalError(EntroboundError):
    """A mathematically impossible result (e.g. an entropy far below zero).

    This signals a bug in the package, not bad user input.
    """


class ValidationError(EntroboundError):
    """An input violates a precondition with no more specific error class."""


# --- probability tables -----------------------------------------------------

class NegativeProbabilityError(EntroboundError):
    """A probability table contains a negative entry."""


class NotNormalizedError(EntroboundError):
    """A probability table does not sum to 1 within tolerance."""


class ShapeMismatchError(EntroboundError):
    """Table length or shape disagrees with the declared alphabet sizes."""


class TooManyVariablesError(EntroboundError):
    """A distribution (or product of distributions) would exceed 3 variables."""


class EmptyKeepSetError(EntroboundError):
    """marginalize() was asked to keep no variables."""


class IndexOutOfRangeError(EntroboundError):
    """A variable index does not exist in the distribution."""


# --- entropies ---------------------------------------------------------------

class InvalidBaseError(EntroboundError):
    """Logarithm base must be > 1."""


class SameVariableError(EntroboundError):
    """An operation over two variables received the same index twice."""


class ZeroMultiplicityError(EntroboundError):
    """Boltzmann entropy of an impossible macrostate (multiplicity 0)."""


class WeightsNotNormalizedError(EntroboundError):
    """Mixture weights are negative or do not sum to 1 within tolerance."""


class MixtureMismatchError(EntroboundError):
    """The claimed post-mixing distribution is not the weighted mixture."""


# --- inequality checks --------------------------------------------------------

class WrongArityError(EntroboundError):
    """A tripartite check received a distribution with the wrong variable count."""


class NegativeMutualInformationError(EntroboundError):
    """A mutual-information input is negative beyond tolerance."""


# --- Markov chains -------------------------------------------------------------

class InvalidSpecError(EntroboundError):
    """A Markov chain specification fails validation."""


class RepeatedIndexError(EntroboundError):
    """Conditional mutual information needs three distinct variable indices."""


class InvalidPermutationError(EntroboundError):
    """A variable ordering is not a permutation of (0, 1, 2)."""


# --- quantum states -------------------------------------------------------------

class InvalidDensityMatrixError(EntroboundError):
    """Matrix is not Hermitian / unit-trace / correctly shaped."""


class NotPositiveSemidefiniteError(EntroboundError):
    """A density matrix has an eigenvalue below -1e-9."""


class InvalidSubsystemError(EntroboundError):
    """Subsystem identifier must be 0 (first factor) or 1 (second factor)."""


class NotPureError(EntroboundError):
    """The pure-state entanglement criterion refuses mixed states."""


class DimensionMismatchError(EntroboundError):
    """Operation requires a two-qubit (2 x 2 partite) state."""


# --- violation search ------------------------------------------------------------

class ResolutionTooSmallError(EntroboundError):
    """Grid resolution below the operation's minimum."""


class ResolutionTooLargeError(ValidationError):
    """Grid resolution above GRID_MAX_RESOLUTION, which bounds time and memory."""


class MonotonicityViolatedError(EntroboundError):
    """Sampled max-LHS values are not nondecreasing in the Werner parameter."""


# --- statistical mechanics ---------------------------------------------------------

class TotalOutOfRangeError(EntroboundError):
    """A dice total that no roll could ever produce (total < 1)."""


class TooManyDiceError(EntroboundError):
    """Exact enumeration is capped at 8 dice."""


class MixingOverflowError(EntroboundError):
    """Lattice mixing refuses particle counts whose binomials exceed the cap."""


class TooManyCoinsError(ValidationError):
    """A coin sequence above MAX_COINS, or a Monte Carlo run above MAX_COIN_FLIPS."""


# --- CLI ------------------------------------------------------------------------

class ParseError(EntroboundError):
    """An input file could not be parsed."""

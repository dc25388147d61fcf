"""Exception types shared across the library."""


class OrthgenError(Exception):
    """Base class for all library errors."""


class RingMismatch(OrthgenError):
    """Operands live in different rings."""


class NotAUnit(OrthgenError):
    """Element has no multiplicative inverse."""


class UnsupportedRing(OrthgenError):
    """Ring outside the supported kinds, or 2 is not invertible."""


class IndexOutOfRange(OrthgenError):
    """Matrix or vector index outside 1..dim."""


class BadIndex(OrthgenError):
    """Generator index constraint violated (e.g. i == j, or j == delta(i))."""


class NotDeltaCommuting(OrthgenError):
    """Permutation does not commute with the hyperbolic involution."""


class BadSign(OrthgenError):
    """Center entry of a diagonal orthogonal matrix must square to 1."""


class NotOrthogonal(OrthgenError):
    """Matrix does not preserve the bilinear form."""


class HypothesisViolated(OrthgenError):
    """Transvection inputs fail the isotropy or orthogonality hypotheses."""


class NotOrthogonalPair(OrthgenError):
    """Vector pair fails v^T w = 0."""


class BadWitness(OrthgenError):
    """Order-ideal witness does not reproduce its target."""


class OddLength(OrthgenError):
    """Word shuffle needs an even number of letters."""


class NotUnipotent(OrthgenError):
    """Matrix is not unipotent triangular of the requested shape."""


class NotAlternating(OrthgenError):
    """Matrix is not alternating (skew with zero diagonal)."""


class NotTOShape(OrthgenError):
    """Matrix does not have the required block shape."""


class NotMonomial(OrthgenError):
    """Matrix is not monomial (one nonzero entry per row and column)."""


class NonElementaryLetter(OrthgenError):
    """Witness words admit elementary generator letters only."""


class UnknownItem(OrthgenError):
    """Identity-suite item id not in the registry."""


class DecompositionError(OrthgenError):
    """Elimination stalled or a decomposition check failed; carries only a message."""


class JSONFormatError(OrthgenError):
    """Payload does not match the frozen serialization format."""

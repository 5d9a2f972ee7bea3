"""Exception types shared across the package."""


class KoszulIndexError(Exception):
    """Base class for all errors raised by this package."""


class BackendMismatch(KoszulIndexError):
    """A float was given where a Gaussian rational is needed (as_scalar): a
    Matrix entry, a polynomial coefficient, a point or a domain center."""


class InconsistentSystem(KoszulIndexError):
    """A linear system has no solution."""


class ParseError(KoszulIndexError):
    """Syntax error in a scalar or polynomial system text."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnknownVariable(ParseError):
    """A variable outside z1..zn was used."""


class NotZeroDimensional(KoszulIndexError):
    """The ideal has infinitely many standard monomials."""


class CommutatorError(KoszulIndexError):
    """Operators that were required to commute do not."""


class IrrationalSpectrum(KoszulIndexError):
    """Joint eigenvalues could not be certified inside the Gaussian rationals."""


class ClusteringAmbiguity(KoszulIndexError):
    """Float eigenvalue clusters overlap within tolerance; refusing to guess."""


class NotAZero(KoszulIndexError):
    """The queried point is not a common zero of the system."""


class NotIsolated(KoszulIndexError):
    """Codimension failed to stabilize on an ideal that is not
    zero-dimensional, so isolation of the zero was not proved."""


class ResourceLimit(KoszulIndexError):
    """A computation reached its declared bound before it could finish."""


class ZeroOnBoundary(KoszulIndexError):
    """A zero sits on the domain boundary where the index function jumps."""


class ArityMismatch(KoszulIndexError):
    """Tuple length, variable count or point dimension do not line up."""


class NotNilpotent(KoszulIndexError):
    """An operator required to be nilpotent is not."""

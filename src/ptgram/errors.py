"""Exception hierarchy shared by all ptgram modules."""

__all__ = [
    "PtGramError",
    "NumericalError",
    "NonConvergence",
    "SingularMatrix",
    "AmbiguousPairing",
    "DefectiveMatrix",
    "NotPositiveDefinite",
    "InvalidParity",
    "InvalidGrid",
    "UnpairedComplexEigenvalue",
    "NotPTInvariant",
    "SignatureUndefined",
    "InputFormatError",
]


class PtGramError(Exception):
    """Base class for all errors raised by this package."""


class NumericalError(PtGramError):
    """A computation failed numerically (CLI exit code 3)."""


class NonConvergence(NumericalError):
    """The eigensolver exhausted its iteration budget or missed its
    residual contract; the matrix should be reported as intractable."""


class SingularMatrix(NumericalError):
    """A linear solve hit a pivot below threshold (non-invertible input)."""


class AmbiguousPairing(NumericalError):
    """Two left eigenvalues compete for the same right eigenvalue across a
    non-degenerate gap; the spectrum needs cluster treatment."""


class DefectiveMatrix(NumericalError):
    """A degenerate cluster's left/right overlap block is numerically
    singular: the matrix is not diagonalizable to working precision
    (Jordan block / exceptional point)."""


class NotPositiveDefinite(NumericalError):
    """The Gram matrix is not positive definite, i.e. the basis states are
    not linearly independent to working precision."""


class InvalidParity(PtGramError):
    """A supplied parity matrix is not a self-adjoint involution."""


class InvalidGrid(PtGramError):
    """Grid parameters would produce a non-mirror-symmetric discretization."""


class UnpairedComplexEigenvalue(PtGramError):
    """A complex eigenvalue has no conjugate partner within tolerance; the
    spectrum is not compatible with an antiunitary symmetry."""


class NotPTInvariant(PtGramError):
    """An eigenstate is not parity-conjugation invariant up to a phase
    (broken symmetry phase, or mixed degenerate states)."""


class SignatureUndefined(PtGramError):
    """A state's parity expectation value is too close to zero to assign a
    sign (degeneracy or broken phase)."""


class InputFormatError(PtGramError):
    """A matrix or config file failed to parse.

    ``field`` names the offending key/position when known.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field

"""Gram matrix of a non-orthogonal eigenbasis and its sign-flip inverse.

For a dual pair of bases the Gram matrix G_mn = <state_m | state_n> holds the
overlaps of the states, and the matrix of dual overlaps is its inverse.  When
every dual equals a signed parity reflection of its state, the inverse is
obtained without any factorization: flip the sign of each entry whose row and
column signs differ, G^-1 = S G S.  That also forces the diagonals of G and
its inverse to coincide, and yields the dual basis as one matrix product with
the flipped matrix instead of a linear solve.  :func:`gram_matrix` returns G
and its Cholesky factor, from which :func:`gram_inverse` takes the
independent G^-1; :func:`inverse_via_signature` forms S G S where it is read.

Every helper takes float64 or complex128 arrays as they are, without a copy,
and keeps a real Gram matrix real, such as that of a system held in a
parity's real basis, or of its conjugate pairs' real columns.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .biortho import BiorthonormalSystem
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import NonConvergence, NotPositiveDefinite
from .linalg import adjoint, as_matrix, checked_solution, max_abs
from .symmetry import ParityOperator, Signature

__all__ = [
    "TheoremCheck",
    "gram_matrix",
    "gram_inverse",
    "dual_gram",
    "inverse_via_signature",
    "verify_signature_theorem",
    "dual_via_signature",
    "check_unconventional_completeness",
    "check_indefinite_norms",
]


class TheoremCheck(NamedTuple):
    """Residuals of the sign-flip inversion identity."""

    residual: float        # max-abs of (sign-flipped G) @ G - I
    diagonal_gap: float    # max |G_nn - (G^-1)_nn| against the solver inverse


def gram_matrix(sys: BiorthonormalSystem) -> tuple[np.ndarray, np.ndarray]:
    """G_mn = <state_m | state_n>, Hermitian to the bit (the product's lower
    triangle, mirrored, on a real diagonal), and its Cholesky factor L
    (``potrf``'s, Fortran-ordered, zero above the diagonal), which decides
    that G is positive definite.  With conjugate pairs held as real columns
    X_r, G is the real X_r^T X_r, which has G's eigenvalues.

    Raises :class:`NotPositiveDefinite`, naming the column where the
    factorization breaks down, and :class:`NonConvergence` when LAPACK raises.
    """
    g = _overlaps(sys.states)
    try:
        factor, info = (lapack.zpotrf if g.dtype.kind == "c" else lapack.dpotrf)(g, lower=1)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"Cholesky factorization of the Gram matrix failed: {exc}") from exc
    if info > 0:
        raise NotPositiveDefinite(
            f"Gram matrix is not positive definite: its Cholesky factorization breaks down at column {info - 1}")
    return g, factor


def gram_inverse(gram: np.ndarray, factor: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """G^-1 = L^-dagger L^-1, with L^-1 from ``trtri`` over the factor L of
    :func:`gram_matrix` (``potri``'s rounding depends on OpenBLAS's thread
    count), held to :func:`~ptgram.linalg.checked_solution`'s G X = I."""
    trtri = lapack.ztrtri if factor.dtype.kind == "c" else lapack.dtrtri
    try:
        inverse_factor, _ = trtri(factor, lower=1, overwrite_c=1)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"inverse of the Gram matrix's factor failed: {exc}") from exc
    return checked_solution(gram, _overlaps(inverse_factor), np.eye(len(gram), dtype=gram.dtype), tol)


def _overlaps(columns: np.ndarray) -> np.ndarray:
    product = adjoint(columns) @ columns
    np.copyto(product, adjoint(product), where=~np.tri(len(product), dtype=bool))
    if product.dtype.kind == "c":
        np.fill_diagonal(product.imag, 0.0)
    return product


def dual_gram(sys: BiorthonormalSystem) -> np.ndarray:
    """Overlap matrix of the duals, <dual_m | dual_n>.

    Equals the inverse of the state Gram matrix whenever the two families
    are dual to each other.
    """
    return adjoint(sys.duals) @ sys.duals


def inverse_via_signature(gram: np.ndarray, signature: Signature) -> np.ndarray:
    """Invert a Gram matrix by entrywise sign flips: entry (k, l) becomes
    s_k G_kl s_l.  O(n^2), no factorization."""
    g = as_matrix(gram, name="gram")
    if signature.dim != g.shape[0] or g.shape[0] != g.shape[1]:
        raise ValueError("signature and Gram matrix dimensions differ")
    s = signature.values.astype(np.float64)
    # one whole-array product, s_k s_l first (a complex g's signed zeros need
    # it): its n x n outer product stays below the run's peak
    return g * np.outer(s, s)


def verify_signature_theorem(gram: np.ndarray, flipped: np.ndarray,
                             inverse: np.ndarray) -> TheoremCheck:
    """Measure how well the sign-flip inverse ``flipped`` = S G S inverts
    ``gram`` = G.

    Returns the max-abs residual of (S G S) @ G - I together with the max
    diagonal gap |G_nn - (G^-1)_nn|, where ``inverse`` is an independent G^-1
    (:func:`gram_inverse`'s); the gap must vanish because flipping signs
    leaves diagonal entries untouched.  Raises :class:`ValueError` when
    ``flipped`` or ``inverse`` does not match G's shape.
    """
    if not np.shape(flipped) == np.shape(inverse) == gram.shape:
        raise ValueError("Gram matrix, flipped and inverse shapes differ")
    product = flipped @ gram
    product.flat[:: gram.shape[0] + 1] -= 1.0
    residual = max_abs(product)
    diagonal_gap = max_abs(np.diagonal(gram) - np.diagonal(inverse))
    return TheoremCheck(residual=residual, diagonal_gap=diagonal_gap)


def dual_via_signature(states: np.ndarray, flipped: np.ndarray) -> np.ndarray:
    """Dual basis without inversion: column n is s_n sum_m s_m G_mn state_m,
    the product of the states with the sign-flip inverse ``flipped`` = S G S
    (see :func:`inverse_via_signature`)."""
    return as_matrix(states, name="states") @ flipped


def check_unconventional_completeness(sys: BiorthonormalSystem, signature: Signature,
                                      parity: ParityOperator) -> float:
    """Max-abs defect of  sum_n s_n |state_n><state_n| P = I.

    This is the finite-dimensional form of the signed completeness relation
    for parity-conjugation-invariant states (the bra is the conjugate
    transpose; the phase convention P conj(state) = state turns the signed
    sum of unconjugated outer products into this expression).  The defect
    is measured in the input basis.
    """
    _require_match(sys, signature, parity)
    # (sum_n s_n |state_n><state_n|) P = (states * s) (P states)^dagger, P self-adjoint
    total = (sys.states * signature.values) @ adjoint(sys.reflector(parity)(sys.states))
    total.flat[:: sys.dim + 1] -= 1.0
    return sys.operator_max_abs(total)


def check_indefinite_norms(sys: BiorthonormalSystem, signature: Signature,
                           parity: ParityOperator) -> float:
    """Max-abs defect of the indefinite orthonormality  s_n (state_n, state_m)
    = delta_nm, with the unconjugated bilinear overlap (u, v) = u^T v.

    The unconjugated overlap matrix is the discrete stand-in for the integral
    of the product of two position-space eigenfunctions; ``parity`` fixes the
    convention under which that overlap is meaningful and must match the
    system dimension.
    """
    _require_match(sys, signature, parity)
    # in a real basis U, U^T U is the metric eta, which P applies there
    metric = sys.states if sys.basis is None else sys.reflector(parity)(sys.states)
    bilinear = sys.states.T @ metric
    bilinear *= signature.values[:, None]
    bilinear.flat[:: sys.dim + 1] -= 1.0
    return max_abs(bilinear)


def _require_match(sys: BiorthonormalSystem, signature: Signature,
                   parity: ParityOperator) -> None:
    if not signature.valid:
        raise ValueError("signature is not valid for this system")
    if signature.dim != sys.dim or parity.dim != sys.dim:
        raise ValueError("system, signature, and parity dimensions must agree")

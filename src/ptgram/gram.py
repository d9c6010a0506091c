"""Gram matrix of a non-orthogonal eigenbasis and its sign-flip inverse.

For a dual pair of bases the Gram matrix G_mn = <state_m | state_n> holds the
overlaps of the states, and the matrix of dual overlaps is its inverse.  When
every dual equals a signed parity reflection of its state, the inverse is
obtained without any factorization: flip the sign of each entry whose row and
column signs differ.  That also forces the diagonals of G and its inverse to
coincide, and yields the dual basis as one matrix product with the flipped
matrix instead of a linear solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .biortho import BiorthonormalSystem
from .config import DEFAULT_TOLERANCES
from .errors import NotPositiveDefinite
from .linalg import as_complex_matrix, max_abs, solve
from .symmetry import ParityOperator, Signature

__all__ = [
    "GramPair",
    "TheoremCheck",
    "gram_matrix",
    "dual_gram",
    "inverse_via_signature",
    "verify_signature_theorem",
    "dual_via_inversion",
    "dual_via_signature",
    "check_unconventional_completeness",
    "check_indefinite_norms",
]


@dataclass(frozen=True, eq=False)
class GramPair:
    """A Gram matrix together with its sign-flip inverse, once the signs are
    known."""

    gram: np.ndarray
    inverse: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.gram.shape[0]


class TheoremCheck(NamedTuple):
    """Residuals of the sign-flip inversion identity."""

    residual: float        # max-abs of (sign-flipped G) @ G - I
    diagonal_gap: float    # max |G_nn - (G^-1)_nn| against the solver inverse


def gram_matrix(sys: BiorthonormalSystem,
                tol_positivity: float = DEFAULT_TOLERANCES.positivity) -> GramPair:
    """Overlap matrix of the states, validated Hermitian positive definite.

    Raises :class:`NotPositiveDefinite` when the smallest eigenvalue does not
    exceed ``tol_positivity`` times the largest: the states are then not
    linearly independent to working precision.
    """
    g = sys.states.conj().T @ sys.states
    hermiticity = max_abs(g - g.conj().T)
    if hermiticity > 1e-12 * max(1.0, max_abs(g)):
        raise NotPositiveDefinite(f"Gram matrix is not Hermitian (defect {hermiticity:.3e})")
    w = np.linalg.eigvalsh(g)
    if w[0] <= tol_positivity * max(w[-1], 0.0):
        raise NotPositiveDefinite(
            f"Gram matrix smallest eigenvalue {w[0]:.3e} is not safely positive "
            f"(largest {w[-1]:.3e})"
        )
    return GramPair(gram=g)


def dual_gram(sys: BiorthonormalSystem) -> np.ndarray:
    """Overlap matrix of the duals, <dual_m | dual_n>.

    Equals the inverse of the state Gram matrix whenever the two families
    are dual to each other.
    """
    return sys.duals.conj().T @ sys.duals


def inverse_via_signature(gram: np.ndarray, signature: Signature) -> np.ndarray:
    """Invert a Gram matrix by entrywise sign flips: entry (k, l) becomes
    s_k G_kl s_l.  O(n^2), no factorization."""
    g = as_complex_matrix(gram, name="gram")
    if signature.dim != g.shape[0] or g.shape[0] != g.shape[1]:
        raise ValueError("signature and Gram matrix dimensions differ")
    s = signature.values.astype(np.float64)
    return g * np.outer(s, s)


def verify_signature_theorem(gram: np.ndarray, signature: Signature,
                             inverse: np.ndarray) -> TheoremCheck:
    """Measure how well the sign-flipped Gram matrix inverts the original.

    Returns the max-abs residual of (sign-flipped G) @ G - I together with
    the max diagonal gap |G_nn - (G^-1)_nn|, where ``inverse`` is G^-1 from
    an independent linear solve; the gap must vanish because flipping signs
    leaves diagonal entries untouched.
    """
    g = as_complex_matrix(gram, name="gram")
    if np.shape(inverse) != g.shape:
        raise ValueError("inverse and Gram matrix shapes differ")
    flipped = inverse_via_signature(g, signature)
    residual = max_abs(flipped @ g - np.eye(g.shape[0]))
    diagonal_gap = float(np.max(np.abs(np.diag(g) - np.diag(inverse))))
    return TheoremCheck(residual=residual, diagonal_gap=diagonal_gap)


def dual_via_inversion(states: np.ndarray, gram: np.ndarray,
                       tol_solve: float = DEFAULT_TOLERANCES.solve) -> np.ndarray:
    """Dual basis through inversion of the Gram matrix.

    ``states`` holds the basis as columns; column n of the result is
    sum_m (G^-1)_mn state_m.  Raises :class:`SingularMatrix` via the solve.
    """
    states = as_complex_matrix(states, name="states")
    g = as_complex_matrix(gram, name="gram")
    inverse = solve(g, np.eye(g.shape[0], dtype=np.complex128), tol_solve=tol_solve)
    return states @ inverse


def dual_via_signature(states: np.ndarray, gram: np.ndarray,
                       signature: Signature) -> np.ndarray:
    """Dual basis without inversion: column n is s_n sum_m s_m G_mn state_m.

    Agrees with :func:`dual_via_inversion` whenever the sign-flip identity
    holds for (gram, signature).
    """
    states = as_complex_matrix(states, name="states")
    return states @ inverse_via_signature(gram, signature)


def check_unconventional_completeness(sys: BiorthonormalSystem, signature: Signature,
                                      parity: ParityOperator) -> float:
    """Max-abs defect of  sum_n s_n |state_n><state_n| P = I.

    This is the finite-dimensional form of the signed completeness relation
    for parity-conjugation-invariant states (the bra is the conjugate
    transpose; the phase convention P conj(state) = state turns the signed
    sum of unconjugated outer products into this expression).
    """
    _require_match(sys, signature, parity)
    s = signature.values.astype(np.complex128)
    # (sum_n s_n |state_n><state_n|) P = (states * s) (P states)^dagger, P self-adjoint
    total = (sys.states * s) @ parity.apply(sys.states).conj().T
    return max_abs(total - np.eye(sys.dim))


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
    bilinear = sys.states.T @ sys.states
    s = signature.values.astype(np.complex128)
    return max_abs(bilinear * s[:, None] - np.eye(sys.dim))


def _require_match(sys: BiorthonormalSystem, signature: Signature,
                   parity: ParityOperator) -> None:
    if not signature.valid:
        raise ValueError("signature is not valid for this system")
    if signature.dim != sys.dim or parity.dim != sys.dim:
        raise ValueError("system, signature, and parity dimensions must agree")

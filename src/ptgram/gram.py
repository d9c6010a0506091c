"""Gram matrix of a non-orthogonal eigenbasis and its sign-flip inverse.

For a dual pair of bases the Gram matrix G_mn = <state_m | state_n> holds the
overlaps of the states, and the matrix of dual overlaps is its inverse.  When
every dual equals a signed parity reflection of its state, the inverse is
obtained without any factorization: flip the sign of each entry whose row and
column signs differ, G^-1 = S G S.  That also forces the diagonals of G and
its inverse to coincide, and yields the dual basis as one matrix product with
the flipped matrix instead of a linear solve.  :func:`inverse_via_signature`
forms S G S; the theorem check and the dual route read it from the
:class:`GramPair` that holds it.

Every helper takes float64 or complex128 arrays as they are, without a copy,
and keeps a real Gram matrix real.  A system held in a parity's real basis
(see :class:`~ptgram.biortho.BiorthonormalSystem`) has a real Gram matrix,
the same one as in the input basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .biortho import BiorthonormalSystem
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import NotPositiveDefinite
from .linalg import adjoint, as_matrix, max_abs
from .symmetry import ParityOperator, Signature

__all__ = [
    "GramPair",
    "TheoremCheck",
    "gram_matrix",
    "dual_gram",
    "inverse_via_signature",
    "verify_signature_theorem",
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


def gram_matrix(sys: BiorthonormalSystem, tol: Tolerances = DEFAULT_TOLERANCES) -> GramPair:
    """Overlap matrix of the states, validated Hermitian positive definite.

    Raises :class:`NotPositiveDefinite` when the smallest eigenvalue does not
    exceed ``tol.positivity`` times the largest: the states are then not
    linearly independent to working precision.
    """
    g = adjoint(sys.states) @ sys.states
    hermiticity = max_abs(g - adjoint(g))
    if hermiticity > 1e-12 * max(1.0, max_abs(g)):
        raise NotPositiveDefinite(f"Gram matrix is not Hermitian (defect {hermiticity:.3e})")
    w = np.linalg.eigvalsh(g)
    if w[0] <= tol.positivity * max(w[-1], 0.0):
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


def verify_signature_theorem(pair: GramPair, inverse: np.ndarray) -> TheoremCheck:
    """Measure how well the pair's sign-flip inverse S G S inverts G.

    Returns the max-abs residual of (S G S) @ G - I together with the max
    diagonal gap |G_nn - (G^-1)_nn|, where ``inverse`` is G^-1 from an
    independent linear solve; the gap must vanish because flipping signs
    leaves diagonal entries untouched.  Raises :class:`ValueError` when the
    pair holds no inverse or ``inverse`` does not match G's shape.
    """
    g, flipped = pair.gram, _sign_flip_inverse(pair)
    if np.shape(inverse) != g.shape:
        raise ValueError("inverse and Gram matrix shapes differ")
    product = flipped @ g
    product.flat[:: g.shape[0] + 1] -= 1.0
    residual = max_abs(product)
    diagonal_gap = max_abs(np.diagonal(g) - np.diagonal(inverse))
    return TheoremCheck(residual=residual, diagonal_gap=diagonal_gap)


def dual_via_signature(states: np.ndarray, pair: GramPair) -> np.ndarray:
    """Dual basis without inversion: column n is s_n sum_m s_m G_mn state_m,
    the product of the states with the pair's sign-flip inverse S G S.

    Raises :class:`ValueError` when the pair holds no inverse.
    """
    return as_matrix(states, name="states") @ _sign_flip_inverse(pair)


def _sign_flip_inverse(pair: GramPair) -> np.ndarray:
    if pair.inverse is None:
        raise ValueError("Gram pair holds no sign-flip inverse")
    return pair.inverse


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

"""Dense complex linear algebra substrate.

Thin contract layer over LAPACK (via numpy and scipy): validated
construction of complex arrays, an eigendecomposition with a deterministic
ordering and a verified residual, and a residual-checked linear solve.  Everything returns
plain ``numpy.ndarray`` values of dtype complex128; the eigendecomposition
keeps a real float64 input real, so LAPACK runs its real solver on it, and
on request returns the left eigenvectors from the same LAPACK call, matched
to the right ones by index.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .config import DEFAULT_TOLERANCES
from .errors import NonConvergence, SingularMatrix

__all__ = [
    "as_complex_matrix",
    "eigendecompose",
    "solve",
    "norms",
    "frobenius",
    "max_abs",
]

# dgeev scales a matrix whose max modulus lies outside 2**-459 .. 2**459
# (its SMLNUM .. BIGNUM) and scipy's bundled ?geev then returns eigenvalues
# that are not scaled back; eigendecompose keeps LAPACK inside this range
_GEEV_SAFE_EXP = 459


def as_complex_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d complex128 array (copy), validating shape."""
    return _checked(np.array(value, dtype=np.complex128, order="C"), name)


def _checked(m: np.ndarray, name: str) -> np.ndarray:
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must be a 2-d array with positive shape, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if np.size(m) else 0.0


def norms(m: np.ndarray) -> tuple[float, float]:
    """Frobenius norm and entrywise max modulus of a matrix."""
    m = as_complex_matrix(m)
    return frobenius(m), max_abs(m)


def eigendecompose(m: np.ndarray, tol_eig: float = DEFAULT_TOLERANCES.eig, left: bool = False):
    """Eigenvalues and unit-norm eigenvectors of a square matrix.

    Eigenvalues are sorted by (Re, Im), ascending, so repeated runs and
    downstream reports are deterministic; column k of each returned vector
    array belongs to ``values[k]``.  Every right eigenvector is verified
    against the residual contract

        ||M v - lambda v||_2 <= tol_eig * ||M||_F

    (eigenvectors have unit 2-norm).  A violation, or a LAPACK convergence
    failure, raises :class:`NonConvergence`.

    With ``left=True`` one LAPACK call (``scipy.linalg.eig``) also returns
    the left eigenvectors, matched to the right ones by index: column k of
    ``lefts`` is the unit-norm eigenvector of M^dagger for conj(values[k]),
    held to the same contract.  The values and right vectors are the same
    bits as with ``left=False``.

    A float64 input stays real, so LAPACK runs ``dgeev`` instead of
    ``zgeev``; its complex eigenvalues then come in exact conjugate pairs,
    which the sort orders by imaginary part.  Any other input is solved in
    complex128.  Either way the arrays returned are complex128 and
    C-contiguous.

    A matrix whose max modulus lies outside LAPACK's unscaled range
    (2^-459 .. 2^459) is solved and verified as m * 2^k, with k chosen so
    that max|m * 2^k| is in [0.5, 1), and its eigenvalues are scaled back
    by 2^-k; both scalings are exact.  Any other input keeps its bits.

    Parameters
    ----------
    m : array_like, square
    tol_eig : float
        Relative residual bound.
    left : bool
        Also return the left eigenvectors.

    Returns
    -------
    (values, rights), or (values, rights, lefts) with ``left=True``.
    """
    dtype = np.float64 if np.asarray(m).dtype == np.float64 else np.complex128
    m = _checked(np.array(m, dtype=dtype, order="C"), "matrix")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"eigendecompose needs a square matrix, got shape {m.shape}")
    peak = max_abs(m)
    shift = 0
    if peak and not 2.0**-_GEEV_SAFE_EXP <= peak <= 2.0**_GEEV_SAFE_EXP:
        shift = -int(np.frexp(peak)[1])
        m = _ldexp(m, shift)
    try:
        if left:
            values, lefts, rights = scipy.linalg.eig(m, left=True, right=True, check_finite=False)
        else:
            values, rights = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigensolver did not converge: {exc}") from exc
    # a real solve returns real arrays when every eigenvalue is real
    values = values.astype(np.complex128, copy=False)
    order = np.lexsort((values.imag, values.real))
    values = values[order]

    scale = frobenius(m)
    rights = _verified(rights[:, order], m, values, tol_eig, scale)
    if left:
        adjoint = m.T if dtype == np.float64 else m.conj().T
        lefts = _verified(lefts[:, order], adjoint, values.conj(), tol_eig, scale)
    if shift:
        values = _ldexp(values, -shift)
    return (values, rights, lefts) if left else (values, rights)


def _ldexp(a: np.ndarray, k: int) -> np.ndarray:
    """a * 2**k, exact barring overflow and underflow, for a C-contiguous
    float64 or complex128 array."""
    return np.ldexp(a.view(np.float64), k).view(a.dtype)


def _verified(
    vectors: np.ndarray, op: np.ndarray, values: np.ndarray, tol_eig: float, scale: float
) -> np.ndarray:
    """Unit-norm, C-ordered complex128 columns, each checked to be an
    eigenvector of ``op`` for its entry of ``values``."""
    # normalize after the complex cast (a complex128 division) and before
    # the copy to C order: the column norms' bits depend on the layout
    vectors = vectors.astype(np.complex128, copy=False)
    vectors = np.ascontiguousarray(vectors / np.linalg.norm(vectors, axis=0))
    worst = float(_residuals(op, vectors, values).max())
    if worst > tol_eig * scale:
        raise NonConvergence(
            f"eigen-residual {worst:.3e} exceeds {tol_eig:.1e} * ||M||_F = {tol_eig * scale:.3e}"
        )
    return vectors


def _residuals(op: np.ndarray, vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Column 2-norms of op @ vectors - vectors * values, for C-ordered
    complex ``vectors``; a real ``op`` is applied with real GEMMs."""
    if op.dtype != np.float64:
        product = op @ vectors
    elif not values.imag.any():
        # real spectrum of a real matrix: the vectors are real too
        real = np.ascontiguousarray(vectors.real)
        return np.linalg.norm(op @ real - real * values.real, axis=0)
    else:
        # one real GEMM on the interleaved (re, im) float64 view
        product = (op @ vectors.view(np.float64)).view(np.complex128)
    return np.linalg.norm(product - vectors * values, axis=0)


def solve(a: np.ndarray, b: np.ndarray, tol_solve: float = DEFAULT_TOLERANCES.solve) -> np.ndarray:
    """Solve A X = B for X with a verified residual.

    Raises :class:`SingularMatrix` when LAPACK reports a singular pivot or
    when the computed X violates ||A X - B||_F <= tol_solve * ||A||_F * ||X||_F.
    """
    a = as_complex_matrix(a, name="A")
    b = as_complex_matrix(b, name="B")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"solve needs a square A, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"B has {b.shape[0]} rows, expected {a.shape[0]}")
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"linear solve failed: {exc}") from exc
    residual = frobenius(a @ x - b)
    bound = tol_solve * frobenius(a) * frobenius(x)
    if residual > bound and residual > tol_solve * frobenius(b):
        raise SingularMatrix(
            f"solve residual {residual:.3e} exceeds {tol_solve:.1e} * ||A||_F * ||X||_F = {bound:.3e}"
        )
    return x

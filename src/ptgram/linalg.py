"""Dense complex linear algebra substrate.

Thin contract layer over LAPACK (via numpy): validated construction of
complex arrays, an eigendecomposition with a deterministic ordering and a
verified residual, and a residual-checked linear solve.  Everything returns
plain ``numpy.ndarray`` values of dtype complex128; the eigendecomposition
keeps a real float64 input real, so LAPACK runs its real solver on it.
"""

from __future__ import annotations

import numpy as np

from .errors import NonConvergence, SingularMatrix

__all__ = [
    "as_complex_matrix",
    "eigendecompose",
    "solve",
    "norms",
    "frobenius",
    "max_abs",
]


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


def eigendecompose(m: np.ndarray, tol_eig: float = 1e-10) -> list[tuple[complex, np.ndarray]]:
    """Eigenvalues and unit-norm right eigenvectors of a square matrix.

    Pairs are sorted by (Re, Im) of the eigenvalue, ascending, so repeated
    runs and downstream reports are deterministic.  Every returned pair is
    verified against the residual contract

        ||M v - lambda v||_2 <= tol_eig * ||M||_F

    (eigenvectors have unit 2-norm).  A violation, or a LAPACK convergence
    failure, raises :class:`NonConvergence`.

    A float64 input stays real, so LAPACK runs ``dgeev`` instead of
    ``zgeev``; its complex eigenvalues then come in exact conjugate pairs,
    which the sort orders by imaginary part.  Any other input is solved in
    complex128.  Either way eigenvalues and eigenvectors are returned as
    complex128.

    Parameters
    ----------
    m : array_like, square
    tol_eig : float
        Relative residual bound.

    Returns
    -------
    list of (eigenvalue, eigenvector) tuples, eigenvectors of unit 2-norm.
    """
    dtype = np.float64 if np.asarray(m).dtype == np.float64 else np.complex128
    m = _checked(np.array(m, dtype=dtype, order="C"), "matrix")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"eigendecompose needs a square matrix, got shape {m.shape}")
    try:
        values, vectors = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigensolver did not converge: {exc}") from exc
    # a real solve returns real arrays when every eigenvalue is real
    values = values.astype(np.complex128, copy=False)
    vectors = vectors.astype(np.complex128, copy=False)

    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = vectors[:, order]
    vectors = vectors / np.linalg.norm(vectors, axis=0)

    scale = frobenius(m)
    residuals = np.linalg.norm(m @ vectors - vectors * values, axis=0)
    worst = float(residuals.max())
    if worst > tol_eig * scale:
        raise NonConvergence(
            f"eigen-residual {worst:.3e} exceeds {tol_eig:.1e} * ||M||_F = {tol_eig * scale:.3e}"
        )
    return [(complex(values[k]), vectors[:, k].copy()) for k in range(m.shape[0])]


def solve(a: np.ndarray, b: np.ndarray, tol_solve: float = 1e-12) -> np.ndarray:
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

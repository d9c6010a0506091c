"""Dense linear algebra substrate.

Thin contract layer over LAPACK (via numpy and scipy): validated matrices,
an eigendecomposition with a deterministic ordering and a verified
residual, a residual-checked linear solve, and :class:`RealBasis`, the
unitary that makes a parity-conjugation invariant matrix real: U is applied
by index where it is sparse, and the real form U^dagger H U is always formed
by dense products.  Only U @ x by index and the max modulus of U m U^dagger
run a block of rows at a time, as only their n x n complex temporaries
would raise a run's peak; every other helper, :func:`max_abs` included,
works on whole arrays.  Validation keeps a C-ordered float64 or complex128
input as it is (no copy) and makes anything else complex128, so a real
matrix stays real through :func:`solve` and :func:`eigendecompose`, which
runs LAPACK's real solver on it and keeps the vectors in LAPACK's dtype:
float64 for a real spectrum, else complex128.  On request it returns the
left eigenvectors of the same LAPACK call, matched to the right ones by index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import NonConvergence, SingularMatrix

__all__ = ["RealBasis", "eigendecompose", "solve"]

# dgeev scales a matrix whose max modulus lies outside 2**-459 .. 2**459
# (its SMLNUM .. BIGNUM) and scipy's bundled ?geev then returns eigenvalues
# that are not scaled back; eigendecompose keeps LAPACK inside this range
_GEEV_SAFE_EXP = 459

# entries per block of U @ x by index and of operator_max_abs (1 MB of complex128):
# their whole-array forms would add an n x n complex temporary to a run's peak
_BLOCK_ENTRIES = 1 << 16


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """A finite 2-d float64 or complex128 C-ordered array: ``value`` itself
    when it already is one, else a copy (complex128 unless it is float64)."""
    m = np.asarray(value)
    dtype = m.dtype if m.dtype in (np.float64, np.complex128) else np.complex128
    return _checked(np.asarray(m, dtype=dtype, order="C"), name)


def as_complex_matrix(value, name: str = "matrix", copy: bool = False) -> np.ndarray:
    """A finite 2-d complex128 C-ordered array: ``value`` itself when it
    already is one and ``copy`` is false, else a copy."""
    return _checked(np.asarray(value, dtype=np.complex128, order="C", copy=copy or None), name)


def _row_blocks(rows: int, width: int):
    """(lo, hi) of blocks of rows ``width`` wide, of at most one row or _BLOCK_ENTRIES."""
    step = max(1, _BLOCK_ENTRIES // max(width, 1))
    for lo in range(0, rows, step):
        yield lo, min(lo + step, rows)


def _checked(m: np.ndarray, name: str) -> np.ndarray:
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must be a 2-d array with positive shape, got shape {m.shape}")
    if not np.isfinite(m.view(np.float64) if m.dtype == np.complex128 else m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True, eq=False)
class RealBasis:
    """A unitary U = Q diag(d), Q real orthogonal and each d_k 1 or i, and
    its metric eta = U^T U = diag(d^2), whose entries are +1 or -1.

    A matrix of parity P with P conj(U) = U (see
    :meth:`~ptgram.symmetry.ParityOperator.real_basis`) then satisfies
    P U = U eta: in U's coordinates P is the row scaling by eta, and a state
    v = U x with x real is invariant under parity + conjugation.  When every
    row and column of Q holds at most two nonzeros, as ``eigh`` returns for
    a permutation parity, U is kept as index arrays and applied by two row
    gathers, O(n) per column; otherwise U is kept as a dense matrix.  In
    index form, :meth:`apply` and :meth:`operator_max_abs` run a block of
    rows at a time, with the floats of the whole-array expressions and no
    n x n complex temporary besides :meth:`apply`'s result.  Only U itself
    is applied by index: :meth:`real_form` multiplies by the dense U and
    U^dagger whatever the storage.
    """

    eta: np.ndarray
    # U as a dense matrix, or as (index, coef) of shape (n, 2) with
    # row i = coef[i, 0] e_index[i, 0] + coef[i, 1] e_index[i, 1]
    _forward: np.ndarray | tuple[np.ndarray, np.ndarray]

    @classmethod
    def from_eigh(cls, w: np.ndarray, q: np.ndarray) -> "RealBasis":
        """The basis of ``eigh``'s real orthogonal ``q``, columns of negative
        ``w`` times i; the column order and signs are ``q``'s."""
        eta = np.where(w > 0, 1.0, -1.0)
        u = q * np.where(w > 0, 1.0, 1j)
        rows, cols = np.nonzero(q)
        n = q.shape[0]
        if max(np.bincount(rows, minlength=n).max(), np.bincount(cols, minlength=n).max()) > 2:
            return cls(eta, u)
        return cls(eta, _two_per_row(rows, cols, u[rows, cols], n))

    @property
    def dim(self) -> int:
        return self.eta.shape[0]

    @property
    def indexed(self) -> bool:
        """True when U is held, and applied, in index form."""
        return not isinstance(self._forward, np.ndarray)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """U @ x for a matrix of columns ``x`` (a new complex array)."""
        return _product(self._forward, x)

    def reflect(self, x: np.ndarray) -> np.ndarray:
        """P in U's coordinates: eta * x, row by row."""
        return self.eta[:, None] * x

    def real_form(self, h: np.ndarray) -> np.ndarray:
        """Re(U^dagger H U) as a C-ordered float64 array.

        Formed by two dense complex products, whatever U's storage: an
        eigensolve amplifies a change of one ulp here by up to ||H|| / gap,
        and the rounding of products by index differs from the GEMMs'.
        """
        u = self.dense()
        return np.ascontiguousarray(((u.conj().T @ h) @ u).real)

    def operator_max_abs(self, m: np.ndarray) -> float:
        """Entrywise max modulus of U m U^dagger, the operator whose
        matrix in U's coordinates is ``m``; its adjoint U (U m)^dagger has the
        same moduli.  In index form that is taken a block of columns at a
        time, U times a block of rows of U m conjugated and transposed: the
        floats of the whole product, without an n x n complex temporary.
        """
        if not self.indexed or m.size <= _BLOCK_ENTRIES:
            half = self.apply(m)
            return max_abs(self.apply(np.conjugate(half, out=half).T))
        index, coef = self._forward
        peak = 0.0
        for lo, hi in _row_blocks(self.dim, m.shape[1]):
            half = _product((index[lo:hi], coef[lo:hi]), m)  # rows lo:hi of U m
            np.conjugate(half, out=half)
            # np.maximum, so that a NaN propagates as in np.max
            peak = np.maximum(peak, max_abs(_product(self._forward, half.T)))
        return float(peak)

    def dense(self) -> np.ndarray:
        """U as a dense complex128 array (a new one)."""
        if not self.indexed:
            return self._forward.copy()
        index, coef = self._forward
        u = np.zeros((self.dim, self.dim), dtype=np.complex128)
        rows = np.arange(self.dim)
        u[rows, index[:, 0]] = coef[:, 0]
        u[rows, index[:, 1]] += coef[:, 1]
        return u


def _two_per_row(rows: np.ndarray, cols: np.ndarray, values: np.ndarray, n: int):
    """(index, coef) of the n x n matrix with ``values`` at (rows, cols),
    which has at most two entries per row."""
    order = np.argsort(rows, kind="stable")
    rows, cols, values = rows[order], cols[order], values[order]
    first = np.searchsorted(rows, rows)  # each entry's offset in its row is 0 or 1
    slot = np.arange(rows.size) - first
    index = np.zeros((n, 2), dtype=np.intp)
    coef = np.zeros((n, 2), dtype=np.complex128)
    index[rows, slot] = cols
    coef[rows, slot] = values
    return index, coef


def _product(op, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """U @ x, into ``out`` when given; in index form a block of rows at a time."""
    if isinstance(op, np.ndarray):
        return op @ x
    index, coef = op
    if index.shape[0] > 1 and index.shape[0] * x.shape[1] > _BLOCK_ENTRIES:  # two or more row blocks
        out = np.empty((index.shape[0], x.shape[1]), np.complex128) if out is None else out
        for lo, hi in _row_blocks(index.shape[0], x.shape[1]):
            _product((index[lo:hi], coef[lo:hi]), x, out[lo:hi])
        return out
    out = np.multiply(x[index[:, 0]], coef[:, :1], out=out)
    part = x[index[:, 1]].astype(np.complex128, copy=False)  # a gathered copy
    part *= coef[:, 1:]
    out += part
    return out


def adjoint(m: np.ndarray) -> np.ndarray:
    """The conjugate transpose of ``m``; a view when ``m`` is real."""
    return m.conj().T if m.dtype.kind == "c" else m.T


def _condition(vectors: np.ndarray) -> float:
    """np.linalg.cond(vectors) without its wrapper: inf if singular, no warning."""
    sv = np.linalg.svd(vectors, compute_uv=False)
    return float(sv[0]) / float(sv[-1]) if sv[-1] else float("inf")


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def max_abs(m: np.ndarray) -> float:
    """np.max(np.abs(m)) over the whole array (see the module docstring), 0.0
    if empty, as one ufunc reduction: np.max's Python wrapper costs more."""
    return float(np.maximum.reduce(np.abs(m), axis=None, initial=0.0))


def eigendecompose(m: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES, left: bool = False):
    """Eigenvalues and unit-norm eigenvectors of a square matrix.

    Eigenvalues are sorted by (Re, Im), ascending, so repeated runs and
    downstream reports are deterministic; column k of each returned vector
    array belongs to ``values[k]``.  Every right eigenvector is verified
    against the residual contract

        ||M v - lambda v||_2 <= tol.eig * ||M||_F

    (eigenvectors have unit 2-norm).  A violation, or a LAPACK convergence
    failure, raises :class:`NonConvergence`.

    Either way one LAPACK call (``scipy.linalg.eig``) solves M.  With
    ``left=True`` it also returns the left eigenvectors, matched to the
    right ones by index: column k of ``lefts`` is the unit-norm eigenvector
    of M^dagger for conj(values[k]), held to the same contract.  The values
    and right vectors are the same bits as with ``left=False``.

    A float64 input stays real, so LAPACK runs ``dgeev`` instead of
    ``zgeev``; its complex eigenvalues then come in exact conjugate pairs,
    which the sort orders by imaginary part.  Any other input is solved in
    complex128.  The eigenvalues are complex128; the vectors are float64
    when a float64 input has a real spectrum, else complex128.  Every array
    returned is C-contiguous.

    A matrix whose max modulus lies outside LAPACK's unscaled range
    (2^-459 .. 2^459) is solved and verified as m * 2^k, with k chosen so
    that max|m * 2^k| is in [0.5, 1), and its eigenvalues are scaled back
    by 2^-k; both scalings are exact.  Any other input keeps its bits.

    Parameters
    ----------
    m : array_like, square
    tol : Tolerances
        Its ``eig`` is the relative residual bound.
    left : bool
        Also return the left eigenvectors.

    Returns
    -------
    (values, rights), or (values, rights, lefts) with ``left=True``.
    """
    m = as_matrix(m)  # scipy.linalg.eig copies it for LAPACK
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"eigendecompose needs a square matrix, got shape {m.shape}")
    peak = max_abs(m)
    shift = 0
    if peak and not 2.0**-_GEEV_SAFE_EXP <= peak <= 2.0**_GEEV_SAFE_EXP:
        shift = -int(np.frexp(peak)[1])
        m = _ldexp(m, shift)
    try:
        values, *vectors = scipy.linalg.eig(m, left=left, right=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigensolver did not converge: {exc}") from exc
    # values are complex128; a real solve returns float64 vectors when every eigenvalue is real
    rights = vectors[-1]  # (lefts, rights) or (rights,)
    order = np.lexsort((values.imag, values.real))
    values = values[order]

    scale = frobenius(m)
    rights = _verified(rights[:, order], m, values, tol.eig, scale)
    if left:
        lefts = _verified(vectors[0][:, order], adjoint(m), values.conj(), tol.eig, scale)
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
    """Unit-norm, C-ordered columns of ``vectors``' dtype, each checked to
    be an eigenvector of ``op`` for its entry of ``values``."""
    # normalize in place before the copy to C order: the column norms' bits
    # depend on the layout.  Real vectors are scaled by the reciprocal, the
    # bits of a complex128 division's real part; complex ones are divided
    norms = np.linalg.norm(vectors, axis=0)
    if vectors.dtype == np.float64:
        vectors *= 1.0 / norms
    else:
        vectors /= norms
    vectors = np.ascontiguousarray(vectors)
    worst = float(_residuals(op, vectors, values).max())
    if worst > tol_eig * scale:
        raise NonConvergence(
            f"eigen-residual {worst:.3e} exceeds {tol_eig:.1e} * ||M||_F = {tol_eig * scale:.3e}"
        )
    return vectors


def _residuals(op: np.ndarray, vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Column 2-norms of op @ vectors - vectors * values, for C-ordered
    ``vectors``; a real ``op`` is applied with real GEMMs."""
    if vectors.dtype == np.float64:  # a real spectrum of a real matrix
        return np.linalg.norm(op @ vectors - vectors * values.real, axis=0)
    if op.dtype == np.float64:
        # one real GEMM on the interleaved (re, im) float64 view
        product = (op @ vectors.view(np.float64)).view(np.complex128)
    else:
        product = op @ vectors
    return np.linalg.norm(product - vectors * values, axis=0)


def solve(a: np.ndarray, b: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Solve A X = B for X with a verified residual; real A and B give a
    real X.

    Raises :class:`SingularMatrix` when LAPACK reports a singular pivot or
    when the computed X violates ||A X - B||_F <= tol.solve * ||A||_F * ||X||_F.
    """
    a = as_matrix(a, name="A")
    b = as_matrix(b, name="B")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"solve needs a square A, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"B has {b.shape[0]} rows, expected {a.shape[0]}")
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"linear solve failed: {exc}") from exc
    residual = a @ x
    residual -= b  # in place: one n x n temporary, not two
    residual = frobenius(residual)
    bound = tol.solve * frobenius(a) * frobenius(x)
    if residual > bound and residual > tol.solve * frobenius(b):
        raise SingularMatrix(
            f"solve residual {residual:.3e} exceeds {tol.solve:.1e} * ||A||_F * ||X||_F = {bound:.3e}"
        )
    return x

"""Parity, antiunitary-symmetry checks, spectrum classification, state sign
structure, and the associated charge operator.

Time reversal is fixed throughout as entrywise complex conjugation in the
working basis, so invariance of H under combined parity + conjugation reads
P conj(H) P = H, and invariance of a state reads P conj(v) = v up to phase.

A parity that is a permutation matrix (both built-in kinds, and any explicit
0/1 matrix with one unit entry per row and column) is applied by indexing
rows rather than by a dense product; for such a P the two give the same
floats.  Phase fixing and sign extraction are one pass over all states at
once, in the input basis or, for a system held in a parity's real basis, in
that basis's real coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .biortho import BiorthonormalSystem
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    InvalidParity,
    NotPTInvariant,
    SignatureUndefined,
    UnpairedComplexEigenvalue,
)
from .linalg import RealBasis, adjoint, as_complex_matrix, max_abs

__all__ = [
    "ParityOperator",
    "Signature",
    "SpectrumClassification",
    "make_parity",
    "check_pt_symmetry",
    "check_pseudo_hermiticity",
    "classify_spectrum",
    "extract_signature",
    "build_charge",
]

PARITY_KINDS = ("grid-reversal", "swap-pairs", "explicit")


@dataclass(frozen=True, eq=False)
class ParityOperator:
    """A self-adjoint involution (P^2 = I, P = P-adjoint).

    When ``matrix`` is a permutation matrix, :meth:`apply` reflects by
    indexing rows instead of by a dense matrix product.
    """

    matrix: np.ndarray
    kind: str

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def is_trivial(self) -> bool:
        """True when P is the identity (a valid but vacuous parity)."""
        if self.perm is not None:
            return bool(np.array_equal(self.perm, np.arange(self.dim)))
        return max_abs(self.matrix - np.eye(self.dim)) <= 1e-12

    @cached_property
    def perm(self) -> np.ndarray | None:
        """Index map with (P @ x)[i] = x[perm[i]] when ``matrix`` is a
        permutation matrix (entries exactly 0 or 1, one 1 per row and per
        column), else None."""
        rows, cols = np.nonzero(self.matrix)
        # a full-coverage mask rather than np.sort(cols): sorting would page
        # in numpy's sort kernels (~0.25 MB RSS) for this one check
        covered = np.zeros(self.dim, dtype=bool)
        covered[cols] = True
        if (
            np.array_equal(rows, np.arange(self.dim))
            and np.all(self.matrix[rows, cols] == 1)
            and covered.all()
        ):
            return cols
        return None

    def apply(self, x: np.ndarray) -> np.ndarray:
        """P @ x for a vector or a matrix of columns ``x`` (a new array)."""
        if self.perm is not None:
            return x[self.perm]
        return self.matrix @ x

    def real_basis(self) -> RealBasis | None:
        """Unitary U with P conj(U) = U when ``matrix`` is real, else None.

        In this basis parity + conjugation is plain conjugation, so a matrix
        H with P conj(H) P = H has a real U^dagger H U.  The columns are the
        eigenvectors of P from ``eigh``, in its order and with its signs,
        those of eigenvalue -1 multiplied by i.  Computed once and cached;
        for a permutation parity it is held in O(n) index form (see
        :class:`~ptgram.linalg.RealBasis`).
        """
        return self._real_basis

    @cached_property
    def _real_basis(self) -> RealBasis | None:
        if np.any(self.matrix.imag):
            return None
        return RealBasis.from_eigh(*np.linalg.eigh(self.matrix.real))


@dataclass(frozen=True, eq=False)
class Signature:
    """Per-state signs relating each dual to the parity-reflected state.

    ``residuals[k]`` is the 2-norm defect of  dual_k = values[k] * P state_k;
    ``valid`` is True when every residual is below the tolerance it was
    extracted with.
    """

    values: np.ndarray  # int entries, each +1 or -1
    residuals: np.ndarray
    valid: bool

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class SpectrumClassification:
    """Partition of eigenvalue indices into real ones and conjugate pairs."""

    real_indices: tuple[int, ...]
    conjugate_pairs: tuple[tuple[int, int], ...]
    unbroken: bool


def make_parity(kind: str, dim: int, matrix=None) -> ParityOperator:
    """Build a parity operator of the requested kind.

    ``grid-reversal`` reflects site i to dim-1-i (anti-diagonal permutation);
    ``swap-pairs`` exchanges sites pairwise (2x2 blocks; an odd trailing site
    is left fixed); ``explicit`` validates a user-supplied matrix.

    Raises :class:`InvalidParity` when the result is not a self-adjoint
    involution within 1e-12 (max-abs defects of P^2 - I and P - P^dagger).
    """
    if kind not in PARITY_KINDS:
        raise InvalidParity(f"unknown parity kind {kind!r}; expected one of {PARITY_KINDS}")
    if dim < 1:
        raise InvalidParity(f"parity dimension must be >= 1, got {dim}")

    if kind == "grid-reversal":
        p = np.fliplr(np.eye(dim, dtype=np.complex128))
    elif kind == "swap-pairs":
        p = np.zeros((dim, dim), dtype=np.complex128)
        for i in range(0, dim - 1, 2):
            p[i, i + 1] = p[i + 1, i] = 1.0
        if dim % 2:
            p[dim - 1, dim - 1] = 1.0
    else:
        if matrix is None:
            raise InvalidParity("explicit parity requires a matrix")
        # a copy: the operator must not share the caller's validated array
        p = as_complex_matrix(matrix, name="parity", copy=True)
        if p.shape != (dim, dim):
            raise InvalidParity(f"explicit parity has shape {p.shape}, expected {(dim, dim)}")

    parity = ParityOperator(matrix=p, kind=kind)
    involution_defect = max_abs(parity.apply(p) - np.eye(dim, dtype=np.complex128))
    hermiticity_defect = max_abs(p - p.conj().T)
    if involution_defect > 1e-12:
        raise InvalidParity(f"P^2 differs from identity by {involution_defect:.3e}")
    if hermiticity_defect > 1e-12:
        raise InvalidParity(f"P differs from its adjoint by {hermiticity_defect:.3e}")
    return parity


def _check_dims(h: np.ndarray, parity: ParityOperator) -> np.ndarray:
    h = as_complex_matrix(h, name="H")
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if h.shape[0] != parity.dim:
        raise ValueError(f"matrix dim {h.shape[0]} does not match parity dim {parity.dim}")
    return h


def _sandwich(parity: ParityOperator, m: np.ndarray) -> np.ndarray:
    """P m P, with P applied from the left only: (P m) P = (P (P m)^dagger)^dagger
    because P is self-adjoint."""
    left = parity.apply(m)
    np.conjugate(left, out=left)
    right = parity.apply(left.T)
    np.conjugate(right, out=right)
    return right.T


def check_pt_symmetry(h: np.ndarray, parity: ParityOperator) -> float:
    """Max-abs residual of P conj(H) P - H (zero iff H commutes with the
    combined parity-conjugation operation)."""
    h = _check_dims(h, parity)
    return max_abs(_sandwich(parity, h.conj()) - h)


def check_pseudo_hermiticity(h: np.ndarray, parity: ParityOperator) -> float:
    """Max-abs residual of P H P - H-adjoint.

    Coincides with the parity-conjugation residual exactly when H equals its
    transpose; the two are reported independently and never conflated.
    """
    h = _check_dims(h, parity)
    return max_abs(_sandwich(parity, h) - h.conj().T)


def classify_spectrum(eigenvalues, tol: Tolerances = DEFAULT_TOLERANCES) -> SpectrumClassification:
    """Split a spectrum into real eigenvalues and conjugate pairs.

    An eigenvalue counts as real when |Im E| <= tol.real * (c + |E|), where
    c = min(1, max|E|) keeps a spectrum of small modulus from counting as
    real as a whole.  The remaining ones are greedily matched into pairs
    minimizing |E_a - conj(E_b)|; a leftover complex eigenvalue raises
    :class:`UnpairedComplexEigenvalue`.  Each pair (a, b) has a < b, and the
    pairs are listed by first index, so the order does not depend on
    rounding in the distances.
    """
    lam = np.asarray(eigenvalues, dtype=np.complex128)
    if lam.ndim != 1:
        raise ValueError("eigenvalues must be a 1-d sequence")
    if not np.isfinite(lam).all():
        raise ValueError("eigenvalues contain non-finite entries")

    offset = min(1.0, max_abs(lam))
    real = np.abs(lam.imag) <= tol.real * (offset + np.abs(lam))
    if real.all():  # no pair to search for
        return SpectrumClassification(tuple(range(lam.size)), (), True)
    real_idx = np.flatnonzero(real).tolist()
    complex_idx = np.flatnonzero(~real)
    lam_c = lam[complex_idx]
    mod = np.abs(lam_c)

    # every pair a < b of complex indices within tolerance, from one distance
    # table of the complex eigenvalues: at most n x n, below the run's peak
    dist = np.abs(lam_c[:, None] - np.conj(lam_c[None, :]))
    close = dist <= tol.real * (offset + mod[:, None] + mod[None, :])
    close &= np.arange(mod.size)[:, None] < np.arange(mod.size)  # np.triu(close, k=1) at half its cost
    i, j = np.nonzero(close)
    dist, first, second = dist[i, j], complex_idx[i], complex_idx[j]

    taken: set[int] = set()
    pairs: list[tuple[int, int]] = []
    order = np.lexsort((second, first, dist))  # greedy order: (d, a, b)
    for a, b in zip(first[order].tolist(), second[order].tolist()):
        if a not in taken and b not in taken:
            pairs.append((a, b))
            taken.update((a, b))
    leftover = [k for k in complex_idx.tolist() if k not in taken]
    if leftover:
        k = leftover[0]
        raise UnpairedComplexEigenvalue(
            f"eigenvalue {lam[k]:.6g} has no conjugate partner within tolerance"
        )
    return SpectrumClassification(
        real_indices=tuple(real_idx),
        conjugate_pairs=tuple(sorted(pairs)),
        unbroken=not pairs,
    )


def _sign_flips(states: np.ndarray) -> np.ndarray:
    """Columns whose largest-modulus entry has a negative real part."""
    return states[np.argmax(np.abs(states), axis=0), np.arange(states.shape[1])].real < 0


def extract_signature(sys: BiorthonormalSystem, parity: ParityOperator,
                      tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[Signature, BiorthonormalSystem]:
    """PT-normalize each state in one pass: fix its phase so that
    P conj(v) = v, then rescale it so that its dual equals its signed parity
    reflection, vector-exactly.

    Phase: the reflection w = P conj(v) must equal e^{i a} v, and v is
    multiplied by e^{i a / 2} (principal branch).  That fixes v up to a
    sign, so a state whose largest-modulus entry then has a negative real
    part is flipped, whichever solver normalized it.  The dual picks up the
    same factor, which leaves the mutual normalization untouched.

    Sign: s_k = sign(Re <dual_k | P | dual_k>), which coincides with the
    sign of <state_k | P | state_k> whenever dual and reflected state are
    actually proportional.  States are then multiplied by a real beta and
    duals by 1/beta, which preserves duality, so that dual_k = s_k P state_k
    (equivalently <state_k|P|state_k> = s_k).  ``residuals`` records the
    2-norm defect of that relation on the actual (independently obtained)
    duals, so a structural failure shows instead of being normalized away.

    Returns the signature and a new system (inputs are immutable).  Raises
    :class:`NotPTInvariant` when some w is not proportional to v within
    ``tol.phase`` (broken symmetry phase or mixed degenerate states), else
    :class:`SignatureUndefined` when some parity expectation is within
    ``tol.signature_zero`` of zero; each message names the first such state.

    A system held in the parity's real basis has real states x, invariant
    with phase 1: only the sign flip applies, read off the states mapped to
    the input basis and folded into beta.  There P acts as the metric eta,
    and 2-norms and inner products are those of the input basis.
    """
    if parity.dim != sys.dim:
        raise ValueError(f"parity dim {parity.dim} does not match system dim {sys.dim}")
    reflect = sys.reflector(parity)
    states, duals = sys.states, sys.duals
    if sys.basis is None:
        scratch = states.conj()
        reflected = parity.apply(scratch)  # column k: w = P conj(v_k)
        nrm2 = _column_dots(scratch, states).real
        gamma = _column_dots(scratch, reflected) / nrm2
        np.multiply(states, gamma, out=scratch)
        reflected -= scratch
        del scratch
        defect = np.linalg.norm(reflected, axis=0) / np.sqrt(nrm2)
        bad = np.flatnonzero(defect > tol.phase)
        if bad.size:
            k = bad[0]
            raise NotPTInvariant(f"state {k} is not parity-conjugation invariant (defect {defect[k]:.3e})")
        phase = np.exp(0.5j * np.angle(gamma))
        states = states * phase  # this call's own, as are the duals: rescaled in place below
        flipped = _sign_flips(states)
        states[:, flipped] *= -1
        phase[flipped] *= -1
        duals = duals * phase
        flip = 1.0  # applied with the phase
    else:
        flip = np.where(_sign_flips(sys.basis.apply(states)), -1.0, 1.0)

    # a flip of both state and dual leaves every expectation's bits unchanged;
    # conj() of a float64 array is the array itself, not a copy
    dual_expectation = _column_dots(duals.conj(), reflect(duals)).real
    conj_states = states.conj()
    nrm2 = _column_dots(conj_states, states).real
    reflected = reflect(states)
    r = _column_dots(conj_states, reflected).real
    del conj_states
    zero = np.flatnonzero(np.abs(r) <= tol.signature_zero * nrm2)
    if zero.size:
        k = zero[0]
        raise SignatureUndefined(f"parity expectation of state {k} is {r[k]:.3e}; sign undefined")
    signs = np.where(dual_expectation > 0, 1, -1).astype(np.int64)
    scale = flip * np.abs(r) ** -0.5  # beta, signed by the flip (exact)
    in_place = sys.basis is None
    states = np.multiply(states, scale, out=states if in_place else None)
    duals = np.divide(duals, scale, out=duals if in_place else None)
    # P (beta v) = beta (P v): reuse the reflection instead of applying P again
    reflected *= scale
    reflected *= signs
    np.subtract(duals, reflected, out=reflected)
    residuals = np.linalg.norm(reflected, axis=0)
    del reflected

    signature = Signature(
        values=signs,
        residuals=residuals,
        valid=bool((residuals <= tol.signature).all()),
    )
    return signature, BiorthonormalSystem(eigenvalues=sys.eigenvalues.copy(), states=states,
                                          duals=duals, basis=sys.basis)


def _column_dots(conj_a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise inner products <a_k | b_k>, given conj(a)."""
    return np.einsum("ij,ij->j", conj_a, b)


def build_charge(sys: BiorthonormalSystem, signature: Signature) -> np.ndarray:
    """Charge operator sum_k s_k |state_k><dual_k|, in the coordinates of
    ``sys`` (real for a system held in a real basis U; U C U^dagger is then
    the operator in the input basis).

    Squares to the identity and commutes with the generating matrix; it is
    generally not self-adjoint (its adjoint swaps the roles of states and
    duals).
    """
    if not signature.valid:
        raise ValueError("cannot build the charge operator from an invalid signature")
    if signature.dim != sys.dim:
        raise ValueError("signature and system dimensions differ")
    return (sys.states * signature.values) @ adjoint(sys.duals)

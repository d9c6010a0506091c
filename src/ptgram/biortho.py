"""Bi-orthonormal dual pairs of bases for diagonalizable complex matrices.

A diagonalizable H and its adjoint carry two complete eigenbases.  Given a
unitary basis in which H is real, one real LAPACK call on that real form
returns both families already matched by index; otherwise H and H-adjoint
are solved separately and each right eigenvector is matched with the left
eigenvector (eigenvector of H-adjoint) whose eigenvalue is closest to the
conjugate.  The left family is then rescaled -- and, inside degenerate
clusters, recombined -- so that the two families are mutually orthonormal
and resolve the identity both ways.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import AmbiguousPairing, DefectiveMatrix
from .linalg import as_complex_matrix, eigendecompose, max_abs

__all__ = [
    "EigenSystem",
    "BiorthonormalSystem",
    "pair_left_right",
    "biorthonormalize",
    "diagnose_exceptional",
]

# an overlap (block) whose smallest singular value is at most this fraction
# of max(1, its largest) is singular
SINGULAR_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Matched right/left eigenpairs of H and its adjoint, pre-normalization.

    ``rights`` and ``lefts`` hold unit-norm eigenvectors as columns; column k
    of ``rights`` belongs to ``eigenvalues[k]`` and column k of ``lefts`` is
    the adjoint eigenvector matched to it (eigenvalue ``conj(eigenvalues[k])``
    up to the pairing tolerance).  ``condition`` is the 2-norm condition
    number of the right-eigenvector matrix.
    """

    eigenvalues: np.ndarray
    rights: np.ndarray
    lefts: np.ndarray
    condition: float

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True, eq=False)
class BiorthonormalSystem:
    """Dual pair of bases: states (columns) and duals (columns).

    Satisfies dual_n^dagger state_m = delta_nm up to ``duality_defect`` and
    sum_n state_n dual_n^dagger = I up to ``completeness_defect``.  Both
    defects are measured on the arrays, once each, on first read.
    """

    eigenvalues: np.ndarray
    states: np.ndarray
    duals: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @cached_property
    def duality_defect(self) -> float:
        """max |duals^dagger states - I|"""
        return max_abs(self.duals.conj().T @ self.states - np.eye(self.dim, dtype=np.complex128))

    @cached_property
    def completeness_defect(self) -> float:
        """max |states duals^dagger - I|"""
        return max_abs(self.states @ self.duals.conj().T - np.eye(self.dim, dtype=np.complex128))


def pair_left_right(h: np.ndarray, tol_pair: float = DEFAULT_TOLERANCES.pair,
                    tol_eig: float = DEFAULT_TOLERANCES.eig,
                    basis: np.ndarray | None = None) -> EigenSystem:
    """Diagonalize H and H-adjoint and match their eigenpairs.

    ``basis`` is a unitary U in which H is real, such as
    :meth:`ParityOperator.real_basis` for an H that parity + conjugation
    leaves exactly invariant.  Then the real Hr = Re(U^dagger H U) is solved
    once, in real arithmetic, for both its right and its left eigenvectors,
    which LAPACK returns matched by index; both families are mapped back by
    U, and the eigenvector condition is measured on Hr's vectors (it is
    unitarily invariant).

    Without a basis, H and H-adjoint are solved separately in complex
    arithmetic, and right pair k is matched to the left pair whose
    eigenvalue mu minimizes |mu - conj(lambda_k)|, by greedy assignment on
    the globally sorted distance list with every left pair used exactly
    once.

    Raises
    ------
    AmbiguousPairing
        Without a basis only: some right eigenvalue has two closest left
        candidates whose distances agree within ``tol_pair`` while the
        candidates themselves are more than ``tol_pair`` apart (a genuinely
        ambiguous match, as opposed to a degenerate cluster, which is
        resolved later).
    NonConvergence
        Propagated from the eigensolver.
    """
    h = as_complex_matrix(h, name="H")
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"pair_left_right needs a square matrix, got shape {h.shape}")
    if basis is None:
        return _pair_complex(h, tol_pair, tol_eig)
    if basis.shape != h.shape:
        raise ValueError(f"basis has shape {basis.shape}, expected {h.shape}")

    hr = np.ascontiguousarray(((basis.conj().T @ h) @ basis).real)
    lam, rights, lefts = eigendecompose(hr, tol_eig=tol_eig, left=True)
    # Hr's vectors are real where the spectrum is: then a real SVD suffices
    condition = float(np.linalg.cond(rights if lam.imag.any() else rights.real))
    return EigenSystem(eigenvalues=lam, rights=basis @ rights, lefts=basis @ lefts, condition=condition)


def _pair_complex(h: np.ndarray, tol_pair: float, tol_eig: float) -> EigenSystem:
    """Two complex eigensolves, matched greedily (see :func:`pair_left_right`)."""
    n = h.shape[0]
    lam, rights = eigendecompose(h, tol_eig=tol_eig)
    mu, left_vecs = eigendecompose(h.conj().T, tol_eig=tol_eig)

    dist = np.abs(mu[None, :] - np.conj(lam)[:, None])  # dist[k, j]

    if n > 1:
        for k in range(n):
            j1, j2 = np.argsort(dist[k])[:2]
            if dist[k, j2] - dist[k, j1] <= tol_pair and abs(mu[j1] - mu[j2]) > tol_pair:
                raise AmbiguousPairing(
                    f"right eigenvalue {lam[k]:.6g} matches left eigenvalues "
                    f"{mu[j1]:.6g} and {mu[j2]:.6g} equally well"
                )

    assignment = np.full(n, -1)
    left_used = np.zeros(n, dtype=bool)
    order = np.argsort(dist, axis=None)
    assigned = 0
    for flat in order:
        k, j = divmod(int(flat), n)
        if assignment[k] < 0 and not left_used[j]:
            assignment[k] = j
            left_used[j] = True
            assigned += 1
            if assigned == n:
                break

    return EigenSystem(
        eigenvalues=lam,
        rights=rights,
        lefts=left_vecs[:, assignment],
        condition=float(np.linalg.cond(rights)),
    )


def _clusters(eigenvalues: np.ndarray, tol_dup: float) -> np.ndarray:
    """Bounds of the degenerate clusters of (Re, Im)-sorted eigenvalues:
    cluster c is ``eigenvalues[bounds[c]:bounds[c + 1]]``.

    Consecutive eigenvalues closer than ``tol_dup`` chain into one cluster.
    """
    n = eigenvalues.shape[0]
    breaks = np.flatnonzero(np.abs(np.diff(eigenvalues)) > tol_dup) + 1
    return np.concatenate(([0], breaks, [n]))


def _singular(value: complex, smallest: float) -> DefectiveMatrix:
    return DefectiveMatrix(
        f"overlap block of the eigenvalue cluster near {value:.6g} is singular "
        f"(smallest singular value {smallest:.3e})"
    )


def biorthonormalize(sys: EigenSystem, tol_dup: float = DEFAULT_TOLERANCES.dup,
                     tol_fail: float = DEFAULT_TOLERANCES.duality_fail) -> BiorthonormalSystem:
    """Rescale (and recombine inside degenerate clusters) the left family so
    the two bases become dual to each other.

    States keep unit 2-norm; duals absorb the full normalization factor.
    A lone eigenvalue's dual is its left vector over the conjugate overlap,
    all of them at once.  Inside an eigenvalue cluster (consecutive sorted
    eigenvalues <= ``tol_dup`` apart) the duals are recombined by solving
    the cluster-local overlap system, which keeps the construction
    symmetric instead of order-dependent.

    Raises
    ------
    DefectiveMatrix
        An overlap (a cluster's overlap block) is numerically singular --
        the first such cluster in (Re, Im) order is named -- or the resulting
        duality defect exceeds ``tol_fail``: the input is not diagonalizable
        to working precision (Jordan block / exceptional point).
    """
    n = sys.dim
    order = np.lexsort((sys.eigenvalues.imag, sys.eigenvalues.real))
    lam = sys.eigenvalues[order]
    states = sys.rights[:, order]
    lefts = sys.lefts[:, order]

    bounds = _clusters(lam, tol_dup)
    sizes = np.diff(bounds)
    lone = np.repeat(sizes == 1, sizes)
    overlaps = np.einsum("ij,ij->j", lefts.conj(), states)
    magnitude = np.abs(overlaps)
    singular = lone & (magnitude <= SINGULAR_RTOL * np.maximum(1.0, magnitude))
    first_singular = int(np.argmax(singular)) if singular.any() else n

    duals = lefts / np.where(lone & ~singular, overlaps, 1.0).conj()
    for start, stop in zip(bounds[:-1][sizes > 1], bounds[1:][sizes > 1]):
        if start > first_singular:
            break
        cols = np.arange(start, stop)
        block = lefts[:, cols].conj().T @ states[:, cols]
        sv = np.linalg.svd(block, compute_uv=False)
        if sv[-1] <= SINGULAR_RTOL * max(1.0, float(sv[0])):
            raise _singular(lam[start], sv[-1])
        # duals = lefts @ inv(block)^dagger  gives duals^dagger @ states = I on the cluster
        combo = np.linalg.solve(block.conj().T, np.eye(len(cols), dtype=np.complex128))
        duals[:, cols] = lefts[:, cols] @ combo
    if first_singular < n:
        raise _singular(lam[first_singular], magnitude[first_singular])

    system = BiorthonormalSystem(eigenvalues=lam, states=states, duals=duals)
    if system.duality_defect > tol_fail:
        raise DefectiveMatrix(
            f"duality defect {system.duality_defect:.3e} exceeds {tol_fail:.1e}; "
            "input is not diagonalizable to working precision"
        )
    return system


def diagnose_exceptional(sys: EigenSystem) -> tuple[float, float]:
    """Condition number of the right-eigenvector matrix (``sys.condition``)
    and the minimum pairwise eigenvalue gap.

    A large condition number together with a small gap flags proximity to an
    exceptional point, where diagonalizability breaks down.
    """
    condition = sys.condition
    if sys.dim < 2:
        return condition, float("inf")
    lam = sys.eigenvalues
    diff = np.abs(lam[:, None] - lam[None, :])
    gap = float(diff[np.triu_indices(sys.dim, k=1)].min())
    return condition, gap

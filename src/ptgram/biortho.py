"""Bi-orthonormal dual pairs of bases for diagonalizable complex matrices.

A diagonalizable H and its adjoint carry two complete eigenbases.  After
matching each right eigenvector of H with the left eigenvector (eigenvector
of H-adjoint) whose eigenvalue is closest to the conjugate, the left family
is rescaled -- and, inside degenerate clusters, recombined -- so that the
two families are mutually orthonormal and resolve the identity both ways.
Given a unitary basis in which H is real, both eigensolves run in real
arithmetic on that real form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousPairing, DefectiveMatrix
from .linalg import as_complex_matrix, eigendecompose, max_abs

__all__ = [
    "EigenSystem",
    "BiorthonormalSystem",
    "pair_left_right",
    "biorthonormalize",
    "diagnose_exceptional",
]


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Matched right/left eigenpairs of H and its adjoint, pre-normalization.

    ``rights`` and ``lefts`` hold unit-norm eigenvectors as columns; column k
    of ``lefts`` is the adjoint eigenvector whose eigenvalue
    ``left_eigenvalues[k]`` best matches ``conj(eigenvalues[k])``, and
    ``pairing_residuals[k]`` records that eigenvalue mismatch.
    """

    eigenvalues: np.ndarray
    left_eigenvalues: np.ndarray
    rights: np.ndarray
    lefts: np.ndarray
    pairing_residuals: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True, eq=False)
class BiorthonormalSystem:
    """Dual pair of bases: states (columns) and duals (columns).

    Satisfies dual_n^dagger state_m = delta_nm up to ``duality_defect`` and
    sum_n state_n dual_n^dagger = I up to ``completeness_defect``.
    """

    eigenvalues: np.ndarray
    states: np.ndarray
    duals: np.ndarray
    duality_defect: float
    completeness_defect: float

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def pair_left_right(
    h: np.ndarray, tol_pair: float = 1e-8, tol_eig: float = 1e-10, basis: np.ndarray | None = None
) -> EigenSystem:
    """Diagonalize H and H-adjoint and match their eigenpairs.

    Right pair k is matched to the left pair whose eigenvalue mu minimizes
    |mu - conj(lambda_k)|, by greedy assignment on the globally sorted
    distance list with every left pair used exactly once.

    ``basis`` is a unitary U in which H is real, such as
    :meth:`ParityOperator.real_basis` for an H that parity + conjugation
    leaves exactly invariant.  Then the real Hr = Re(U^dagger H U) and its
    transpose (which is U^dagger H^dagger U) are solved in real arithmetic
    and the eigenvectors mapped back by U; without it H and H-adjoint are
    solved in complex arithmetic.

    Raises
    ------
    AmbiguousPairing
        Some right eigenvalue has two closest left candidates whose distances
        agree within ``tol_pair`` while the candidates themselves are more
        than ``tol_pair`` apart (a genuinely ambiguous match, as opposed to a
        degenerate cluster, which is resolved later).
    NonConvergence
        Propagated from the eigensolver.
    """
    h = as_complex_matrix(h, name="H")
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"pair_left_right needs a square matrix, got shape {h.shape}")
    n = h.shape[0]

    if basis is None:
        m = h
        m_adjoint = h.conj().T
    else:
        if basis.shape != h.shape:
            raise ValueError(f"basis has shape {basis.shape}, expected {h.shape}")
        m = np.ascontiguousarray(((basis.conj().T @ h) @ basis).real)
        m_adjoint = m.T
    right_pairs = eigendecompose(m, tol_eig=tol_eig)
    left_pairs = eigendecompose(m_adjoint, tol_eig=tol_eig)
    lam = np.array([p[0] for p in right_pairs])
    rights = np.column_stack([p[1] for p in right_pairs])
    mu = np.array([p[0] for p in left_pairs])
    left_vecs = np.column_stack([p[1] for p in left_pairs])

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

    lefts = left_vecs[:, assignment]
    if basis is not None:
        rights = basis @ rights
        lefts = basis @ lefts
    left_values = mu[assignment]
    residuals = np.abs(left_values - np.conj(lam))
    return EigenSystem(
        eigenvalues=lam,
        left_eigenvalues=left_values,
        rights=rights,
        lefts=lefts,
        pairing_residuals=residuals,
    )


def _clusters(eigenvalues: np.ndarray, tol_dup: float) -> list[list[int]]:
    """Group indices of (Re, Im)-sorted eigenvalues into degenerate clusters.

    Consecutive eigenvalues closer than ``tol_dup`` chain into one cluster.
    """
    order = np.lexsort((eigenvalues.imag, eigenvalues.real))
    groups: list[list[int]] = [[int(order[0])]]
    for idx in order[1:]:
        prev = groups[-1][-1]
        if abs(eigenvalues[idx] - eigenvalues[prev]) <= tol_dup:
            groups[-1].append(int(idx))
        else:
            groups.append([int(idx)])
    return groups


def biorthonormalize(sys: EigenSystem, tol_dup: float = 1e-8, tol_fail: float = 1e-6) -> BiorthonormalSystem:
    """Rescale (and recombine inside degenerate clusters) the left family so
    the two bases become dual to each other.

    States keep unit 2-norm; duals absorb the full normalization factor.
    Inside an eigenvalue cluster (pairwise distance <= ``tol_dup``) the duals
    are recombined by solving the cluster-local overlap system, which keeps
    the construction symmetric instead of order-dependent.

    Raises
    ------
    DefectiveMatrix
        A cluster overlap block is numerically singular, or the resulting
        duality defect exceeds ``tol_fail``: the input is not diagonalizable
        to working precision (Jordan block / exceptional point).
    """
    n = sys.dim
    order = np.lexsort((sys.eigenvalues.imag, sys.eigenvalues.real))
    lam = sys.eigenvalues[order]
    states = sys.rights[:, order].copy()
    lefts = sys.lefts[:, order]

    duals = np.zeros_like(lefts)
    for cluster in _clusters(lam, tol_dup):
        cols = np.array(cluster)
        block = lefts[:, cols].conj().T @ states[:, cols]
        sv = np.linalg.svd(block, compute_uv=False)
        if sv[-1] <= 1e-12 * max(1.0, float(sv[0])):
            raise DefectiveMatrix(
                f"overlap block of the eigenvalue cluster near {lam[cols[0]]:.6g} is singular "
                f"(smallest singular value {sv[-1]:.3e})"
            )
        # duals = lefts @ inv(block)^dagger  gives duals^dagger @ states = I on the cluster
        combo = np.linalg.solve(block.conj().T, np.eye(len(cols), dtype=np.complex128))
        duals[:, cols] = lefts[:, cols] @ combo

    eye = np.eye(n, dtype=np.complex128)
    duality_defect = max_abs(duals.conj().T @ states - eye)
    completeness_defect = max_abs(states @ duals.conj().T - eye)
    if duality_defect > tol_fail:
        raise DefectiveMatrix(
            f"duality defect {duality_defect:.3e} exceeds {tol_fail:.1e}; "
            "input is not diagonalizable to working precision"
        )
    return BiorthonormalSystem(
        eigenvalues=lam,
        states=states,
        duals=duals,
        duality_defect=duality_defect,
        completeness_defect=completeness_defect,
    )


def diagnose_exceptional(sys: EigenSystem) -> tuple[float, float]:
    """Condition number of the right-eigenvector matrix and the minimum
    pairwise eigenvalue gap.

    A large condition number together with a small gap flags proximity to an
    exceptional point, where diagonalizability breaks down.
    """
    condition = float(np.linalg.cond(sys.rights))
    if sys.dim < 2:
        return condition, float("inf")
    lam = sys.eigenvalues
    diff = np.abs(lam[:, None] - lam[None, :])
    gap = float(diff[np.triu_indices(sys.dim, k=1)].min())
    return condition, gap

"""Bi-orthonormal dual pairs of bases for diagonalizable matrices.

A diagonalizable H and its adjoint carry two complete eigenbases.  Given a
unitary basis in which H is real, one real LAPACK call on that real form
returns both families already matched by index; otherwise H and H-adjoint
are solved separately and each right eigenvector is matched with the left
eigenvector (eigenvector of H-adjoint) whose eigenvalue is closest to the
conjugate.  The left family is then rescaled -- and, inside degenerate
clusters, recombined -- so that the two families are mutually orthonormal
and resolve the identity both ways.

A system solved from the real form is kept in the basis's coordinates
(``basis`` set, float64 arrays), where every later step runs in real
arithmetic, its duality and completeness defects included: both are
statements about operators, not coordinates.  A real eigenvalue's column
is its vector.  A conjugate pair (``pairs`` row (k, j)) keeps LAPACK's two
real columns (a, b), scaled so that [x, conj(x)] = [a, b] W with
x = (a + ib) / sqrt(2) and the unitary W = [[1, 1], [i, -i]] / sqrt(2):
what a unitary leaves invariant (a condition number, Gram eigenvalues,
states duals^T) reads off the columns as off a real spectrum's.  Duals take
the same layout.  ``in_original_basis`` reads such a system in the input
basis, mapping its states and duals by U (and W) on first read.  A system
solved as a complex matrix is complex128 in the input basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import AmbiguousPairing, DefectiveMatrix, NonConvergence
from .linalg import (
    RealBasis,
    _condition,
    adjoint,
    as_complex_matrix,
    eigendecompose,
    eigendecompose_real,
    max_abs,
)

__all__ = [
    "EigenSystem",
    "BiorthonormalSystem",
    "pair_left_right",
    "solve_real_form",
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
    number of the right-eigenvector matrix.  With ``basis`` set, both
    families are float64 coordinates in that unitary basis U, as LAPACK
    returned them, a conjugate pair's as the two real columns of ``pairs``
    (see the module docstring): the vectors are U rights W, so ``condition``
    is that of ``rights``.  ``real_form`` holds the matrix they were solved
    from, Hr = Re(U^dagger H U) (:meth:`RealBasis.real_form`): H in the
    same coordinates, kept so that a run forms it once.
    """

    eigenvalues: np.ndarray
    rights: np.ndarray
    lefts: np.ndarray
    condition: float
    basis: RealBasis | None = None
    real_form: np.ndarray | None = None
    pairs: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def in_original_basis(self) -> "EigenSystem":
        """The same system with its vectors in the input basis (and no
        ``real_form``)."""
        if self.basis is None:
            return self
        rights, lefts = (self.basis.apply(complex_columns(m, self.pairs))
                         for m in (self.rights, self.lefts))
        return EigenSystem(self.eigenvalues, rights, lefts, self.condition)


@dataclass(frozen=True, eq=False)
class BiorthonormalSystem:
    """Dual pair of bases: states (columns) and duals (columns).

    Satisfies dual_n^dagger state_m = delta_nm up to ``duality_defect`` and
    sum_n state_n dual_n^dagger = I up to ``completeness_defect``.  Both
    defects are measured on the arrays, once each, on first read.  With
    ``basis`` set, states and duals are coordinates in that unitary basis U,
    real ones unless :func:`~ptgram.symmetry.extract_signature` re-phased a
    conjugate pair; the duality matrix is the same in either basis, and the
    completeness defect is measured on U (states duals^dagger - I) U^dagger.
    With ``pairs`` set, both hold conjugate pairs as real columns (see the
    module docstring), and the duality matrix is W^dagger (duals^T states) W.
    """

    eigenvalues: np.ndarray
    states: np.ndarray
    duals: np.ndarray
    basis: RealBasis | None = None
    pairs: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @cached_property
    def duality_defect(self) -> float:
        """max |duals^dagger states - I|"""
        overlap = adjoint(self.duals) @ self.states
        if self.pairs is not None:
            overlap = complex_overlaps(overlap, self.pairs)
        overlap.flat[:: self.dim + 1] -= 1.0
        return max_abs(overlap)

    @cached_property
    def completeness_defect(self) -> float:
        """max |states duals^dagger - I|, in the input basis"""
        total = self.states @ adjoint(self.duals)
        total.flat[:: self.dim + 1] -= 1.0
        return self.operator_max_abs(total)

    def operator_max_abs(self, m: np.ndarray) -> float:
        """Entrywise max modulus, in the input basis, of the operator whose
        matrix in this system's coordinates is ``m``."""
        return max_abs(m) if self.basis is None else self.basis.operator_max_abs(m)

    def reflector(self, parity):
        """P as it acts on the columns of this system's arrays: ``parity``'s
        own apply, or in the parity's real basis U the row scaling by the
        metric eta (P U = U eta).  Raises :class:`ValueError` for a system
        held in another basis."""
        if self.basis is None:
            return parity.apply
        if self.basis is not parity.real_basis():
            raise ValueError("the system is held in a basis other than the parity's real basis")
        return self.basis.reflect

    def in_original_basis(self) -> "BiorthonormalSystem":
        """This system read in the input basis: itself when it has no
        ``basis``, else a view that holds it as ``coordinates`` and carries
        its defects; the view's states and duals are mapped by U (and a
        conjugate pair's columns by W) on first read and cached."""
        if self.basis is None:
            return self
        system = object.__new__(BiorthonormalSystem)
        system.__dict__.update(eigenvalues=self.eigenvalues, basis=None, pairs=None, coordinates=self,
                               duality_defect=self.duality_defect,
                               completeness_defect=self.completeness_defect)
        return system

    def __repr__(self) -> str:
        # the dim, dtype and basis only: a view's first read of its states maps them
        if "coordinates" in self.__dict__:
            return f"BiorthonormalSystem(dim={self.dim}, dtype=complex128, input-basis view)"
        held = "input basis" if self.basis is None else "U's coordinates"
        if self.pairs is not None:
            held += f", {len(self.pairs)} conjugate pairs as real columns"
        return f"BiorthonormalSystem(dim={self.dim}, dtype={self.states.dtype}, {held})"

    def __getattr__(self, name: str):
        # only the states and duals of an in_original_basis view are missing
        if name not in ("states", "duals") or "coordinates" not in self.__dict__:
            raise AttributeError(name)
        held = self.coordinates
        value = self.__dict__[name] = held.basis.apply(complex_columns(getattr(held, name), held.pairs))
        return value


def complex_columns(m: np.ndarray, pairs: np.ndarray | None) -> np.ndarray:
    """m W: the vectors of columns laid out by ``pairs`` (``m`` itself when
    it is None), (a + ib) / sqrt(2) at column k and its conjugate at column
    j of each pair (k, j), a complex128 array."""
    if pairs is None:
        return m
    k, j = pairs.T
    out = m.astype(np.complex128)
    out.imag[:, k] = m[:, j]
    out[:, k] *= np.sqrt(0.5)
    out[:, j] = out[:, k].conj()
    return out


def complex_overlaps(m: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """W^dagger m W, the overlaps of two families of vectors from the real
    ``m`` of their columns laid out by ``pairs``: a new complex128 array."""
    out = complex_columns(m, pairs)
    k, j = pairs.T
    # row k of sqrt(2) W^dagger is e_k - i e_j, row j e_k + i e_j
    top, bottom = out[k], 1j * out[j]
    out[j] = (top + bottom) * np.sqrt(0.5)
    top -= bottom
    top *= np.sqrt(0.5)
    out[k] = top
    return out


def pair_left_right(h: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> EigenSystem:
    """Diagonalize H and H-adjoint and match their eigenpairs.

    H and H-adjoint are solved separately in complex arithmetic, and right
    pair k is matched to the left pair whose eigenvalue mu minimizes
    |mu - conj(lambda_k)|, by greedy assignment on the globally sorted
    distance list with every left pair used exactly once.  An H that is
    real in a known unitary basis is solved by :func:`solve_real_form`
    instead.

    Raises
    ------
    AmbiguousPairing
        Some right eigenvalue has two closest left candidates whose
        distances agree within ``tol.pair`` while the candidates themselves
        are more than ``tol.pair`` apart (a genuinely ambiguous match, as
        opposed to a degenerate cluster, which is resolved later).
    NonConvergence
        Propagated from the eigensolver.
    """
    h = as_complex_matrix(h, name="H")
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"pair_left_right needs a square matrix, got shape {h.shape}")
    n = h.shape[0]
    lam, rights = eigendecompose(h, tol=tol)
    mu, left_vecs = eigendecompose(h.conj().T, tol=tol)

    dist = np.abs(mu[None, :] - np.conj(lam)[:, None])  # dist[k, j]

    if n > 1:
        for k in range(n):
            j1, j2 = np.argsort(dist[k])[:2]
            if dist[k, j2] - dist[k, j1] <= tol.pair and abs(mu[j1] - mu[j2]) > tol.pair:
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
        condition=_condition(rights),
    )


def solve_real_form(h: np.ndarray, basis: RealBasis,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> EigenSystem:
    """Right and left eigenvectors of H from one real solve in ``basis``.

    ``basis`` is a unitary U in which H is real, such as
    :meth:`ParityOperator.real_basis` for an H that parity + conjugation
    leaves exactly invariant.  The real Hr = Re(U^dagger H U) is solved once,
    in real arithmetic, for both its right and its left eigenvectors, which
    LAPACK returns matched by index (:func:`eigendecompose_real`).  Whatever
    the spectrum the vectors stay real, in U's coordinates (``basis`` set;
    ``in_original_basis`` maps them back), a conjugate pair's as its two
    real columns (``pairs``), and Hr itself is kept (``real_form``).  As U
    and W are unitary, the eigenvector condition is that of X_r: a real
    SVD.  Hr (:meth:`RealBasis.real_form`) is formed by dense products with
    U, so that its rounding does not depend on how U is stored.
    """
    h = as_complex_matrix(h, name="H")
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"solve_real_form needs a square matrix, got shape {h.shape}")
    if not isinstance(basis, RealBasis) or basis.dim != h.shape[0]:
        raise ValueError(f"basis must be a RealBasis of dim {h.shape[0]}")
    hr = basis.real_form(h)
    lam, rights, lefts, pairs = eigendecompose_real(hr, tol=tol)
    return EigenSystem(lam, rights, lefts, _condition(rights), basis, hr, pairs)


def _clusters(eigenvalues: np.ndarray, tol_dup: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """Which (Re, Im)-sorted eigenvalues are lone, and the clusters of the
    others: the components of |lambda_i - lambda_j| <= ``tol_dup``, as index
    arrays listed by first index.  Consecutive eigenvalues that close chain
    into runs, a real spectrum's components; a window on the sorted real parts
    finds links past a run's end, as when rounding sorts a conjugate between copies."""
    n = eigenvalues.shape[0]
    chained = np.append(False, np.abs(eigenvalues[1:] - eigenvalues[:-1]) <= tol_dup)
    # each index's component as its first index: at first its run's start
    label = np.maximum.accumulate(np.where(chained, 0, np.arange(n)))
    stop = np.searchsorted(label, label, side="right")  # past the end of each run
    reach = np.searchsorted(eigenvalues.real, eigenvalues.real + tol_dup, side="right")
    rows = np.flatnonzero(reach > stop)
    cols = stop[rows]
    while rows.size:
        close = np.abs(eigenvalues[cols] - eigenvalues[rows]) <= tol_dup
        for i, j in zip(rows[close], cols[close]):  # the later component joins the earlier
            label[label == max(label[i], label[j])] = min(label[i], label[j])
        more = cols + 1 < reach[rows]
        rows, cols = rows[more], cols[more] + 1
    lone = np.bincount(label, minlength=n)[label] == 1
    if lone.all():
        return lone, []
    members = np.flatnonzero(~lone)
    members = members[np.argsort(label[members], kind="stable")]
    return lone, np.split(members, np.flatnonzero(np.diff(label[members])) + 1)


def _singular(value: complex, smallest: float) -> DefectiveMatrix:
    return DefectiveMatrix(
        f"overlap block of the eigenvalue cluster near {value:.6g} is singular "
        f"(smallest singular value {smallest:.3e})"
    )


def biorthonormalize(sys: EigenSystem, tol: Tolerances = DEFAULT_TOLERANCES) -> BiorthonormalSystem:
    """Rescale (and recombine inside degenerate clusters) the left family so
    the two bases become dual to each other.

    States keep unit 2-norm; duals absorb the full normalization factor.
    A lone eigenvalue's dual is its left vector over the conjugate overlap,
    all of them at once; for a conjugate pair of real columns that is a
    real 2 x 2 combination of its left columns.  Inside an eigenvalue
    cluster (a connected component of eigenvalues <= ``tol.dup`` apart) the
    duals are recombined by solving the cluster-local overlap system, which
    keeps the construction symmetric instead of order-dependent.  A cluster
    that holds a pair column is joined by its conjugate cluster and solved
    in real arithmetic, where D_r^T X_r = I is D^dagger X = I.

    Raises
    ------
    DefectiveMatrix
        An overlap (a cluster's overlap block) is numerically singular --
        the first such cluster in (Re, Im) order is named -- or the resulting
        duality defect exceeds ``tol.duality_fail``: the input is not
        diagonalizable to working precision (Jordan block / exceptional
        point).
    NonConvergence
        LAPACK's SVD or solve of a cluster's overlap block failed.
    """
    n = sys.dim
    order = np.lexsort((sys.eigenvalues.imag, sys.eigenvalues.real))
    lam = sys.eigenvalues[order]
    states = sys.rights[:, order]
    lefts = sys.lefts[:, order]
    pairs = None
    partner = np.arange(n)  # a column's pair partner
    if sys.pairs is not None:
        pairs = np.argsort(order)[sys.pairs]  # sorted positions of the pair columns
        k, j = pairs.T
        partner[k], partner[j] = j, k

    lone, clusters = _clusters(lam, tol.dup)
    overlaps = np.einsum("ij,ij->j", lefts.conj(), states)
    magnitude = np.abs(overlaps)
    if pairs is not None:
        lone[k] = lone[j] = lone[k] & lone[j]  # a pair is lone when both its members are
        # y^dagger x = (s + it) / 2, s = g.a + h.b, t = g.b - h.a, as x = (a + ib) / sqrt(2)
        s = overlaps[k] + overlaps[j]
        t = (np.einsum("ij,ij->j", lefts[:, k], states[:, j])
             - np.einsum("ij,ij->j", lefts[:, j], states[:, k]))
        magnitude[k] = magnitude[j] = np.hypot(s, t) / 2
    singular = lone & (magnitude <= SINGULAR_RTOL * np.maximum(1.0, magnitude))
    first_singular = int(np.argmax(singular)) if singular.any() else n

    # a pair column's own overlap is no divisor: pairs are combined below
    duals = lefts / np.where(lone & ~singular & (partner == np.arange(n)), overlaps, 1.0).conj()
    if pairs is not None:
        # y / conj(y^dagger x) = ((s g - t h) + i (t g + s h)) / sqrt(2) / ((s^2 + t^2) / 2)
        ok = lone[k] & ~singular[k]
        g, h, s, t = lefts[:, k[ok]], lefts[:, j[ok]], s[ok], t[ok]
        size = (s * s + t * t) / 2
        duals[:, k[ok]] = (g * s - h * t) / size
        duals[:, j[ok]] = (g * t + h * s) / size
    solved = np.zeros(n, dtype=bool)
    for cluster in clusters:
        first = cluster[0]
        if first > first_singular:
            break
        if solved[first]:  # the conjugate of a cluster solved with it
            continue
        cols = np.union1d(cluster, partner[cluster])  # the cluster closed under conjugation
        solved[cols] = True
        block = adjoint(lefts[:, cols]) @ states[:, cols]
        try:
            sv = np.linalg.svd(block, compute_uv=False)
            if sv[-1] <= SINGULAR_RTOL * max(1.0, float(sv[0])):
                raise _singular(lam[first], sv[-1])
            # duals = lefts @ inv(block)^dagger gives duals^dagger @ states = I on the cluster
            combo = np.linalg.solve(adjoint(block), np.eye(cols.size))
        except np.linalg.LinAlgError as exc:
            raise NonConvergence(
                f"overlap block of the eigenvalue cluster near {lam[first]:.6g}: {exc}") from exc
        duals[:, cols] = lefts[:, cols] @ combo
    if first_singular < n:
        raise _singular(lam[first_singular], magnitude[first_singular])

    system = BiorthonormalSystem(eigenvalues=lam, states=states, duals=duals, basis=sys.basis,
                                 pairs=pairs)
    if system.duality_defect > tol.duality_fail:
        raise DefectiveMatrix(
            f"duality defect {system.duality_defect:.3e} exceeds {tol.duality_fail:.1e}; "
            "input is not diagonalizable to working precision"
        )
    return system


def diagnose_exceptional(sys: EigenSystem) -> tuple[float, float]:
    """Condition number of the right-eigenvector matrix (``sys.condition``)
    and the minimum pairwise eigenvalue gap, inf for one eigenvalue: the
    minimum over i != j, as |lambda_i - lambda_j| is symmetric to the bit.

    A large condition number together with a small gap flags proximity to an
    exceptional point, where diagonalizability breaks down.
    """
    lam = sys.eigenvalues
    diff = np.abs(lam[:, None] - lam)
    diff.flat[:: sys.dim + 1] = np.inf
    return sys.condition, float(diff.min())

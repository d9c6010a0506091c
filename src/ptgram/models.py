"""Generators of concrete Hamiltonian/parity pairs for tests, demos, and
benchmarks.

Four families: an analytically solvable two-level system, a gain/loss
tight-binding chain, a finite-difference Schroedinger operator with a
complex-deformed potential, and seeded random ensembles.  Every generator
returns a matrix whose parity-conjugation residual is exactly zero (the
symmetry is imposed by construction, entry by entry) together with a
permutation parity.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import InvalidGrid
from .symmetry import ParityOperator, make_parity

__all__ = [
    "two_level",
    "lattice_chain",
    "discretized_schrodinger",
    "random_pt",
    "random_unbroken_pt",
]


def two_level(g: float, b: float) -> tuple[np.ndarray, ParityOperator]:
    """Two-site gain/loss model [[ig, b], [b, -ig]] with swap parity.

    Eigenvalues are +/- sqrt(b^2 - g^2): real (unbroken) iff b^2 > g^2, a
    conjugate pair (broken) iff b^2 < g^2, and coalescing at |b| = |g|.
    """
    h = np.array([[1j * g, b], [b, -1j * g]], dtype=np.complex128)
    return h, make_parity("swap-pairs", 2)


def lattice_chain(n: int, gamma: float, t: float) -> tuple[np.ndarray, ParityOperator]:
    """Tight-binding chain with gain and loss on its two end sites.

    Hopping ``t`` on the off-diagonals, on-site +i*gamma on the first site
    and -i*gamma on the last.  The result is symmetric under grid reversal
    combined with conjugation by construction.
    """
    if n < 2:
        raise ValueError(f"chain length must be >= 2, got {n}")
    h = np.zeros((n, n), dtype=np.complex128)
    idx = np.arange(n - 1)
    h[idx, idx + 1] = t
    h[idx + 1, idx] = t
    h[0, 0] = 1j * gamma
    h[n - 1, n - 1] = -1j * gamma
    return h, make_parity("grid-reversal", n)


def discretized_schrodinger(n: int, length: float, epsilon: float) -> tuple[np.ndarray, ParityOperator]:
    """Second-difference kinetic term plus V(x) = x^2 (i x)^epsilon on a
    mirror-symmetric grid over [-length, length].

    The grid is cell-centered (x_j = -length + (j + 1/2) dx, dx = 2 length/n),
    so x_{n-1-j} = -x_j holds exactly and the assembled matrix is exactly
    invariant under grid reversal + conjugation: the potential is evaluated
    on the left half and mirror-conjugated onto the right half.  The power
    uses the principal branch.

    Raises :class:`InvalidGrid` for parameters that cannot produce a valid
    mirror-symmetric discretization (n < 8, a non-positive length, or a
    length whose kinetic term or potential is not finite in float64).
    """
    if n < 8:
        raise InvalidGrid(f"need at least 8 grid points, got {n}")
    if not (np.isfinite(length) and length > 0):
        raise InvalidGrid(f"grid half-width must be positive and finite, got {length}")
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"potential deformation must be >= 0, got {epsilon}")

    h = np.zeros((n, n), dtype=np.complex128)  # first: an impossible n is refused at once
    with np.errstate(all="ignore"):  # refused below, without a warning
        dx = np.float64(2.0 * length / n)
        x = -length + (np.arange(n) + 0.5) * dx
        inv_dx2 = 1.0 / (dx * dx)
        kinetic = 2.0 * inv_dx2
        # left half, then exact mirror-conjugation; center point (odd n) sits
        # at x = 0 where the potential vanishes identically
        v = np.zeros(n, dtype=np.complex128)
        half = n // 2
        v[:half] = x[:half] ** 2 * (1j * x[:half]) ** epsilon
    if not (np.isfinite(kinetic) and np.isfinite(v).all()):
        raise InvalidGrid(
            f"grid half-width {length} at epsilon {epsilon} gives a non-finite kinetic term or potential"
        )
    v[n - half:] = np.conj(v[:half][::-1])

    idx = np.arange(n - 1)
    h[np.arange(n), np.arange(n)] = kinetic + v
    h[idx, idx + 1] = -inv_dx2
    h[idx + 1, idx] = -inv_dx2
    return h, make_parity("grid-reversal", n)


def _reverse_conj(m: np.ndarray) -> np.ndarray:
    """Grid-reversal parity conjugation P conj(M) P, done by indexing so the
    symmetrized result is exact to the bit."""
    return np.conj(m[::-1, ::-1])


def random_pt(n: int, seed: int) -> tuple[np.ndarray, ParityOperator]:
    """Seeded random dense matrix, exactly symmetric under grid reversal +
    conjugation and exactly equal to its transpose.

    The draw is H = (A + P conj(A) P)/2 followed by transpose
    symmetrization; the transpose step keeps the matrix in the class where
    parity-based pseudo-Hermiticity coincides with the reversal-conjugation
    symmetry, which the dual/Gram sign structure relies on.  The spectrum is
    generically a mix of real values and conjugate pairs, so instances may be
    broken; the same seed gives a bit-identical matrix.
    """
    _check_draw(n, seed)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (a + _reverse_conj(a))
    h = 0.5 * (h + h.T)
    return h, make_parity("grid-reversal", n)


def random_unbroken_pt(n: int, seed: int) -> tuple[np.ndarray, ParityOperator]:
    """Seeded random instance with a guaranteed-real spectrum.

    Rejection sampling of raw draws cannot deliver all-real spectra beyond
    small dimensions (the fraction decays to zero around n = 6), so unbroken
    instances are built constructively: a real symmetric core H0 commuting
    with the grid reversal is conjugated by T = expm(i K) where K is real
    antisymmetric with unit 2-norm and anticommutes with the reversal.  T is
    then a reversal-compatible complex-orthogonal map, so the conjugated
    matrix keeps both the reversal-conjugation symmetry and its transpose
    symmetry while the (real) spectrum of H0 is preserved.  T is also
    Hermitian positive definite with eigenvalues in [1/e, e], so the unit
    eigenvectors T v_k (v_k those of H0) have condition at most e^4 ~ 54.6,
    far below ``cond_limit``.  Every draw is therefore unbroken and
    diagonalizable, and none is screened or redrawn: one draw per seed.
    """
    _check_draw(n, seed)
    rng = np.random.default_rng(seed)
    # each draw is rebound, and so freed, before expm makes the peak
    core = rng.standard_normal((n, n))
    core = 0.5 * (core + core.T)
    core = 0.5 * (core + core[::-1, ::-1])

    anti = rng.standard_normal((n, n))
    anti = 0.5 * (anti - anti.T)
    anti = 0.5 * (anti - anti[::-1, ::-1])
    anti = 1j * (anti * (1.0 / np.linalg.norm(anti, 2)))

    t = scipy.linalg.expm(anti)
    h = t @ core @ np.linalg.inv(t)
    h = 0.5 * (h + _reverse_conj(h))
    h = 0.5 * (h + h.T)
    return h, make_parity("grid-reversal", n)


def _check_draw(n: int, seed: int) -> None:
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")

"""Tests for parity construction, symmetry residuals, spectrum
classification, phase fixing, sign extraction, and the charge operator."""

import re
import tracemalloc

import numpy as np
import pytest

import ptgram.io as ptio
import ptgram.linalg as ptlinalg
from ptgram import (
    BiorthonormalSystem,
    InvalidParity,
    NotPTInvariant,
    ParityOperator,
    Signature,
    SignatureUndefined,
    UnpairedComplexEigenvalue,
    biorthonormalize,
    build_charge,
    check_pseudo_hermiticity,
    check_pt_symmetry,
    classify_spectrum,
    discretized_schrodinger,
    extract_signature,
    fix_pt_phase,
    full_verification,
    lattice_chain,
    make_parity,
    pair_left_right,
    random_pt,
    random_unbroken_pt,
    run_pipeline,
    solve_real_form,
    two_level,
)
from test_golden import INPUTS as GOLDEN_INPUTS

SQRT3 = np.sqrt(3.0)


def _random_complex(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _householder(n, seed, real=False):
    """I - 2 u u^dagger: a self-adjoint involution that is not a permutation."""
    u = np.random.default_rng(seed).standard_normal(n) if real else _random_complex(n, seed)
    u /= np.linalg.norm(u)
    return np.eye(n) - 2.0 * np.outer(u, u.conj())


def _permutation_parity(kind, dim, tmp_path):
    """A built-in parity, or for "explicit-loaded" an explicit permutation
    parity read back through the matrix-file loader."""
    if kind != "explicit-loaded":
        return make_parity(kind, dim)
    h, parity = random_pt(dim, seed=3)
    path = tmp_path / "pair.json"
    ptio.write_matrix_pair(path, h, parity)
    loaded = ptio.load_matrix_pair(path)[1]
    assert loaded.kind == "explicit"
    return loaded


class TestMakeParity:
    def test_swap_pairs_dim2(self):
        p = make_parity("swap-pairs", 2)
        assert np.array_equal(p.matrix.real, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_grid_reversal_dim3(self):
        p = make_parity("grid-reversal", 3)
        assert np.array_equal(p.matrix.real, np.fliplr(np.eye(3)))
        assert np.max(np.abs(p.matrix @ p.matrix - np.eye(3))) == 0.0

    def test_swap_pairs_odd_dim_fixes_last_site(self):
        p = make_parity("swap-pairs", 5)
        assert p.matrix[4, 4] == 1.0
        assert np.max(np.abs(p.matrix @ p.matrix - np.eye(5))) == 0.0

    def test_explicit_identity_is_trivial(self):
        p = make_parity("explicit", 2, matrix=np.eye(2))
        assert p.is_trivial
        assert not make_parity("swap-pairs", 2).is_trivial

    def test_explicit_rejects_non_involution(self):
        with pytest.raises(InvalidParity):
            make_parity("explicit", 2, matrix=np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_explicit_rejects_non_hermitian_involution(self):
        # upper-triangular involution, not self-adjoint
        m = np.array([[1.0, 1.0], [0.0, -1.0]])
        assert np.allclose(m @ m, np.eye(2))
        with pytest.raises(InvalidParity):
            make_parity("explicit", 2, matrix=m)

    def test_unknown_kind(self):
        with pytest.raises(InvalidParity):
            make_parity("mirror", 2)


class TestParityApply:
    @pytest.mark.parametrize("kind, dim", [
        ("grid-reversal", 8), ("swap-pairs", 6), ("swap-pairs", 7), ("explicit-loaded", 9),
    ])
    def test_permutation_parity_gives_dense_product_floats(self, kind, dim, tmp_path):
        parity = _permutation_parity(kind, dim, tmp_path)
        assert parity.perm is not None
        p = parity.matrix
        for x in (_random_complex(dim, 1), _random_complex((dim, 5), 2)):
            assert parity.apply(x).tobytes() == (p @ x).tobytes()
        for h in (_random_complex((dim, dim), 7), random_pt(dim, seed=8)[0]):
            assert check_pt_symmetry(h, parity) == np.max(np.abs(p @ h.conj() @ p - h))
            assert check_pseudo_hermiticity(h, parity) == np.max(np.abs(p @ h @ p - h.conj().T))

    def test_householder_takes_dense_branch(self):
        parity = make_parity("explicit", 6, matrix=_householder(6, 4))
        assert parity.perm is None
        assert not parity.is_trivial
        p = parity.matrix
        x = _random_complex((6, 3), 5)
        assert parity.apply(x).tobytes() == (p @ x).tobytes()
        h = _random_complex((6, 6), 10)
        pt = np.max(np.abs(p @ h.conj() @ p - h))
        pseudo = np.max(np.abs(p @ h @ p - h.conj().T))
        assert check_pt_symmetry(h, parity) == pytest.approx(pt, rel=1e-12)
        assert check_pseudo_hermiticity(h, parity) == pytest.approx(pseudo, rel=1e-12)

    def test_signed_permutation_is_not_a_permutation(self):
        parity = make_parity("explicit", 2, matrix=np.array([[0.0, -1.0], [-1.0, 0.0]]))
        assert parity.perm is None
        x = _random_complex(2, 6)
        assert np.array_equal(parity.apply(x), -x[::-1])

    def test_index_map_is_derived_from_the_matrix(self):
        # a directly constructed operator indexes too, with the map read off
        # its own matrix
        p = make_parity("grid-reversal", 5).matrix
        parity = ParityOperator(matrix=p, kind="explicit")
        assert np.array_equal(parity.perm, np.arange(5)[::-1])
        x = _random_complex((5, 2), 11)
        assert parity.apply(x).tobytes() == (p @ x).tobytes()
        # one unit entry per row, but column 1 twice and column 0 never
        repeated = np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex)
        assert ParityOperator(matrix=repeated, kind="explicit").perm is None


def _pt_symmetric(parity, seed):
    """(A + P conj(A) P) / 2 for a random complex A."""
    a = _random_complex((parity.dim, parity.dim), seed)
    p = parity.matrix
    return 0.5 * (a + p @ a.conj() @ p)


class TestRealBasis:
    @pytest.mark.parametrize("parity", [
        make_parity("grid-reversal", 8),
        make_parity("swap-pairs", 7),
        make_parity("explicit", 3, matrix=np.eye(3)),
        make_parity("explicit", 6, matrix=_householder(6, 4, real=True)),
    ], ids=["grid-reversal", "swap-pairs", "identity", "real-householder"])
    def test_unitary_and_makes_pt_symmetric_h_real(self, parity):
        u = parity.real_basis().dense()
        n = parity.dim
        assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-14
        assert np.max(np.abs(parity.matrix @ u.conj() - u)) < 1e-14
        h = _pt_symmetric(parity, 12)
        form = u.conj().T @ h @ u
        assert np.max(np.abs(form.imag)) < 1e-14 * np.max(np.abs(h))

    def test_complex_parity_has_none(self):
        parity = make_parity("explicit", 2, matrix=np.array([[0.0, -1j], [1j, 0.0]]))
        assert parity.real_basis() is None


def _involution_with_fixed_points(n, swaps, seed):
    """A random permutation involution of n sites with ``swaps`` swapped pairs."""
    sites = np.random.default_rng(seed).permutation(n)
    perm = np.arange(n)
    for a, b in sites[:2 * swaps].reshape(-1, 2):
        perm[a], perm[b] = b, a
    return np.eye(n)[perm]


BASIS_PARITIES = {
    "grid-reversal-8": lambda: make_parity("grid-reversal", 8),
    "grid-reversal-9": lambda: make_parity("grid-reversal", 9),
    "swap-pairs-10": lambda: make_parity("swap-pairs", 10),
    "swap-pairs-7": lambda: make_parity("swap-pairs", 7),
    "explicit-fixed-points": lambda: make_parity(
        "explicit", 11, matrix=_involution_with_fixed_points(11, 3, seed=2)),
    "identity": lambda: make_parity("explicit", 4, matrix=np.eye(4)),
    "real-householder": lambda: make_parity("explicit", 6, matrix=_householder(6, 4, real=True)),
}


class TestRealBasisIndexForm:
    """A permutation parity's U is held as index arrays; a dense q keeps
    dense products behind the same methods."""

    @pytest.mark.parametrize("name", sorted(BASIS_PARITIES))
    def test_basis_contract(self, name):
        parity = BASIS_PARITIES[name]()
        basis = parity.real_basis()
        assert basis.indexed == (parity.perm is not None)
        u = basis.dense()
        n = parity.dim
        w, q = np.linalg.eigh(parity.matrix.real)
        assert np.array_equal(u, q * np.where(w > 0, 1.0, 1j))  # eigh's order and signs
        assert np.max(np.abs(parity.matrix @ u.conj() - u)) <= 1e-15
        assert np.max(np.abs(u.conj().T @ u - np.eye(n))) <= 1e-15
        assert np.max(np.abs(u.T @ u - np.diag(basis.eta))) <= 1e-15
        assert set(basis.eta.tolist()) <= {-1.0, 1.0}

    @pytest.mark.parametrize("name", sorted(BASIS_PARITIES))
    def test_products_equal_the_dense_ones(self, name):
        parity = BASIS_PARITIES[name]()
        basis = parity.real_basis()
        u = basis.dense()
        n = parity.dim
        x = np.random.default_rng(5).standard_normal((n, 3))
        m = _random_complex((n, n), 6)
        h = _pt_symmetric(parity, 7)
        for got, want in (
            (basis.apply(x), u @ x),
            (basis.apply(m), u @ m),
            (basis.reflect(x), u.conj().T @ (parity.matrix @ (u @ x))),
            (basis.real_form(h), (u.conj().T @ h @ u).real),
        ):
            assert np.max(np.abs(got - want)) <= 1e-15 * max(1.0, np.max(np.abs(want)))
        assert basis.real_form(h).dtype == np.float64
        assert abs(basis.operator_max_abs(m) - np.max(np.abs(u @ m @ u.conj().T))) <= 1e-15 * n

    @pytest.mark.parametrize("name", sorted(BASIS_PARITIES))
    def test_real_form_is_the_dense_product(self, name):
        parity = BASIS_PARITIES[name]()
        basis = parity.real_basis()
        u = basis.dense()
        h = _pt_symmetric(parity, 7)
        hr = basis.real_form(h)
        assert hr.flags.c_contiguous
        assert np.array_equal(hr, np.ascontiguousarray(((u.conj().T @ h) @ u).real))

    def test_eigh_runs_once_per_operator(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        h, parity = lattice_chain(12, 0.3, 1.0)
        first = parity.real_basis()
        full_verification(h, parity)
        full_verification(h, parity)
        assert parity.real_basis() is first
        assert calls == [(12, 12)]

    def test_index_form_is_kept_in_o_n_memory(self):
        parity = make_parity("grid-reversal", 256)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            basis = parity.real_basis()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert basis.indexed
        assert kept < 256 * 256  # an n x n float64 array would be 8 * 256 * 256 bytes


def _whole_product(op, x):
    """U @ x as one whole-array expression, U dense or (index, coef): the
    reference the row-blocked product must match bit for bit."""
    if isinstance(op, np.ndarray):
        return op @ x
    index, coef = op
    out = x[index[:, 0]] * coef[:, :1]
    part = x[index[:, 1]].astype(np.complex128, copy=False)
    part *= coef[:, 1:]
    out += part
    return out


def _whole_operator_max_abs(basis, m):
    """max |U (U m)^dagger| from whole arrays: the row-blocked reference."""
    half = _whole_product(basis._forward, m)
    return float(np.max(np.abs(_whole_product(basis._forward, np.conjugate(half, out=half).T))))


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


BLOCK_PARITIES = {
    "grid-reversal": lambda n: make_parity("grid-reversal", n),
    "swap-pairs": lambda n: make_parity("swap-pairs", n),  # odd n: a trailing fixed site
    "householder": lambda n: make_parity("explicit", n, matrix=_householder(n, 4, real=True)),
}


class TestRealBasisBlocks:
    """In index form, apply and operator_max_abs run a block of rows at a
    time; whatever the number of blocks, they give the floats of the
    whole-array expressions."""

    @pytest.mark.parametrize("n", [2, 3, 8, 17, 40])
    @pytest.mark.parametrize("kind", sorted(BLOCK_PARITIES))
    def test_any_block_count_gives_the_whole_array_bits(self, kind, n, monkeypatch):
        basis = BLOCK_PARITIES[kind](n).real_basis()
        assert basis.indexed == (kind != "householder" or n == 2)  # two nonzeros a row at n = 2
        rng = np.random.default_rng(n)
        real_m, complex_m = rng.standard_normal((n, n)), _random_complex((n, n), n)
        columns = (rng.standard_normal((n, 3)), _random_complex((n, 5), n + 1), real_m, complex_m)
        # m = U^dagger D U, U m U^dagger = D has its max at (site, site): a block
        # of rows or columns left out moves the max for some site
        u = basis.dense()
        spiked = [u.conj().T @ (real_m + 1e3 * np.diag(np.eye(n)[site])) @ u for site in range(n)]
        # entries per block: a row per block, three rows, two blocks, two of
        # n - 1 rows and one row, and one block
        for block in sorted({1, 3 * n, (n // 2 + 1) * n, (n - 1) * n, n * n}):
            monkeypatch.setattr(ptlinalg, "_BLOCK_ENTRIES", block)
            for x in columns:
                assert _same_bits(basis.apply(x), _whole_product(basis._forward, x)), block
            for m in (real_m, complex_m):
                assert basis.operator_max_abs(m) == _whole_operator_max_abs(basis, m), block
            for site, m in enumerate(spiked):
                assert basis.operator_max_abs(m) == _whole_operator_max_abs(basis, m), (block, site)

    def test_blocks_at_the_real_budget(self):
        n = 512  # 128 rows per block
        basis = make_parity("grid-reversal", n).real_basis()
        for m in (np.random.default_rng(0).standard_normal((n, n)), _random_complex((n, n), 1)):
            assert _same_bits(basis.apply(m), _whole_product(basis._forward, m))
            assert basis.operator_max_abs(m) == _whole_operator_max_abs(basis, m)

    def test_a_nan_in_any_block_gives_nan(self, monkeypatch):
        # np.max propagates NaN; operator_max_abs's running max over blocks must too
        monkeypatch.setattr(ptlinalg, "_BLOCK_ENTRIES", 1)
        basis = make_parity("grid-reversal", 6).real_basis()
        for row in range(6):
            m = np.ones((6, 6))
            m[row, 3] = np.nan
            assert np.isnan(basis.operator_max_abs(m)) and np.isnan(ptlinalg.max_abs(m))


class TestIsTrivial:
    @pytest.mark.parametrize("matrix, trivial", [
        (np.eye(5), True),
        (np.eye(5)[[1, 0, 2, 3, 4]], False),
        (_householder(5, 1, real=True), False),
    ], ids=["identity", "one-swap", "householder"])
    def test_value_and_cached(self, matrix, trivial):
        parity = make_parity("explicit", 5, matrix=matrix)
        assert parity.is_trivial is trivial
        assert parity.__dict__["is_trivial"] is trivial

    def test_permutation_builds_no_dense_temporary(self):
        parity = make_parity("grid-reversal", 256)
        _ = parity.perm
        tracemalloc.start()
        try:
            assert not parity.is_trivial
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 256  # far below one n x n float64 array


class TestSymmetryResiduals:
    def test_real_symmetric_trivial_parity(self):
        h = np.array([[1.0, 2.0], [2.0, 5.0]])
        p = make_parity("explicit", 2, matrix=np.eye(2))
        assert check_pt_symmetry(h, p) == 0.0
        assert check_pseudo_hermiticity(h, p) == 0.0

    def test_two_level_exact(self):
        h, p = two_level(1.0, 2.0)
        assert check_pt_symmetry(h, p) == 0.0
        assert check_pseudo_hermiticity(h, p) == 0.0

    def test_maximally_violating_diagonal(self):
        h = np.array([[1j, 2.0], [2.0, 1j]])
        p = make_parity("swap-pairs", 2)
        assert abs(check_pt_symmetry(h, p) - 2.0) < 1e-15

    def test_nonsymmetric_breaks_pseudo_hermiticity_only(self):
        # H = A + P conj(A) P without transpose symmetrization: invariant
        # under parity + conjugation, but not parity-pseudo-Hermitian
        rng = np.random.default_rng(12)
        n = 6
        p = make_parity("grid-reversal", n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = a + p.matrix @ a.conj() @ p.matrix
        assert check_pt_symmetry(h, p) < 1e-14
        assert check_pseudo_hermiticity(h, p) > 1e-3

    def test_residual_invariant_under_reflection_conjugation(self):
        rng = np.random.default_rng(3)
        n = 5
        p = make_parity("grid-reversal", n)
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        transformed = p.matrix @ h.conj() @ p.matrix
        assert check_pt_symmetry(h, p) == check_pt_symmetry(transformed, p)

    def test_complex_symmetric_residuals_coincide(self):
        rng = np.random.default_rng(8)
        n = 8
        p = make_parity("grid-reversal", n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = a + a.T  # complex symmetric, generally not reflection-symmetric
        assert abs(check_pt_symmetry(h, p) - check_pseudo_hermiticity(h, p)) < 1e-12


class TestClassifySpectrum:
    def test_two_level_unbroken(self):
        c = classify_spectrum([-SQRT3, SQRT3])
        assert c.unbroken and c.real_indices == (0, 1) and c.conjugate_pairs == ()

    def test_two_level_broken(self):
        c = classify_spectrum([1j * SQRT3, -1j * SQRT3])
        assert not c.unbroken
        assert c.conjugate_pairs == ((0, 1),)
        assert c.real_indices == ()

    def test_all_real(self):
        c = classify_spectrum([1.0, 2.0, 3.0])
        assert c.unbroken and len(c.real_indices) == 3

    def test_mixed(self):
        c = classify_spectrum([0.5, 1.0 + 1j, 1.0 - 1j, -2.0])
        assert c.real_indices == (0, 3)
        assert c.conjugate_pairs == ((1, 2),)
        assert not c.unbroken

    def test_unpaired_raises(self):
        with pytest.raises(UnpairedComplexEigenvalue):
            classify_spectrum([1.0 + 1j, 2.0])

    def test_pairs_listed_by_first_index(self):
        # the (2, 3) pair is closer, so the greedy pass selects it first
        c = classify_spectrum([1 + 1j, 1 - 1j + 1e-12, 2 + 1j, 2 - 1j])
        assert c.conjugate_pairs == ((0, 1), (2, 3))

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 32, 64, 128])
    def test_matches_pairwise_loop_on_random_pt(self, n):
        for seed in range(4):
            spectrum = np.linalg.eigvals(random_pt(n, seed=seed)[0])
            assert _outcome(classify_spectrum, spectrum) == _outcome(_classify_loop, spectrum)

    @pytest.mark.parametrize("spectrum", [
        [1 + 1j, 1 + 1j, 1 - 1j, 1 - 1j],  # distance ties broken by index
        [2 - 1j, 0.5, 2 + 1j, 2 + 1j, 2 - 1j, 3.0],
        [1 + 1j, 1 - 1j, 1 + 1j, 4.0],  # unpaired leftover
        [1.0 + 1e-9j, 2.0, 3.0 - 1e-9j],  # within the real tolerance
        [1e-20 + 1e-20j, 1e-20 - 1e-20j, 2e-20],  # modulus far below 1
        [],
    ])
    def test_matches_pairwise_loop_on_edge_spectra(self, spectrum):
        assert _outcome(classify_spectrum, spectrum) == _outcome(_classify_loop, spectrum)

    def test_small_spectrum_keeps_its_pair(self):
        c = classify_spectrum(np.array([1 + 1j, 1 - 1j]) * 1e-20)
        assert c.conjugate_pairs == ((0, 1),) and c.real_indices == () and not c.unbroken

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-20])
    def test_scaled_broken_spectrum_stays_broken(self, scale):
        h, parity = random_pt(8, seed=1)
        reference = full_verification(h, parity)
        report = full_verification(h * scale, parity)
        assert reference.classification.conjugate_pairs == ((0, 1), (2, 3), (6, 7))
        assert report.classification == reference.classification
        assert report.failure is None and report.anomalies == ()

    def test_every_index_appears_once(self):
        rng = np.random.default_rng(44)
        reals = rng.uniform(-3, 3, size=4)
        z = rng.uniform(-1, 1, size=3) + 1j * rng.uniform(0.5, 2, size=3)
        spectrum = np.concatenate([reals, z, np.conj(z)])
        perm = rng.permutation(spectrum.size)
        c = classify_spectrum(spectrum[perm])
        seen = sorted(list(c.real_indices) + [i for pair in c.conjugate_pairs for i in pair])
        assert seen == list(range(spectrum.size))


def _classify_loop(eigenvalues, tol_real=1e-8):
    """Reference: the per-pair loop classify_spectrum replaced."""
    lam = np.asarray(eigenvalues, dtype=np.complex128)
    offset = min(1.0, max((abs(e) for e in lam), default=0.0))
    real_idx = [k for k in range(lam.size) if abs(lam[k].imag) <= tol_real * (offset + abs(lam[k]))]
    complex_idx = [k for k in range(lam.size) if k not in set(real_idx)]
    candidates = []
    for i, a in enumerate(complex_idx):
        for b in complex_idx[i + 1:]:
            d = abs(lam[a] - np.conj(lam[b]))
            if d <= tol_real * (offset + abs(lam[a]) + abs(lam[b])):
                candidates.append((d, a, b))
    candidates.sort()
    taken = set()
    pairs = []
    for _, a, b in candidates:
        if a not in taken and b not in taken:
            pairs.append((a, b))
            taken.update((a, b))
    pairs.sort()
    leftover = [k for k in complex_idx if k not in taken]
    if leftover:
        raise UnpairedComplexEigenvalue(
            f"eigenvalue {lam[leftover[0]]:.6g} has no conjugate partner within tolerance"
        )
    return tuple(real_idx), tuple(pairs)


def _outcome(classify, spectrum):
    try:
        result = classify(spectrum)
    except UnpairedComplexEigenvalue as exc:
        return str(exc)
    if isinstance(result, tuple):
        return result
    return result.real_indices, result.conjugate_pairs


def _closed_form_two_level_system():
    """States/duals of the b=2, g=1 two-level model in the representative
    normalization (2, +/-sqrt(3) - i)/sqrt(8), eigenvalue-sorted."""
    v_minus = np.array([2.0, -SQRT3 - 1j]) / np.sqrt(8.0)
    v_plus = np.array([2.0, SQRT3 - 1j]) / np.sqrt(8.0)
    states = np.column_stack([v_minus, v_plus])
    duals = np.zeros_like(states)
    for k in range(2):
        u = states[:, k].conj()
        duals[:, k] = u / np.conj(np.vdot(u, states[:, k]))
    return BiorthonormalSystem(
        eigenvalues=np.array([-SQRT3, SQRT3], dtype=complex), states=states, duals=duals
    )


class TestFixPtPhase:
    def test_closed_form_half_angle(self):
        sys = _closed_form_two_level_system()
        _, parity = two_level(1.0, 2.0)
        fixed = fix_pt_phase(sys, parity)
        # reflection factors are e^{i 5pi/6} and e^{i pi/6}; states pick up
        # the half-angle phases
        for k, alpha in enumerate([5 * np.pi / 6, np.pi / 6]):
            expected = np.exp(0.5j * alpha) * sys.states[:, k]
            assert np.max(np.abs(fixed.states[:, k] - expected)) < 1e-12
            reflected = parity.matrix @ fixed.states[:, k].conj()
            assert np.max(np.abs(reflected - fixed.states[:, k])) < 1e-12

    def test_real_eigenvectors_trivial_parity_unchanged(self):
        h = np.array([[2.0, 1.0], [1.0, 0.0]])
        parity = make_parity("explicit", 2, matrix=np.eye(2))
        sys = biorthonormalize(pair_left_right(h))
        fixed = fix_pt_phase(sys, parity)
        assert np.max(np.abs(fixed.states - sys.states)) < 1e-12

    def test_parity_odd_real_eigenvector_turns_imaginary(self):
        # reflection factor is -1 for the odd state, so the half-angle
        # convention rotates it onto the imaginary axis
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        parity = make_parity("swap-pairs", 2)
        sys = biorthonormalize(pair_left_right(h))
        fixed = fix_pt_phase(sys, parity)
        odd = fixed.states[:, 0]  # eigenvalue -1
        assert np.max(np.abs(odd.real)) < 1e-12
        reflected = parity.matrix @ odd.conj()
        assert np.max(np.abs(reflected - odd)) < 1e-12

    def test_duality_preserved(self):
        h, parity = random_unbroken_pt(10, seed=77)
        sys = biorthonormalize(pair_left_right(h))
        fixed = fix_pt_phase(sys, parity)
        assert fixed.duality_defect < 1e-10

    def test_broken_phase_raises(self):
        h, parity = two_level(2.0, 1.0)
        sys = biorthonormalize(pair_left_right(h))
        with pytest.raises(NotPTInvariant):
            fix_pt_phase(sys, parity)


def _largest_entries(states):
    """Each column's largest-modulus entry."""
    return states[np.argmax(np.abs(states), axis=0), np.arange(states.shape[1])]


def _sign_rule_inputs():
    cases = [random_unbroken_pt(n, seed=n) for n in range(2, 33)]
    cases += [lattice_chain(16, 0.3, 1.0), discretized_schrodinger(64, 5.0, 0.0)]
    return cases


class TestSignConvention:
    """Every phase-fixed state's largest-modulus entry has Re >= 0."""

    @pytest.mark.parametrize("route", ["real", "complex"])
    def test_every_returned_state_meets_the_rule(self, route):
        cases = _sign_rule_inputs()
        checked = 0
        for h, parity in cases:
            sys = biorthonormalize(solve_real_form(h, parity.real_basis()).in_original_basis()
                                   if route == "real" else pair_left_right(h))
            try:
                fixed = fix_pt_phase(sys, parity)
            except NotPTInvariant:  # the oscillator on the complex route
                continue
            assert np.all(_largest_entries(fixed.states).real >= 0)
            _, rescaled = extract_signature(fixed, parity)
            assert np.all(_largest_entries(rescaled.states).real >= 0)
            checked += 1
        assert checked >= len(cases) - 1

    def test_result_does_not_depend_on_the_incoming_sign(self):
        # a real eigensolver fixes eigenvectors only up to sign
        for h, parity in _sign_rule_inputs()[:12]:
            sys = biorthonormalize(solve_real_form(h, parity.real_basis()).in_original_basis())
            negated = BiorthonormalSystem(
                eigenvalues=sys.eigenvalues, states=-sys.states, duals=-sys.duals
            )
            a, b = fix_pt_phase(sys, parity), fix_pt_phase(negated, parity)
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.duals, b.duals)

    def test_pipeline_states_meet_the_rule(self, small_ensemble):
        for art in small_ensemble:
            assert np.all(_largest_entries(art.system.states).real >= 0)


class TestExtractSignature:
    def test_two_level_signs_and_rescale(self):
        sys = _closed_form_two_level_system()
        _, parity = two_level(1.0, 2.0)
        signature, rescaled = extract_signature(fix_pt_phase(sys, parity), parity)
        assert signature.values.tolist() == [-1, 1]
        assert signature.valid
        assert np.max(signature.residuals) < 1e-12
        p = parity.matrix
        for k in range(2):
            v = rescaled.states[:, k]
            expectation = np.real(np.vdot(v, p @ v))
            assert abs(expectation - signature.values[k]) < 1e-12
            # the relation holds vector-exactly after the common rescale
            assert np.max(np.abs(rescaled.duals[:, k] - signature.values[k] * (p @ v))) < 1e-12
        assert rescaled.duality_defect < 1e-12

    def test_parity_eigenbasis_signs(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        parity = make_parity("swap-pairs", 2)
        sys = fix_pt_phase(biorthonormalize(pair_left_right(h)), parity)
        signature, _ = extract_signature(sys, parity)
        assert signature.values.tolist() == [-1, 1]  # sorted by energy

    def test_random_unbroken_residuals(self):
        h, parity = random_unbroken_pt(16, seed=9)
        sys = fix_pt_phase(biorthonormalize(pair_left_right(h)), parity)
        signature, _ = extract_signature(sys, parity)
        assert signature.valid
        assert np.max(signature.residuals) < 1e-8

    def test_zero_parity_expectation_raises(self):
        # orthonormal reflection-invariant states with vanishing parity
        # expectation (the coalescing directions of the two-level family)
        v1 = np.array([1.0, -1j]) / np.sqrt(2.0)
        v2 = np.array([1.0, 1j]) / np.sqrt(2.0)
        states = np.column_stack([v1, v2])
        sys = BiorthonormalSystem(
            eigenvalues=np.array([0.0, 0.0], dtype=complex),
            states=states,
            duals=states.copy(),
        )
        parity = make_parity("swap-pairs", 2)
        with pytest.raises(SignatureUndefined):
            extract_signature(sys, parity)


def _fix_pt_phase_loop(sys, parity, tol_phase=1e-8):
    """Reference: the per-column phase fixing fix_pt_phase replaced."""
    p = parity.matrix
    states = sys.states.copy()
    duals = sys.duals.copy()
    for k in range(sys.dim):
        v = states[:, k]
        w = p @ v.conj()
        nrm2 = float(np.real(np.vdot(v, v)))
        gamma = np.vdot(v, w) / nrm2
        defect = float(np.linalg.norm(w - gamma * v)) / np.sqrt(nrm2)
        if defect > tol_phase:
            raise NotPTInvariant(
                f"state {k} is not parity-conjugation invariant (defect {defect:.3e})"
            )
        phase = np.exp(0.5j * np.angle(gamma))
        states[:, k] = phase * v
        duals[:, k] = phase * duals[:, k]
    return BiorthonormalSystem(eigenvalues=sys.eigenvalues.copy(), states=states, duals=duals)


def _extract_signature_loop(sys, parity, tol_signature=1e-8, tol_zero=1e-12):
    """Reference: the per-column sign extraction extract_signature replaced."""
    p = parity.matrix
    states = sys.states.copy()
    duals = sys.duals.copy()
    signs = np.zeros(sys.dim, dtype=np.int64)
    residuals = np.zeros(sys.dim)
    for k in range(sys.dim):
        v = states[:, k]
        d = duals[:, k]
        nrm2 = float(np.real(np.vdot(v, v)))
        r = float(np.real(np.vdot(v, p @ v)))
        dual_expectation = float(np.real(np.vdot(d, p @ d)))
        if abs(r) <= tol_zero * nrm2:
            raise SignatureUndefined(f"parity expectation of state {k} is {r:.3e}; sign undefined")
        signs[k] = 1 if dual_expectation > 0 else -1
        beta = abs(r) ** -0.5
        states[:, k] = beta * v
        duals[:, k] = duals[:, k] / beta
        residuals[k] = float(np.linalg.norm(duals[:, k] - signs[k] * (p @ states[:, k])))
    signature = Signature(
        values=signs, residuals=residuals, valid=bool(np.all(residuals <= tol_signature))
    )
    return signature, BiorthonormalSystem(eigenvalues=sys.eigenvalues.copy(), states=states, duals=duals)


def _sign_stage(fix, extract, sys, parity):
    """Run phase fixing then sign extraction; an exception becomes
    (type, first state index named in its message)."""
    try:
        return extract(fix(sys, parity), parity)
    except (NotPTInvariant, SignatureUndefined) as exc:
        return type(exc), int(re.search(r"state (\d+)", str(exc)).group(1))


def _sign_stage_inputs():
    cases = [(f"random_unbroken_pt({n})", *random_unbroken_pt(n, seed=n)) for n in range(2, 65)]
    cases.append(("lattice_chain(16, 0.3, 1)", *lattice_chain(16, 0.3, 1.0)))
    cases.append(("discretized_schrodinger(64, 5, 0)", *discretized_schrodinger(64, 5.0, 0.0)))
    return [(name, biorthonormalize(pair_left_right(h)), parity) for name, h, parity in cases]


class TestSignStageMatchesColumnLoop:
    @pytest.fixture(scope="class")
    def inputs(self):
        return _sign_stage_inputs()

    def test_signs_residuals_and_failures_agree(self, inputs):
        for name, sys, parity in inputs:
            new = _sign_stage(fix_pt_phase, extract_signature, sys, parity)
            ref = _sign_stage(_fix_pt_phase_loop, _extract_signature_loop, sys, parity)
            if isinstance(ref[0], type):
                assert new == ref, name
                continue
            assert not isinstance(new[0], type), f"{name}: {new}"
            (signature, rescaled), (ref_signature, ref_rescaled) = new, ref
            assert np.array_equal(signature.values, ref_signature.values), name
            assert signature.valid == ref_signature.valid, name
            assert np.max(np.abs(signature.residuals - ref_signature.residuals)) <= 1e-12, name
            assert abs(rescaled.duality_defect - ref_rescaled.duality_defect) <= 1e-12, name
            assert abs(rescaled.completeness_defect - ref_rescaled.completeness_defect) <= 1e-12, name
            scale = max(1.0, np.max(np.abs(ref_rescaled.states)), np.max(np.abs(ref_rescaled.duals)))
            assert np.max(np.abs(rescaled.states - ref_rescaled.states)) <= 1e-12 * scale, name
            assert np.max(np.abs(rescaled.duals - ref_rescaled.duals)) <= 1e-12 * scale, name

    def test_oscillator_names_state_60(self, inputs):
        name, sys, parity = inputs[-1]
        assert _sign_stage(fix_pt_phase, extract_signature, sys, parity) == (NotPTInvariant, 60)

    def test_zero_parity_expectation_names_first_state(self):
        # swap-pairs fixes site 2; (1, -i, 0)/sqrt(2) has zero parity expectation
        w = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        v = np.array([1.0, -1j, 0.0]) / np.sqrt(2.0)
        states = np.column_stack([w, v, v])
        sys = BiorthonormalSystem(
            eigenvalues=np.zeros(3, dtype=complex), states=states, duals=states.copy(),
        )
        parity = make_parity("swap-pairs", 3)
        for extract in (extract_signature, _extract_signature_loop):
            with pytest.raises(SignatureUndefined, match="state 1 "):
                extract(sys, parity)


class TestBuildCharge:
    def test_all_plus_gives_identity(self):
        h = np.array([[2.0, 0.3], [0.3, 1.0]])
        parity = make_parity("explicit", 2, matrix=np.eye(2))
        sys = fix_pt_phase(biorthonormalize(pair_left_right(h)), parity)
        signature, rescaled = extract_signature(sys, parity)
        assert signature.values.tolist() == [1, 1]
        charge = build_charge(rescaled, signature)
        assert np.max(np.abs(charge - np.eye(2))) < 1e-12

    def test_two_level_square_and_reflection(self):
        h, parity = two_level(1.0, 2.0)
        sys = fix_pt_phase(biorthonormalize(pair_left_right(h)), parity)
        signature, rescaled = extract_signature(sys, parity)
        charge = build_charge(rescaled, signature)
        assert np.max(np.abs(charge @ charge - np.eye(2))) < 1e-12
        mapped = parity.matrix @ charge @ rescaled.states
        assert np.max(np.abs(mapped - rescaled.duals)) < 1e-12

    def test_hermitian_charge_equals_parity(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        parity = make_parity("swap-pairs", 2)
        sys = fix_pt_phase(biorthonormalize(pair_left_right(h)), parity)
        signature, rescaled = extract_signature(sys, parity)
        charge = build_charge(rescaled, signature)
        assert np.max(np.abs(charge - parity.matrix)) < 1e-12

    def test_commutes_and_generally_non_hermitian(self, small_ensemble):
        saw_nonhermitian = False
        for art in small_ensemble[:10]:
            charge = build_charge(art.system, art.signature)
            h = art.h
            n = h.shape[0]
            assert np.max(np.abs(charge @ charge - np.eye(n))) < 1e-8
            comm = np.max(np.abs(charge @ h - h @ charge))
            assert comm <= 1e-8 * max(1.0, np.max(np.abs(charge)) * np.max(np.abs(h)))
            if np.max(np.abs(charge - charge.conj().T)) > 1e-6:
                saw_nonhermitian = True
        assert saw_nonhermitian

    def test_invalid_signature_rejected(self):
        h, parity = two_level(1.0, 2.0)
        sys = fix_pt_phase(biorthonormalize(pair_left_right(h)), parity)
        signature, rescaled = extract_signature(sys, parity)
        bad = type(signature)(
            values=signature.values, residuals=signature.residuals + 1.0, valid=False
        )
        with pytest.raises(ValueError):
            build_charge(rescaled, bad)


def _plus_minus(values):
    return int(np.sum(values > 0)), int(np.sum(values < 0))


class TestKreinSignCount:
    """On a run with a valid signature the signs count P's inertia: as many
    +1 signs as P has eigenvalues +1, and as many -1 signs as it has -1
    (Gohberg, Lancaster & Rodman, *Indefinite Linear Algebra and
    Applications*, 2005)."""

    @staticmethod
    def _check(art):
        assert art.signature is not None and art.signature.valid
        assert _plus_minus(art.signature.values) == _plus_minus(art.parity.real_basis().eta)

    def test_small_ensemble(self, small_ensemble):
        for art in small_ensemble:
            self._check(art)

    @pytest.mark.parametrize("d", [0.7, 1e-1, 1e-2, 1e-4])
    @pytest.mark.parametrize("n", [16, 17])
    def test_lattice_chain_below_the_exceptional_point(self, n, d):
        # unbroken below gamma_c = t for even n and t sqrt((n + 1) / (n - 1)) for odd n
        gamma_c = 1.0 if n % 2 == 0 else np.sqrt((n + 1) / (n - 1))
        self._check(run_pipeline(*lattice_chain(n, gamma_c - d, 1.0)))

    def test_unbroken_golden_inputs(self):
        runs = {name: run_pipeline(*build()) for name, build in GOLDEN_INPUTS.items()}
        valid = {name for name, art in runs.items()
                 if art.signature is not None and art.signature.valid}
        assert valid == {"two_level_1_2", "lattice_chain_16_0.3", "random_unbroken_pt_12_s5",
                         "schrodinger_64_5_0"}
        for name in valid:
            self._check(runs[name])

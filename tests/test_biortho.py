"""Tests for eigenpair matching and biorthonormalization."""

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.csgraph import connected_components

import ptgram.biortho as biortho
from ptgram import (
    DEFAULT_TOLERANCES,
    AmbiguousPairing,
    BiorthonormalSystem,
    DefectiveMatrix,
    EigenSystem,
    biorthonormalize,
    diagnose_exceptional,
    eigendecompose,
    extract_signature,
    lattice_chain,
    make_parity,
    pair_left_right,
    random_pt,
    random_unbroken_pt,
    run_pipeline,
    solve_real_form,
    two_level,
)

SQRT3 = np.sqrt(3.0)


def _random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def _left_residual(h, sys):
    """Largest column 2-norm of H^dagger lefts - lefts conj(lambda): how far
    each matched left vector is from an adjoint eigenvector for the
    conjugate of its right eigenvalue."""
    h = np.asarray(h, dtype=np.complex128)
    residual = h.conj().T @ sys.lefts - sys.lefts * sys.eigenvalues.conj()
    return float(np.max(np.linalg.norm(residual, axis=0)))


class TestPairLeftRight:
    def test_hermitian_left_equals_right(self):
        h = _random_hermitian(6, 3)
        sys = pair_left_right(h)
        assert _left_residual(h, sys) < 1e-12 * np.linalg.norm(h)
        overlap = np.abs(np.einsum("ij,ij->j", sys.lefts.conj(), sys.rights))
        assert np.min(overlap) > 1 - 1e-10  # same vectors up to phase

    def test_two_level_real_self_conjugate(self):
        h, _ = two_level(1.0, 2.0)
        sys = pair_left_right(h)
        assert np.allclose(sys.eigenvalues, [-SQRT3, SQRT3], atol=1e-12)
        assert _left_residual(h, sys) < 1e-12 * np.linalg.norm(h)

    def test_broken_pairs_carry_conjugate_left_values(self):
        # lambda^2 = 1 - 4: spectrum +/- i sqrt(3); the partner of each state
        # lives at the conjugate point of the adjoint spectrum
        h = np.array([[2j, 1.0], [1.0, -2j]])
        sys = pair_left_right(h)
        assert _left_residual(h, sys) < 1e-12 * np.linalg.norm(h)
        plus = int(np.argmax(sys.eigenvalues.imag))
        assert abs(sys.eigenvalues[plus] - 1j * SQRT3) < 1e-12

    def test_ambiguous_pairing_detected(self, monkeypatch):
        # equidistant, well-separated left candidates cannot be assigned
        e0 = np.array([1.0, 0.0], dtype=complex)
        e1 = np.array([0.0, 1.0], dtype=complex)
        h = np.diag([0.0, 5.0j])

        def fake(m, tol):
            vectors = np.column_stack([e0, e1])
            if m[1, 1] == 5.0j:  # the input itself
                return np.array([0.0, 5.0j]), vectors
            return np.array([-0.5 + 0j, 0.5 + 0j]), vectors  # its adjoint, displaced

        monkeypatch.setattr(biortho, "eigendecompose", fake)
        with pytest.raises(AmbiguousPairing):
            pair_left_right(h)
        # a pairing window wider than the candidates' distance joins them
        pair_left_right(h, tol=DEFAULT_TOLERANCES.override(pair=2.0))


def _spectrum_distance(a, b):
    """Two-way nearest-neighbour distance between two spectra."""
    diff = np.abs(a[:, None] - b[None, :])
    return max(diff.min(axis=0).max(), diff.min(axis=1).max())


class TestRealBasisRoute:
    """``solve_real_form`` solves the real form of an exactly PT-symmetric H."""

    @pytest.mark.parametrize("n", range(2, 33))
    def test_same_eigenvalues_and_signs_as_complex_route(self, n):
        h, parity = random_unbroken_pt(n, seed=n)
        scale = max(1.0, np.linalg.norm(h))
        real = solve_real_form(h, parity.real_basis()).in_original_basis()
        cplx = pair_left_right(h)
        assert np.max(np.abs(real.eigenvalues - cplx.eigenvalues)) <= 1e-10 * scale
        signs = []
        for sys in (real, cplx):
            signature, _ = extract_signature(biorthonormalize(sys), parity)
            assert signature.valid
            signs.append(signature.values)
        assert np.array_equal(*signs)

    @pytest.mark.parametrize("seed", range(6))
    def test_broken_spectrum_matches_complex_route(self, seed):
        h, parity = random_pt(8 + seed, seed=seed)
        real = solve_real_form(h, parity.real_basis()).in_original_basis()
        cplx = pair_left_right(h)
        assert np.max(np.abs(real.eigenvalues.imag)) > 1e-3  # a broken draw
        assert _spectrum_distance(real.eigenvalues, cplx.eigenvalues) <= 1e-10 * np.linalg.norm(h)
        assert _left_residual(h, cplx) <= 1e-10 * np.linalg.norm(h)

    def test_keeps_the_real_form_of_a_real_spectrum(self):
        h, parity = random_unbroken_pt(12, seed=2)
        basis = parity.real_basis()
        kept = solve_real_form(h, basis)
        assert kept.basis is basis
        assert np.array_equal(kept.real_form, basis.real_form(h))
        assert kept.in_original_basis().real_form is None
        # a complex spectrum keeps its real form and vectors too
        broken_h, broken_parity = random_pt(8, seed=0)
        broken_basis = broken_parity.real_basis()
        broken = solve_real_form(broken_h, broken_basis)
        assert broken.basis is broken_basis and broken.pairs is not None
        assert np.array_equal(broken.real_form, broken_basis.real_form(broken_h))

    @pytest.mark.parametrize("kind, k", [("unbroken", n) for n in range(2, 33)]
                             + [("broken", seed) for seed in range(6)])
    def test_one_solve_matched_by_index(self, kind, k):
        h, parity = random_unbroken_pt(k, seed=k) if kind == "unbroken" else random_pt(8 + k, seed=k)
        u = parity.real_basis()
        kept = solve_real_form(h, u)
        dense = u.dense()
        values, rights, lefts = eigendecompose(
            np.ascontiguousarray(((dense.conj().T @ h) @ dense).real), left=True)
        assert np.array_equal(kept.eigenvalues, values)
        # every spectrum keeps real vectors in U's coordinates
        assert kept.basis is u and kept.rights.dtype == kept.lefts.dtype == np.float64
        mapped = kept.in_original_basis()
        assert np.array_equal(mapped.eigenvalues, values)
        if kind == "unbroken":
            assert kept.pairs is None
            assert np.array_equal(kept.rights, rights.real)
            assert np.array_equal(kept.lefts, lefts.real)
            assert np.array_equal(mapped.rights, u.apply(rights))
            assert np.array_equal(mapped.lefts, u.apply(lefts))
        else:
            # a conjugate pair (k, j) holds Re and Im of the vector of values[k], up to
            # the rounding of its normalization; the map back is U x by index
            k, j = kept.pairs.T
            assert np.all(values[k].imag > 0) and np.array_equal(values[j], values[k].conj())
            for held, solved in ((kept.rights, rights), (kept.lefts, lefts)):
                vectors = biortho.complex_columns(held, kept.pairs)
                assert np.max(np.abs(vectors - solved)) <= 4 * np.finfo(float).eps
            assert np.array_equal(mapped.rights, u.apply(biortho.complex_columns(kept.rights, kept.pairs)))
            assert np.array_equal(mapped.lefts, u.apply(biortho.complex_columns(kept.lefts, kept.pairs)))

    def test_condition_is_that_of_the_mapped_vectors(self):
        for h, parity in (random_unbroken_pt(12, seed=3), random_pt(9, seed=2)):
            sys = solve_real_form(h, parity.real_basis())
            mapped = sys.in_original_basis()
            assert mapped.condition == sys.condition
            assert abs(sys.condition - np.linalg.cond(mapped.rights)) <= 1e-12 * sys.condition

    def test_eigenvectors_are_eigenvectors_of_h(self):
        h, parity = lattice_chain(16, 0.3, 1.0)
        sys = solve_real_form(h, parity.real_basis()).in_original_basis()
        scale = np.linalg.norm(h)
        assert sys.rights.dtype == np.complex128
        assert np.max(np.linalg.norm(h @ sys.rights - sys.rights * sys.eigenvalues, axis=0)) <= 1e-10 * scale
        assert _left_residual(h, sys) <= 1e-10 * scale

    def test_basis_shape_checked(self):
        h, parity = lattice_chain(6, 0.3, 1.0)
        with pytest.raises(ValueError, match="basis"):
            solve_real_form(h, np.eye(5))
        with pytest.raises(ValueError, match="basis"):
            solve_real_form(h, lattice_chain(5, 0.3, 1.0)[1].real_basis())


class TestPairHelpers:
    @pytest.mark.parametrize("seed", range(20))
    def test_columns_and_overlaps_are_the_unitary_products(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        count = int(rng.integers(1, n // 2 + 1))
        pairs = rng.permutation(n)[: 2 * count].reshape(count, 2)
        m = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 4)
        # the dense W': (e_k + i e_j) / sqrt(2) at column k, (e_k - i e_j) / sqrt(2) at j
        w = np.eye(n, dtype=np.complex128)
        k, j = pairs.T
        w[k, k] = w[k, j] = np.sqrt(0.5)
        w[j, k], w[j, j] = 1j * np.sqrt(0.5), -1j * np.sqrt(0.5)
        assert np.allclose(w @ w.conj().T, np.eye(n), rtol=0, atol=1e-15)
        bound = 4 * np.finfo(float).eps * np.linalg.norm(m, 2)
        assert np.max(np.abs(biortho.complex_columns(m, pairs) - m @ w)) <= bound
        assert np.max(np.abs(biortho.complex_overlaps(m, pairs) - w.conj().T @ m @ w)) <= bound


class TestBiorthonormalize:
    def test_hermitian_duals_equal_states(self):
        h = _random_hermitian(8, 11)
        sys = biorthonormalize(pair_left_right(h))
        assert sys.duality_defect < 1e-12
        assert np.max(np.abs(sys.duals - sys.states)) < 1e-10

    def test_two_level_defect_and_directions(self):
        h, _ = two_level(1.0, 2.0)
        sys = biorthonormalize(pair_left_right(h))
        assert sys.duality_defect < 1e-12
        # closed-form eigenvector directions (2, +/-sqrt(3) - i), conjugates for duals
        for k, direction in enumerate([np.array([2.0, -SQRT3 - 1j]), np.array([2.0, SQRT3 - 1j])]):
            state = sys.states[:, k]
            cosine = abs(np.vdot(direction, state)) / (np.linalg.norm(direction) * np.linalg.norm(state))
            assert abs(cosine - 1.0) < 1e-12
            dual = sys.duals[:, k]
            cosine_dual = abs(np.vdot(direction.conj(), dual)) / (
                np.linalg.norm(direction) * np.linalg.norm(dual)
            )
            assert abs(cosine_dual - 1.0) < 1e-12

    def test_degenerate_diagonalizable_identity_block(self):
        sys = biorthonormalize(pair_left_right(np.diag([1.0, 1.0])))
        assert sys.duality_defect < 1e-14
        assert np.max(np.abs(np.abs(sys.states) - np.eye(2))) < 1e-14

    def test_cluster_width_is_the_bundles_dup(self):
        # lefts swapped between two eigenvalues 1e-6 apart: as lone pairs the
        # overlaps vanish, as one cluster (dup = 1e-5) the block is a swap
        eye = np.eye(2, dtype=complex)
        sys = EigenSystem(np.array([0.0, 1e-6], dtype=complex), eye, eye[:, ::-1].copy(), 1.0)
        with pytest.raises(DefectiveMatrix):
            biorthonormalize(sys)
        assert biorthonormalize(sys, tol=DEFAULT_TOLERANCES.override(dup=1e-5)).duality_defect == 0.0

    def test_exceptional_point_raises(self):
        h, _ = two_level(1.0, 1.0)
        with pytest.raises(DefectiveMatrix):
            biorthonormalize(pair_left_right(h))

    def test_order_invariance(self):
        h, _ = random_unbroken_pt(12, seed=5)
        sys = pair_left_right(h)
        perm = np.random.default_rng(0).permutation(12)
        shuffled = EigenSystem(
            eigenvalues=sys.eigenvalues[perm],
            rights=sys.rights[:, perm],
            lefts=sys.lefts[:, perm],
            condition=sys.condition,
        )
        a = biorthonormalize(sys)
        b = biorthonormalize(shuffled)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.duals, b.duals)

    def test_reconstruction(self, small_ensemble):
        for art in small_ensemble[:10]:
            sys = art.system
            h = art.h
            rebuilt = (sys.states * sys.eigenvalues) @ sys.duals.conj().T
            rel = np.linalg.norm(rebuilt - h) / np.linalg.norm(h)
            assert rel < 1e-8

    def test_reconstruction_broken_phase(self):
        h, _ = random_pt(6, seed=2)  # generically a broken-spectrum draw
        sys = biorthonormalize(pair_left_right(h))
        rebuilt = (sys.states * sys.eigenvalues) @ sys.duals.conj().T
        assert np.linalg.norm(rebuilt - h) / np.linalg.norm(h) < 1e-8

    def test_ensemble_defects(self, small_ensemble):
        for art in small_ensemble:
            assert art.system.duality_defect <= 1e-8
            assert art.system.completeness_defect <= 1e-8


# eigenvalues 0.7 +/- 1.3i
_ROTATION_BLOCK = np.array([[0.7, 1.3], [-1.3, 0.7]])


def _degenerate_pair_real_form(n, seed):
    """An exactly PT-symmetric H under grid reversal whose real form is
    Q blockdiag(B, B, 1 x 1 randoms) Q^T, Q a random orthogonal: the
    conjugate pair of B twice."""
    rng = np.random.default_rng(seed)
    parity = make_parity("grid-reversal", n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    hr = q @ scipy.linalg.block_diag(_ROTATION_BLOCK, _ROTATION_BLOCK, *rng.standard_normal(n - 4)) @ q.T
    u = parity.real_basis().dense()
    h = u @ hr @ u.conj().T
    p = parity.matrix
    return (h + p @ h.conj() @ p) / 2, parity


def _degenerate_pair(seed):
    """V diag(lambda, lambda, conj(lambda), conj(lambda)) V^-1, V a random
    complex matrix, lambda = 0.7 + 1.3i."""
    v = np.random.default_rng(seed).standard_normal((4, 8)).view(np.complex128)
    lam = 0.7 + 1.3j
    return (v * np.array([lam, lam, lam.conjugate(), lam.conjugate()])) @ np.linalg.inv(v)


class TestDegenerateComplexEigenvalue:
    """When rounding splits the real parts of a complex eigenvalue's two
    copies, its conjugate sorts between them; the copies still form one
    cluster, not two lone eigenvalues with a large duality defect."""

    @pytest.mark.parametrize("n", [4, 8])
    def test_real_route(self, n):
        for seed in range(40):
            h, parity = _degenerate_pair_real_form(n, seed)
            held = solve_real_form(h, parity.real_basis())
            assert held.pairs is not None and len(held.pairs) == 2
            sys = biorthonormalize(held)
            assert sys.duality_defect <= 1e-10 and sys.completeness_defect <= 1e-10, seed

    def test_complex_route(self):
        for seed in range(40):
            sys = biorthonormalize(pair_left_right(_degenerate_pair(seed)))
            assert sys.duality_defect <= 1e-10 and sys.completeness_defect <= 1e-10, seed

    @pytest.mark.parametrize("seed", range(30))
    def test_clusters_are_the_components_of_the_distance_graph(self, seed):
        # conjugate pairs and real values on a coarse grid, each nudged by a
        # few multiples of 4e-9 in Re and Im: chains, crossings and breaks at
        # tol = 1e-8
        rng = np.random.default_rng(seed)
        grid = rng.integers(0, 3, 8) + 1j * rng.integers(0, 2, 8)
        lam = np.concatenate([grid, grid.conj()])
        lam = lam + 4e-9 * (rng.integers(-2, 3, lam.size) + 1j * rng.integers(-2, 3, lam.size))
        lam = lam[np.lexsort((lam.imag, lam.real))]
        # reference: scipy's components of the n x n table, listed by first index
        count, labels = connected_components(np.abs(lam[:, None] - lam) <= 1e-8, directed=False)
        components = sorted(np.flatnonzero(labels == c).tolist() for c in range(count))
        lone, clusters = biortho._clusters(lam, 1e-8)
        assert [cluster.tolist() for cluster in clusters] == [c for c in components if len(c) > 1]
        assert np.flatnonzero(lone).tolist() == [c[0] for c in components if len(c) == 1]


def _defect_formulas(sys):
    """(duality, completeness) defects computed from the arrays."""
    eye = np.eye(sys.states.shape[0], dtype=np.complex128)
    return (
        float(np.max(np.abs(sys.duals.conj().T @ sys.states - eye))),
        float(np.max(np.abs(sys.states @ sys.duals.conj().T - eye))),
    )


def _held_defect_formulas(sys):
    """The same defects of a system held in U's float64 coordinates X, Y:
    max|Y^T X - I| and the max modulus of U (X Y^T - I) U^dagger."""
    eye = np.eye(sys.dim)
    return (
        float(np.max(np.abs(sys.duals.T @ sys.states - eye))),
        sys.basis.operator_max_abs(sys.states @ sys.duals.T - eye),
    )


def _pair_defect_formulas(sys):
    """The same defects of a system whose conjugate pairs are held as real
    columns X, Y in U's coordinates, with the unitary W' = W / sqrt(2) as a
    dense matrix: max|W'^dagger Y^T X W' - I| and, as W' W'^dagger = I, the
    max modulus of U (X Y^T - I) U^dagger.  W' is applied as W followed by
    a scaling by sqrt(1/2), in the order of ``complex_overlaps``."""
    eye = np.eye(sys.dim)
    w = np.eye(sys.dim, dtype=np.complex128)
    k, j = sys.pairs.T
    w[j, k], w[k, j], w[j, j] = 1j, 1.0, -1j
    half = np.ones(sys.dim)
    half[sys.pairs.ravel()] = np.sqrt(0.5)
    columns = ((sys.duals.T @ sys.states) @ w) * half
    return (
        float(np.max(np.abs((w.conj().T @ columns) * half[:, None] - eye))),
        _held_defect_formulas(sys)[1],
    )


class TestDefectsFromArrays:
    def test_built_from_arrays(self):
        rng = np.random.default_rng(31)
        states = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        duals = np.linalg.inv(states).conj().T + 1e-9 * rng.standard_normal((5, 5))
        sys = BiorthonormalSystem(eigenvalues=np.arange(5, dtype=complex), states=states, duals=duals)
        assert (sys.duality_defect, sys.completeness_defect) == _defect_formulas(sys)

    @pytest.mark.parametrize("unbroken", [True, False])
    def test_pipeline_system_reports_its_own_arrays(self, unbroken):
        art = run_pipeline(*(random_unbroken_pt(12, seed=4) if unbroken else random_pt(9, seed=2)))
        assert art.failure is None and art.unbroken == unbroken
        sys = art.system
        # the real route measures on the coordinates it holds in U, a broken
        # spectrum's conjugate pairs as real columns
        held = sys.coordinates
        assert (held.pairs is None) == unbroken
        want = _held_defect_formulas(held) if unbroken else _pair_defect_formulas(held)
        assert (sys.duality_defect, sys.completeness_defect) == want

    def test_input_basis_view_carries_the_held_defects(self):
        h, parity = random_unbroken_pt(12, seed=4)
        held = biorthonormalize(solve_real_form(h, parity.real_basis()))
        assert held.basis is not None and held.states.dtype == np.float64
        view = held.in_original_basis()
        assert type(view) is BiorthonormalSystem and view.basis is None and view.coordinates is held
        assert view.eigenvalues is held.eigenvalues
        assert (view.duality_defect, view.completeness_defect) == _held_defect_formulas(held)
        assert not {"states", "duals"} & set(view.__dict__)
        for name in ("states", "duals"):
            first = getattr(view, name)
            assert first.tobytes() == held.basis.apply(getattr(held, name)).tobytes()
            assert getattr(view, name) is first
        # a system without a basis is already in the input basis
        complex_system = biorthonormalize(pair_left_right(h))
        assert complex_system.in_original_basis() is complex_system


class TestCheckCompleteness:
    def test_hermitian(self):
        sys = biorthonormalize(pair_left_right(_random_hermitian(7, 23)))
        assert sys.completeness_defect < 1e-12 and sys.duality_defect < 1e-12

    def test_two_level(self):
        h, _ = two_level(1.0, 2.0)
        sys = biorthonormalize(pair_left_right(h))
        assert sys.completeness_defect < 1e-10 and sys.duality_defect < 1e-10

    def test_random_diagonalizable(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        sys = biorthonormalize(pair_left_right(m))
        assert sys.completeness_defect < 1e-8 and sys.duality_defect < 1e-8


class TestDiagnoseExceptional:
    def test_identity_perfectly_conditioned(self):
        condition, gap = diagnose_exceptional(pair_left_right(np.eye(3)))
        assert abs(condition - 1.0) < 1e-10
        assert gap < 1e-14

    def test_exceptional_point_condition_blows_up(self):
        h, _ = two_level(1.0, 1.0)
        condition, gap = diagnose_exceptional(pair_left_right(h))
        assert condition > 1e6
        assert gap < 1e-6

    def test_two_level_gap(self):
        h, _ = two_level(1.0, 2.0)
        condition, gap = diagnose_exceptional(pair_left_right(h))
        assert abs(gap - 2 * SQRT3) < 1e-10
        assert condition < 10.0

    def test_chain_is_well_conditioned(self):
        h, _ = lattice_chain(10, 0.3, 1.0)
        condition, _ = diagnose_exceptional(pair_left_right(h))
        assert condition < 1e3


def _biorthonormalize_loop(sys, tol_dup=1e-8):
    """Reference: the per-cluster loop that ``biorthonormalize`` replaced,
    one overlap SVD and one solve per cluster, singletons included.
    Returns the duals in (Re, Im) order."""
    order = np.lexsort((sys.eigenvalues.imag, sys.eigenvalues.real))
    lam = sys.eigenvalues[order]
    states = sys.rights[:, order]
    lefts = sys.lefts[:, order]
    # the components of |lambda_i - lambda_j| <= tol_dup, listed by first index
    count, labels = connected_components(np.abs(lam[:, None] - lam) <= tol_dup, directed=False)
    clusters = sorted(np.flatnonzero(labels == c).tolist() for c in range(count))
    duals = np.zeros_like(lefts)
    for cluster in clusters:
        cols = np.array(cluster)
        block = lefts[:, cols].conj().T @ states[:, cols]
        sv = np.linalg.svd(block, compute_uv=False)
        if sv[-1] <= 1e-12 * max(1.0, float(sv[0])):
            raise DefectiveMatrix(f"eigenvalue cluster near {lam[cols[0]]:.6g} is singular")
        combo = np.linalg.solve(block.conj().T, np.eye(len(cols), dtype=np.complex128))
        duals[:, cols] = lefts[:, cols] @ combo
    return duals


def _loop_inputs():
    cases = []
    for n in range(2, 33, 3):
        h, parity = random_unbroken_pt(n, seed=n)
        cases.append((f"unbroken-{n}", solve_real_form(h, parity.real_basis()).in_original_basis()))
        cases.append((f"unbroken-{n}-complex", pair_left_right(h)))
    for seed in range(4):
        # the real form's complex eigenvectors, mapped back by the dense U
        h, parity = random_pt(8 + seed, seed=seed)
        u = parity.real_basis().dense()
        values, rights, lefts = eigendecompose(np.ascontiguousarray(((u.conj().T @ h) @ u).real), left=True)
        cases.append((f"broken-{seed}", EigenSystem(values, u @ rights, u @ lefts, 1.0)))
    cases.append(("hermitian", pair_left_right(_random_hermitian(9, 4))))
    # a diagonalizable matrix with a triple and a double eigenvalue
    rng = np.random.default_rng(8)
    x = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    d = np.array([1.0, 1.0, 1.0, 2.0, 3.0, 3.0, -1.0])
    cases.append(("degenerate", pair_left_right((x * d) @ np.linalg.inv(x))))
    # a complex eigenvalue twice, its conjugate sorted between the copies
    cases.append(("degenerate-pair", pair_left_right(_degenerate_pair(0))))
    return cases


def _synthetic(values, lefts):
    """Identity right vectors with the given left vectors (columns)."""
    values = np.asarray(values, dtype=np.complex128)
    n = len(values)
    return EigenSystem(
        eigenvalues=values, rights=np.eye(n, dtype=np.complex128),
        lefts=np.asarray(lefts, dtype=np.complex128), condition=1.0,
    )


class TestBiorthonormalizeMatchesClusterLoop:
    def test_duals_agree(self):
        for name, sys in _loop_inputs():
            ref = _biorthonormalize_loop(sys)
            new = biorthonormalize(sys).duals
            scale = np.max(np.abs(ref), axis=0)
            assert np.all(np.max(np.abs(new - ref), axis=0) <= 1e-15 * scale), name

    def test_cluster_bounds_chain_consecutive_eigenvalues(self):
        lam = np.array([0.0, 1e-9, 2e-9, 1.0, 2.0, 2.0 + 5e-9j, 3.0])
        # the partition {0, 1, 2}, {3}, {4, 5}, {6}
        lone, clusters = biortho._clusters(lam, 1e-8)
        assert np.flatnonzero(lone).tolist() == [3, 6]
        assert [cluster.tolist() for cluster in clusters] == [[0, 1, 2], [4, 5]]

    @pytest.mark.parametrize("first", ["singleton", "cluster"])
    def test_first_singular_cluster_is_named(self, first):
        e = np.eye(4)
        if first == "singleton":
            # lone 1 has a left vector orthogonal to its state; pair at 3 is rank one
            values = [1.0, 3.0, 3.0, 5.0]
            lefts = np.column_stack([e[3], e[1], e[1], e[3]])
        else:
            values = [1.0, 1.0, 3.0, 5.0]
            lefts = np.column_stack([e[0], e[0], e[3], e[3]])
        perm = [3, 1, 0, 2]  # input order must not matter
        sys = _synthetic(np.asarray(values)[perm], lefts[:, perm])
        with pytest.raises(DefectiveMatrix, match=r"near 1\+0j is singular"):
            biorthonormalize(sys)
        with pytest.raises(DefectiveMatrix, match=r"near 1\+0j is singular"):
            _biorthonormalize_loop(sys)

"""Tests for Gram assembly, the sign-flip inversion identity, and the
inversion-free dual route against a solver reference."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import ptgram.gram as gram
import ptgram.linalg as linalg
import ptgram.verify as verify
from ptgram import (
    BiorthonormalSystem,
    NotPositiveDefinite,
    Signature,
    SingularMatrix,
    Tolerances,
    biorthonormalize,
    check_indefinite_norms,
    check_unconventional_completeness,
    dual_gram,
    dual_via_signature,
    extract_signature,
    gram_inverse,
    gram_matrix,
    inverse_via_signature,
    lattice_chain,
    make_parity,
    pair_left_right,
    random_pt,
    random_unbroken_pt,
    run_pipeline,
    solve,
    two_level,
    verify_signature_theorem,
)
import test_symmetry
from test_symmetry import lattice_gamma_c

SQRT3 = np.sqrt(3.0)
PINS = Path(__file__).resolve().parents[1] / "perfbench" / "verdicts.json"
G_CLOSED = np.array([[2 / SQRT3, 1 / SQRT3], [1 / SQRT3, 2 / SQRT3]])
G_INV_CLOSED = np.array([[2 / SQRT3, -1 / SQRT3], [-1 / SQRT3, 2 / SQRT3]])


@pytest.fixture(scope="module")
def two_level_art():
    h, parity = two_level(1.0, 2.0)
    art = run_pipeline(h, parity)
    assert art.failure is None
    return art


def _plus_signature(n):
    return Signature(values=np.ones(n, dtype=np.int64), residuals=np.zeros(n), valid=True)


def _solved_inverse(g):
    return solve(g, np.eye(g.shape[0], dtype=complex))


class TestGramMatrix:
    def test_hermitian_gives_identity(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        h = 0.5 * (a + a.conj().T)
        g, _ = gram_matrix(biorthonormalize(pair_left_right(h)))
        assert np.max(np.abs(g - np.eye(9))) < 1e-12

    def test_two_level_closed_form(self, two_level_art):
        assert np.max(np.abs(two_level_art.gram - G_CLOSED)) < 1e-10

    def test_random_hermitian_positive_definite(self, small_ensemble):
        for art in small_ensemble[:10]:
            assert np.linalg.eigvalsh(art.gram)[0] > 0

    @pytest.mark.parametrize("make, dtype", [
        (lambda: random_unbroken_pt(64, seed=3), np.float64),  # in U's coordinates
        (lambda: random_pt(40, seed=1), np.float64),  # a broken spectrum's real pair columns
        # not exactly invariant under its parity: the complex route
        (lambda: (random_unbroken_pt(33, seed=2)[0] + 1e-15 * np.diag(np.arange(33)),
                  make_parity("explicit", 33, np.arange(33)[::-1].copy())), np.complex128),
    ], ids=["real", "pair-columns", "complex"])
    def test_bitwise_hermitian_with_the_product_lower_triangle(self, make, dtype):
        system = run_pipeline(*make()).system
        held = getattr(system, "coordinates", system)
        g, factor = gram_matrix(held)
        product = linalg.adjoint(held.states) @ held.states
        lower = np.tril_indices(g.shape[0], -1)
        assert g.dtype == product.dtype == dtype and np.array_equal(g[lower], product[lower])
        assert np.array_equal(np.diagonal(g), np.diagonal(product).real)
        assert np.array_equal(g, g.conj().T)
        assert factor.flags.f_contiguous

    def test_dependent_states_rejected(self):
        v = np.array([1.0, 1j, 0.0]) / np.sqrt(2)
        states = np.column_stack([v, [1.0, 0.0, 0.0], v])  # the third state repeats the first
        sys = BiorthonormalSystem(eigenvalues=np.zeros(3, dtype=complex), states=states,
                                  duals=states.copy())
        with pytest.raises(NotPositiveDefinite, match="breaks down at column 2$"):
            gram_matrix(sys)


class TestGramInverse:
    """G^-1 from gram_matrix's Cholesky factor holds solve's residual
    contract, and agrees with the LU solve of G X = I to rounding."""

    def test_matches_the_lu_solve_on_the_ensemble(self, theorem_ensemble):
        # the 2-norm gap relative to ||G^-1||_2, in units of eps kappa_2(G): 0.46 at worst
        eps, worst = np.finfo(float).eps, 0.0
        for art in theorem_ensemble:
            g, factor = gram_matrix(art.system.coordinates)
            assert np.array_equal(g, art.gram)
            inverse = gram_inverse(g, factor)
            assert inverse.flags.c_contiguous and np.array_equal(inverse, inverse.T)
            assert linalg.checked_solution(g, inverse, np.eye(len(g))) is inverse
            solved = solve(g, np.eye(g.shape[0]))
            lam = np.linalg.eigvalsh(g)
            gap = np.linalg.norm(inverse - solved, 2) * lam[0]
            worst = max(worst, gap / (eps * lam[-1] / lam[0]))
        assert worst <= 1.0

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_contract_violation_raises(self, dtype, two_level_art):
        g = np.ascontiguousarray(two_level_art.gram, dtype=dtype)
        factor = np.asfortranarray(scipy.linalg.cholesky(g, lower=True))  # laid out as potrf's
        inverse = gram_inverse(g, factor.copy(order="F"))
        assert inverse.dtype == dtype and np.max(np.abs(inverse - G_INV_CLOSED)) < 1e-12
        with pytest.raises(SingularMatrix, match="solve residual"):
            gram_inverse(g, factor, Tolerances(solve=1e-300))


class TestDualGram:
    def test_hermitian_identity(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = 0.5 * (a + a.conj().T)
        sys = biorthonormalize(pair_left_right(h))
        assert np.max(np.abs(dual_gram(sys) - np.eye(6))) < 1e-12

    def test_two_level_closed_form(self, two_level_art):
        assert np.max(np.abs(dual_gram(two_level_art.system) - G_INV_CLOSED)) < 1e-10

    def test_matches_solver_inverse(self, small_ensemble):
        for art in small_ensemble:
            g = art.gram
            inverse = solve(g, np.eye(g.shape[0], dtype=complex))
            assert np.max(np.abs(dual_gram(art.system) - inverse)) < 1e-8


class TestInverseViaSignature:
    def test_identity_all_plus(self):
        out = inverse_via_signature(np.eye(3), _plus_signature(3))
        assert np.array_equal(out, np.eye(3))

    def test_two_level_analytic(self):
        sig = Signature(values=np.array([-1, 1]), residuals=np.zeros(2), valid=True)
        out = inverse_via_signature(G_CLOSED, sig)
        assert np.max(np.abs(out - G_INV_CLOSED)) < 1e-14

    def test_random_flip_inverts(self, small_ensemble):
        for art in small_ensemble:
            g = art.gram
            flipped = inverse_via_signature(g, art.signature)
            assert np.max(np.abs(flipped @ g - np.eye(g.shape[0]))) < 1e-8


class TestVerifySignatureTheorem:
    def test_identity(self):
        g = np.eye(4)
        check = verify_signature_theorem(g, inverse_via_signature(g, _plus_signature(4)),
                                         _solved_inverse(g))
        assert check.residual == 0.0
        assert check.diagonal_gap < 1e-14

    def test_two_level(self, two_level_art):
        g = two_level_art.gram
        check = verify_signature_theorem(g, inverse_via_signature(g, two_level_art.signature),
                                         _solved_inverse(g))
        assert check.residual < 1e-12
        assert check.diagonal_gap < 1e-12
        # both diagonals sit at 2/sqrt(3)
        assert np.max(np.abs(np.diag(two_level_art.gram) - 2 / SQRT3)) < 1e-10

    def test_random_ensemble(self, small_ensemble):
        for art in small_ensemble:
            g = art.gram
            check = verify_signature_theorem(g, inverse_via_signature(g, art.signature),
                                             _solved_inverse(g))
            assert check.residual < 1e-8
            assert check.diagonal_gap < 1e-10

    def test_residual_grows_toward_coalescence(self):
        # the identity degrades as the two-level couplings approach |b| = |g|
        residuals = []
        for b in (2.0, 1.0001):
            h, parity = two_level(1.0, b)
            art = run_pipeline(h, parity)
            assert art.failure is None
            residuals.append(art.theorem.residual)
        assert residuals[-1] > residuals[0]


class TestGramReciprocity:
    """With a valid signature G^-1 = S G S, orthogonally similar to G, so G's
    spectrum is closed under lambda -> 1/lambda: lambda_min lambda_max = 1,
    to within a rounding error that grows with kappa_2(G)."""

    @staticmethod
    def _excess(art):
        """|lambda_min lambda_max - 1| in units of eps kappa_2(G)."""
        lam = np.linalg.eigvalsh(art.gram)
        return abs(lam[0] * lam[-1] - 1.0) / (np.finfo(float).eps * lam[-1] / lam[0])

    def test_theorem_ensemble(self, theorem_ensemble):
        assert max(self._excess(art) for art in theorem_ensemble) <= 32.0

    @pytest.mark.parametrize("n, scored", [(16, 8), (17, 5)])
    def test_lattice_chain_toward_the_exceptional_point(self, n, scored):
        # d = 1e-1 .. 1e-8 below the exceptional point; at n = 17 the runs
        # from d = 1e-6 on stop in the Gram stage with an invalid signature
        valid = []
        for d in 10.0 ** -np.arange(1, 9):
            art = run_pipeline(*lattice_chain(n, lattice_gamma_c(n) - d, 1.0))
            if art.gram is not None and art.signature is not None and art.signature.valid:
                valid.append(art)
        assert len(valid) >= scored
        assert max(self._excess(art) for art in valid) <= 32.0


class TestPinnedPool:
    """The Krein sign count (``TestKreinSignCount``) and Gram reciprocity
    (``TestGramReciprocity``) on the benchmark's pinned pool:
    random_unbroken_pt(dim, k) for dim 2..64 and k 0..15, whose verdicts
    perfbench/verdicts.json pins, on every run with a valid signature.

    Each run also holds the generator's guarantee, which no draw is screened
    for: no anomaly, an unbroken spectrum, and eigenvectors of condition at
    most e^4 (the largest on the pool is ~8.6, at 9:0)."""

    def test_krein_count_and_gram_reciprocity(self):
        pinned = json.loads(PINS.read_text(encoding="utf-8"))["instances"]
        pool = [(dim, k) for dim in range(2, 65) for k in range(16)]
        assert {f"{dim}:{k}" for dim, k in pool} <= set(pinned)
        scored, worst = 0, 0.0
        for dim, k in pool:
            art = run_pipeline(*random_unbroken_pt(dim, seed=k))
            assert art.anomalies == () and art.unbroken, f"{dim}:{k}"
            assert art.eigvec_condition <= math.e**4, f"{dim}:{k}"
            if art.signature is not None and art.signature.valid:
                test_symmetry.TestKreinSignCount._check(art)
                worst = max(worst, TestGramReciprocity._excess(art))
                scored += 1
        assert scored == len(pool)  # every pinned run has a valid signature
        assert worst <= 32.0


class TestOneInverse:
    """S G S is formed once per unbroken run, by inverse_via_signature; the
    theorem check and the dual route take it as an array."""

    @staticmethod
    def _count_calls(monkeypatch):
        calls = []
        original = gram.inverse_via_signature

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (gram, verify):
            monkeypatch.setattr(module, "inverse_via_signature", counted)
        return calls

    def test_formed_once_per_unbroken_run(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        art = run_pipeline(*two_level(1.0, 2.0))
        assert art.unbroken and art.theorem is not None
        assert len(calls) == 1

    def test_never_formed_on_a_broken_run(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        art = run_pipeline(*two_level(2.0, 1.0))
        assert not art.unbroken
        assert calls == []

    def test_readers_reject_a_mismatched_shape(self, two_level_art):
        g = two_level_art.gram
        flipped = inverse_via_signature(g, two_level_art.signature)
        with pytest.raises(ValueError):
            verify_signature_theorem(g, flipped[:1], _solved_inverse(g))
        with pytest.raises(ValueError):
            verify_signature_theorem(g, flipped, _solved_inverse(g)[:1])
        with pytest.raises(ValueError):
            dual_via_signature(two_level_art.system.states, np.eye(3))


class TestDualRoutes:
    def test_orthonormal_states_identity_gram(self):
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        g = q.conj().T @ q
        duals = q @ _solved_inverse(g)
        assert np.max(np.abs(duals - q)) < 1e-10
        duals_sig = dual_via_signature(q, inverse_via_signature(np.eye(5), _plus_signature(5)))
        assert np.max(np.abs(duals_sig - q)) == 0.0

    def test_two_level_reproduces_adjoint_eigenvectors(self, two_level_art):
        sys = two_level_art.system
        duals = sys.states @ _solved_inverse(two_level_art.gram)
        assert np.max(np.linalg.norm(duals - sys.duals, axis=0)) < 1e-10
        duals_sig = dual_via_signature(
            sys.states, inverse_via_signature(two_level_art.gram, two_level_art.signature))
        assert np.max(np.linalg.norm(duals_sig - duals, axis=0)) < 1e-12

    def test_inversion_route_duality(self, small_ensemble):
        for art in small_ensemble[:10]:
            sys = art.system
            duals = sys.states @ _solved_inverse(art.gram)
            defect = np.max(np.abs(duals.conj().T @ sys.states - np.eye(sys.dim)))
            assert defect < 1e-8

    def test_routes_agree_on_ensemble(self, small_ensemble):
        for art in small_ensemble:
            assert art.route_discrepancy < 1e-8


class TestSignedRelations:
    def test_two_level_completeness_and_norms(self, two_level_art):
        _, parity = two_level(1.0, 2.0)
        sys, sig = two_level_art.system, two_level_art.signature
        assert check_unconventional_completeness(sys, sig, parity) < 1e-12
        assert check_indefinite_norms(sys, sig, parity) < 1e-12
        bilinear = sys.states.T @ sys.states
        assert np.max(np.abs(bilinear - np.diag([-1.0, 1.0]))) < 1e-12

    def test_hermitian_parity_eigenbasis(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        parity = make_parity("swap-pairs", 2)
        sys = biorthonormalize(pair_left_right(h))
        sig, rescaled = extract_signature(sys, parity)
        assert check_unconventional_completeness(rescaled, sig, parity) < 1e-12

    def test_trivial_parity_identity_norms(self):
        h = np.diag([1.0, 2.0, 3.0])
        parity = make_parity("explicit", 3, matrix=np.eye(3))
        sys = biorthonormalize(pair_left_right(h))
        sig, rescaled = extract_signature(sys, parity)
        assert sig.values.tolist() == [1, 1, 1]
        assert np.max(np.abs(rescaled.states.T @ rescaled.states - np.eye(3))) < 1e-12
        assert check_indefinite_norms(rescaled, sig, parity) < 1e-12

    def test_random_ensemble(self, small_ensemble):
        for art in small_ensemble:
            assert art.signed_completeness < 1e-8
            assert art.indefinite_norms < 1e-8

    def test_invalid_signature_rejected(self, two_level_art):
        _, parity = two_level(1.0, 2.0)
        bad = Signature(values=np.array([-1, 1]), residuals=np.ones(2), valid=False)
        with pytest.raises(ValueError):
            check_indefinite_norms(two_level_art.system, bad, parity)


def _unchanged_after(call, *arrays):
    """Run ``call``; assert it changed none of ``arrays`` and return its result."""
    before = [a.copy() for a in arrays]
    result = call()
    for a, b in zip(arrays, before):
        assert np.array_equal(a, b)
    return result


class TestNoCopies:
    """The helpers take float64 and complex128 arrays as they are: a real
    Gram matrix stays real, and inputs are neither changed nor aliased."""

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_gram_helpers_keep_the_dtype(self, dtype, two_level_art):
        states = np.ascontiguousarray(two_level_art.system.states.real, dtype=dtype)
        g = np.ascontiguousarray(two_level_art.gram.real, dtype=dtype)
        sig = two_level_art.signature
        flipped = _unchanged_after(lambda: inverse_via_signature(g, sig), g)
        assert flipped.dtype == dtype and not np.shares_memory(flipped, g)
        inverse = solve(g, np.eye(2, dtype=dtype))
        assert inverse.dtype == dtype
        _unchanged_after(lambda: verify_signature_theorem(g, flipped, inverse), g, flipped, inverse)
        duals = _unchanged_after(lambda: dual_via_signature(states, flipped), states, flipped)
        assert duals.dtype == dtype
        assert not np.shares_memory(duals, states) and not np.shares_memory(duals, flipped)

    def test_validation_makes_no_copy(self):
        g = np.ascontiguousarray(G_CLOSED)
        assert linalg.as_matrix(g) is g
        complex_g = g.astype(complex)
        assert linalg.as_complex_matrix(complex_g) is complex_g
        assert linalg.as_complex_matrix(complex_g, copy=True) is not complex_g
        assert linalg.as_matrix(g.astype(np.float32)).dtype == np.complex128
        assert linalg.as_matrix(np.asfortranarray(g)).flags.c_contiguous

    def test_make_parity_keeps_its_own_matrix(self):
        p = np.eye(3, dtype=complex)[[1, 0, 2]]
        parity = make_parity("explicit", 3, matrix=p)
        assert not np.shares_memory(parity.matrix, p)
        p[0, 0] = 5.0  # the caller's later writes do not reach the operator
        assert parity.matrix[0, 0] == 0.0

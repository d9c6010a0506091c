"""Tests for Gram assembly, the sign-flip inversion identity, and the
inversion-free dual route against a solver reference."""

import json
from pathlib import Path

import numpy as np
import pytest

import ptgram.gram as gram
import ptgram.linalg as linalg
import ptgram.verify as verify
from ptgram import (
    BiorthonormalSystem,
    GramPair,
    NotPositiveDefinite,
    Signature,
    biorthonormalize,
    check_indefinite_norms,
    check_unconventional_completeness,
    dual_gram,
    dual_via_signature,
    extract_signature,
    gram_matrix,
    inverse_via_signature,
    lattice_chain,
    make_parity,
    pair_left_right,
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


def _flipped_pair(g, sig):
    return GramPair(g, inverse_via_signature(g, sig))


class TestGramMatrix:
    def test_hermitian_gives_identity(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        h = 0.5 * (a + a.conj().T)
        pair = gram_matrix(biorthonormalize(pair_left_right(h)))
        assert np.max(np.abs(pair.gram - np.eye(9))) < 1e-12

    def test_two_level_closed_form(self, two_level_art):
        assert np.max(np.abs(two_level_art.gram_pair.gram - G_CLOSED)) < 1e-10

    def test_random_hermitian_positive_definite(self, small_ensemble):
        for art in small_ensemble[:10]:
            g = art.gram_pair.gram
            assert np.max(np.abs(g - g.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(g)[0] > 0

    def test_dependent_states_rejected(self):
        v = np.array([1.0, 1j]) / np.sqrt(2)
        states = np.column_stack([v, v])
        sys = BiorthonormalSystem(
            eigenvalues=np.zeros(2, dtype=complex),
            states=states,
            duals=states.copy(),
        )
        with pytest.raises(NotPositiveDefinite):
            gram_matrix(sys)


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
            g = art.gram_pair.gram
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
            g = art.gram_pair.gram
            flipped = inverse_via_signature(g, art.signature)
            assert np.max(np.abs(flipped @ g - np.eye(g.shape[0]))) < 1e-8


class TestVerifySignatureTheorem:
    def test_identity(self):
        check = verify_signature_theorem(_flipped_pair(np.eye(4), _plus_signature(4)),
                                         _solved_inverse(np.eye(4)))
        assert check.residual == 0.0
        assert check.diagonal_gap < 1e-14

    def test_two_level(self, two_level_art):
        g = two_level_art.gram_pair.gram
        check = verify_signature_theorem(_flipped_pair(g, two_level_art.signature), _solved_inverse(g))
        assert check.residual < 1e-12
        assert check.diagonal_gap < 1e-12
        # both diagonals sit at 2/sqrt(3)
        assert np.max(np.abs(np.diag(two_level_art.gram_pair.gram) - 2 / SQRT3)) < 1e-10

    def test_random_ensemble(self, small_ensemble):
        for art in small_ensemble:
            g = art.gram_pair.gram
            check = verify_signature_theorem(_flipped_pair(g, art.signature), _solved_inverse(g))
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
        lam = np.linalg.eigvalsh(art.gram_pair.gram)
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
            if art.gram_pair is not None and art.signature is not None and art.signature.valid:
                valid.append(art)
        assert len(valid) >= scored
        assert max(self._excess(art) for art in valid) <= 32.0


class TestPinnedPool:
    """The Krein sign count (``TestKreinSignCount``) and Gram reciprocity
    (``TestGramReciprocity``) on the benchmark's pinned pool:
    random_unbroken_pt(dim, k) for dim 2..64 and k 0..15, whose verdicts
    perfbench/verdicts.json pins, on every run with a valid signature."""

    def test_krein_count_and_gram_reciprocity(self):
        pinned = json.loads(PINS.read_text(encoding="utf-8"))["instances"]
        pool = [(dim, k) for dim in range(2, 65) for k in range(16)]
        assert {f"{dim}:{k}" for dim, k in pool} <= set(pinned)
        scored, worst = 0, 0.0
        for dim, k in pool:
            art = run_pipeline(*random_unbroken_pt(dim, seed=k))
            if art.signature is not None and art.signature.valid:
                test_symmetry.TestKreinSignCount._check(art)
                worst = max(worst, TestGramReciprocity._excess(art))
                scored += 1
        assert scored == len(pool)  # every pinned run has a valid signature
        assert worst <= 32.0


class TestOneInverse:
    """S G S is formed once per unbroken run, by inverse_via_signature, and
    the theorem check and the dual route read it from the run's GramPair."""

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

    def test_inverse_is_the_sign_flip_to_the_bit(self, two_level_art, small_ensemble):
        for art in (two_level_art, *small_ensemble):
            expected = inverse_via_signature(art.gram_pair.gram, art.signature)
            assert art.gram_pair.inverse.dtype == expected.dtype
            assert np.array_equal(art.gram_pair.inverse, expected)

    def test_readers_need_the_inverse(self, two_level_art):
        g = two_level_art.gram_pair.gram
        bare = GramPair(g)
        with pytest.raises(ValueError):
            verify_signature_theorem(bare, _solved_inverse(g))
        with pytest.raises(ValueError):
            dual_via_signature(two_level_art.system.states, bare)


class TestDualRoutes:
    def test_orthonormal_states_identity_gram(self):
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        g = q.conj().T @ q
        duals = q @ _solved_inverse(g)
        assert np.max(np.abs(duals - q)) < 1e-10
        duals_sig = dual_via_signature(q, _flipped_pair(np.eye(5), _plus_signature(5)))
        assert np.max(np.abs(duals_sig - q)) == 0.0

    def test_two_level_reproduces_adjoint_eigenvectors(self, two_level_art):
        sys = two_level_art.system
        duals = sys.states @ _solved_inverse(two_level_art.gram_pair.gram)
        assert np.max(np.linalg.norm(duals - sys.duals, axis=0)) < 1e-10
        duals_sig = dual_via_signature(sys.states, two_level_art.gram_pair)
        assert np.max(np.linalg.norm(duals_sig - duals, axis=0)) < 1e-12

    def test_inversion_route_duality(self, small_ensemble):
        for art in small_ensemble[:10]:
            sys = art.system
            duals = sys.states @ _solved_inverse(art.gram_pair.gram)
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
        g = np.ascontiguousarray(two_level_art.gram_pair.gram.real, dtype=dtype)
        sig = two_level_art.signature
        flipped = _unchanged_after(lambda: inverse_via_signature(g, sig), g)
        assert flipped.dtype == dtype and not np.shares_memory(flipped, g)
        pair = GramPair(g, flipped)
        inverse = solve(g, np.eye(2, dtype=dtype))
        assert inverse.dtype == dtype
        _unchanged_after(lambda: verify_signature_theorem(pair, inverse), g, flipped, inverse)
        duals = _unchanged_after(lambda: dual_via_signature(states, pair), states, g, flipped)
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

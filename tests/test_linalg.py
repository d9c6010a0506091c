"""Tests for the dense linear algebra substrate."""

import numpy as np
import pytest

from ptgram import NonConvergence, SingularMatrix, eigendecompose, norms, solve

SQRT3 = np.sqrt(3.0)
INV_SQRT3 = 1.0 / SQRT3


class TestEigendecompose:
    def test_identity(self):
        pairs = eigendecompose(np.eye(3))
        assert len(pairs) == 3
        assert np.allclose([lam for lam, _ in pairs], [1.0, 1.0, 1.0], atol=1e-14)

    def test_diagonal_sorted_by_real_then_imag(self):
        pairs = eigendecompose(np.diag([1.0, 2.0j, -3.0]))
        values = [lam for lam, _ in pairs]
        # (Re, Im) ascending puts 2i (Re = 0) before 1
        assert np.allclose(values, [-3.0, 2.0j, 1.0], atol=1e-14)
        expected_axes = [2, 1, 0]
        for (_, vec), axis in zip(pairs, expected_axes):
            assert abs(abs(vec[axis]) - 1.0) < 1e-14

    def test_two_level_closed_form(self):
        # characteristic polynomial lambda^2 = b^2 - g^2 with b = 2, g = 1
        h = np.array([[1j, 2.0], [2.0, -1j]])
        values = [lam for lam, _ in eigendecompose(h)]
        assert abs(values[0] - (-SQRT3)) < 1e-12
        assert abs(values[1] - SQRT3) < 1e-12

    def test_unit_norm_and_residual_contract(self):
        rng = np.random.default_rng(91)
        for _ in range(1000):
            n = int(rng.integers(1, 33))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            pairs = eigendecompose(m)
            assert len(pairs) == n
            scale = np.linalg.norm(m)
            for lam, vec in pairs:
                assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
                assert np.linalg.norm(m @ vec - lam * vec) <= 1e-10 * scale

    def test_hermitian_real_spectrum_and_orthogonality(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 17))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            lam = np.sort(rng.uniform(-5, 5, size=n))
            lam += 0.2 * np.arange(n)  # enforce non-degeneracy
            m = (q * lam) @ q.conj().T
            m = 0.5 * (m + m.conj().T)
            pairs = eigendecompose(m)
            values = np.array([p[0] for p in pairs])
            vectors = np.column_stack([p[1] for p in pairs])
            assert np.max(np.abs(values.imag)) < 1e-10 * np.linalg.norm(m)
            defect = np.max(np.abs(vectors.conj().T @ vectors - np.eye(n)))
            assert defect < 10 * 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigendecompose(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            eigendecompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_impossible_tolerance_raises(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        with pytest.raises(NonConvergence):
            eigendecompose(m, tol_eig=1e-18)


class TestRealInput:
    """A float64 input is solved in real arithmetic under the same contract."""

    def test_complex128_output_ordering_and_residual_contract(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 33))
            m = rng.standard_normal((n, n))
            pairs = eigendecompose(m)
            values = np.array([lam for lam, _ in pairs])
            vectors = np.column_stack([vec for _, vec in pairs])
            assert vectors.dtype == np.complex128
            assert all(type(lam) is complex for lam, _ in pairs)
            assert np.array_equal(np.lexsort((values.imag, values.real)), np.arange(n))
            scale = np.linalg.norm(m)
            for lam, vec in pairs:
                assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
                assert np.linalg.norm(m @ vec - lam * vec) <= 1e-10 * scale

    def test_real_spectrum_is_returned_complex(self):
        pairs = eigendecompose(np.diag([3.0, 1.0, 2.0]))
        assert [lam for lam, _ in pairs] == [1.0, 2.0, 3.0]
        assert all(vec.dtype == np.complex128 for _, vec in pairs)

    def test_conjugate_pair_is_exact_and_ordered_by_imaginary_part(self):
        values = [lam for lam, _ in eigendecompose(np.array([[1.0, -2.0], [2.0, 1.0]]))]
        assert values[0] == np.conj(values[1])
        assert values[0].imag < 0
        assert abs(values[1] - (1.0 + 2.0j)) < 1e-14

    def test_agrees_with_the_complex_solve(self):
        m = np.random.default_rng(3).standard_normal((12, 12))
        real = np.array([lam for lam, _ in eigendecompose(m)])
        cplx = np.array([lam for lam, _ in eigendecompose(m.astype(np.complex128))])
        diff = np.abs(real[:, None] - cplx[None, :])
        assert max(diff.min(axis=0).max(), diff.min(axis=1).max()) < 1e-12 * np.linalg.norm(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        m = np.eye(3)
        m[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            eigendecompose(m)


class TestSolve:
    def test_identity(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0j]])
        assert np.allclose(solve(np.eye(2), b), b, atol=1e-14)

    def test_diagonal_inverse(self):
        x = solve(np.diag([2.0, 4.0]), np.eye(2))
        assert np.allclose(x, np.diag([0.5, 0.25]), atol=1e-14)

    def test_analytic_two_by_two(self):
        a = np.array([[2 * INV_SQRT3, INV_SQRT3], [INV_SQRT3, 2 * INV_SQRT3]])
        expected = np.array([[2 * INV_SQRT3, -INV_SQRT3], [-INV_SQRT3, 2 * INV_SQRT3]])
        assert np.allclose(solve(a, np.eye(2)), expected, atol=1e-12)

    def test_inverse_reproduces_identity(self):
        # bounded-condition draws keep the residual contract meaningful
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 33))
            q1, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            q2, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            a = (q1 * rng.uniform(0.5, 2.0, size=n)) @ q2.conj().T
            x = solve(a, np.eye(n))
            assert np.max(np.abs(x @ a - np.eye(n))) <= 1e-12

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve(np.eye(2), np.ones((3, 2)))


class TestNorms:
    def test_zero(self):
        assert norms(np.zeros((3, 4))) == (0.0, 0.0)

    def test_identity(self):
        fro, mx = norms(np.eye(7))
        assert abs(fro - np.sqrt(7)) < 1e-14
        assert mx == 1.0

    def test_three_four_five(self):
        fro, mx = norms(np.array([[3.0, 4.0j]]))
        assert abs(fro - 5.0) < 1e-14
        assert abs(mx - 4.0) < 1e-14

"""Tests for the dense linear algebra substrate."""

import numpy as np
import pytest
import scipy.linalg

from ptgram import (
    DEFAULT_TOLERANCES,
    NonConvergence,
    SingularMatrix,
    discretized_schrodinger,
    eigendecompose,
    lattice_chain,
    random_unbroken_pt,
    solve,
    solve_real_form,
    two_level,
)

SQRT3 = np.sqrt(3.0)
INV_SQRT3 = 1.0 / SQRT3


class TestEigendecompose:
    def test_identity(self):
        values, vectors = eigendecompose(np.eye(3))
        assert values.shape == (3,) and vectors.shape == (3, 3)
        assert np.allclose(values, [1.0, 1.0, 1.0], atol=1e-14)

    def test_diagonal_sorted_by_real_then_imag(self):
        values, vectors = eigendecompose(np.diag([1.0, 2.0j, -3.0]))
        # (Re, Im) ascending puts 2i (Re = 0) before 1
        assert np.allclose(values, [-3.0, 2.0j, 1.0], atol=1e-14)
        expected_axes = [2, 1, 0]
        for vec, axis in zip(vectors.T, expected_axes):
            assert abs(abs(vec[axis]) - 1.0) < 1e-14

    def test_two_level_closed_form(self):
        # characteristic polynomial lambda^2 = b^2 - g^2 with b = 2, g = 1
        h = np.array([[1j, 2.0], [2.0, -1j]])
        values, _ = eigendecompose(h)
        assert abs(values[0] - (-SQRT3)) < 1e-12
        assert abs(values[1] - SQRT3) < 1e-12

    def test_unit_norm_and_residual_contract(self):
        rng = np.random.default_rng(91)
        for _ in range(1000):
            n = int(rng.integers(1, 33))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            values, vectors = eigendecompose(m)
            assert values.shape == (n,) and vectors.shape == (n, n)
            scale = np.linalg.norm(m)
            for lam, vec in zip(values, vectors.T):
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
            values, vectors = eigendecompose(m)
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
            eigendecompose(m, tol=DEFAULT_TOLERANCES.override(eig=1e-18))


def _vector_dtype(m, values):
    """The vectors' dtype: float64 exactly when a float64 input has a real spectrum."""
    return np.float64 if m.dtype == np.float64 and not values.imag.any() else np.complex128


class TestRealInput:
    """A float64 input is solved in real arithmetic under the same contract."""

    def test_output_dtype_ordering_and_residual_contract(self):
        rng = np.random.default_rng(17)
        dtypes = set()
        for _ in range(200):
            n = int(rng.integers(1, 33))
            m = rng.standard_normal((n, n))
            values, vectors = eigendecompose(m)
            assert values.dtype == np.complex128
            assert vectors.dtype == _vector_dtype(m, values)
            dtypes.add(vectors.dtype)
            assert vectors.flags["C_CONTIGUOUS"]
            assert np.array_equal(np.lexsort((values.imag, values.real)), np.arange(n))
            scale = np.linalg.norm(m)
            for lam, vec in zip(values, vectors.T):
                assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
                assert np.linalg.norm(m @ vec - lam * vec) <= 1e-10 * scale
        assert dtypes == {np.dtype(np.float64), np.dtype(np.complex128)}

    def test_real_spectrum_is_returned_float64(self):
        m = np.diag([3.0, 1.0, 2.0])
        values, vectors = eigendecompose(m)
        assert values.tolist() == [1.0, 2.0, 3.0]
        assert values.dtype == np.complex128 and vectors.dtype == np.float64
        # a complex input with the same real spectrum keeps complex vectors
        values, vectors = eigendecompose(m.astype(np.complex128))
        assert values.tolist() == [1.0, 2.0, 3.0]
        assert vectors.dtype == np.complex128

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_input_is_not_changed(self, order):
        m = np.array([[2.0, 1.0], [0.5, -1.0]], order=order)
        before = m.copy(order="A")
        eigendecompose(m, left=True)
        assert m.tobytes(order="A") == before.tobytes(order="A")

    def test_conjugate_pair_is_exact_and_ordered_by_imaginary_part(self):
        values, _ = eigendecompose(np.array([[1.0, -2.0], [2.0, 1.0]]))
        assert values[0] == np.conj(values[1])
        assert values[0].imag < 0
        assert abs(values[1] - (1.0 + 2.0j)) < 1e-14

    def test_agrees_with_the_complex_solve(self):
        m = np.random.default_rng(3).standard_normal((12, 12))
        real, _ = eigendecompose(m)
        cplx, _ = eigendecompose(m.astype(np.complex128))
        diff = np.abs(real[:, None] - cplx[None, :])
        assert max(diff.min(axis=0).max(), diff.min(axis=1).max()) < 1e-12 * np.linalg.norm(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        m = np.eye(3)
        m[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            eigendecompose(m)


def _real_forms():
    """(id, real form Re(U^dagger H U)) of unbroken inputs in their parity's real basis."""
    cases = [(f"random_unbroken_pt({n}, {n % 7})", lambda n=n: random_unbroken_pt(n, n % 7))
             for n in [*range(2, 65), 512]]
    cases += [("lattice_chain(64, 0.3, 1)", lambda: lattice_chain(64, 0.3, 1.0)),
              ("discretized_schrodinger(64, 5, 0)", lambda: discretized_schrodinger(64, 5.0, 0.0))]
    for name, build in cases:
        h, parity = build()
        yield name, parity.real_basis().real_form(h)


class TestRealSpectrumBits:
    """A real spectrum's float64 vectors, scaled by the reciprocals of their
    norms, are bit for bit the real part of the complex route's
    normalization: the complex cast divided by the norms taken on LAPACK's
    layout, then copied to C order."""

    @pytest.mark.parametrize("left", [False, True], ids=["right", "left"])
    def test_real_part_of_the_complex_division(self, monkeypatch, left):
        raw, eig = [], scipy.linalg.eig
        monkeypatch.setattr(scipy.linalg, "eig",
                            lambda a, **kw: raw.append(eig(a, **kw)) or raw[-1])
        for name, hr in _real_forms():
            raw.clear()
            values, *families = eigendecompose(hr, left=left)
            assert not values.imag.any(), name
            (lapack_values, *lapack_families), = raw
            order = np.lexsort((lapack_values.imag, lapack_values.real))
            # rights, then lefts: the order eigendecompose returns them
            for got, vectors in zip(families, lapack_families[::-1]):
                # complex cast, division by the norms on LAPACK's layout, C-order copy
                ref = vectors[:, order].astype(np.complex128)
                ref = np.ascontiguousarray(np.divide(ref, np.linalg.norm(ref, axis=0), out=ref))
                assert got.dtype == np.float64, name
                assert got.tobytes() == np.ascontiguousarray(ref.real).tobytes(), name
                assert not ref.imag.any(), name


def _draw(rng, n, real):
    m = rng.standard_normal((n, n))
    return m if real else m + 1j * rng.standard_normal((n, n))


class TestLeftVectors:
    """``left=True``: one LAPACK call, left vectors matched by index."""

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_same_bits_as_right_only_and_left_contract(self, real):
        rng = np.random.default_rng(29 if real else 31)
        for _ in range(200):
            n = int(rng.integers(1, 33))
            m = _draw(rng, n, real)
            values, rights, lefts = eigendecompose(m, left=True)
            ref_values, ref_rights = eigendecompose(m)
            assert np.array_equal(values, ref_values)
            assert np.array_equal(rights, ref_rights)
            assert lefts.dtype == rights.dtype == _vector_dtype(m, values)
            assert lefts.flags["C_CONTIGUOUS"]
            assert np.max(np.abs(np.linalg.norm(lefts, axis=0) - 1.0)) < 1e-12
            residual = m.conj().T @ lefts - lefts * values.conj()
            assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-10 * np.linalg.norm(m)

    def test_left_vectors_are_dual_up_to_scale(self):
        m = np.random.default_rng(5).standard_normal((10, 10))
        _, rights, lefts = eigendecompose(m, left=True)
        overlap = lefts.conj().T @ rights
        assert np.max(np.abs(overlap - np.diag(np.diag(overlap)))) < 1e-12


def _relative_spectrum_error(values, reference):
    """Two-way nearest-neighbour distance between two spectra, relative to
    the largest modulus of ``reference``."""
    diff = np.abs(values[:, None] - reference[None, :])
    return max(diff.min(axis=0).max(), diff.min(axis=1).max()) / np.max(np.abs(reference))


class TestExtremeScale:
    """Inputs whose max modulus lies outside LAPACK's unscaled range
    2^-459 .. 2^459, where ?geev scales internally."""

    @pytest.mark.parametrize("c", [1e-300, 1e-150, 1e150, 1e300])
    @pytest.mark.parametrize("model", ["two_level", "random_unbroken_pt"])
    def test_eigenvalues_match_numpy(self, model, c):
        h, parity = two_level(1.0, 2.0) if model == "two_level" else random_unbroken_pt(6, seed=1)
        h = h * c
        reference = np.linalg.eigvals(h)
        for values in (
            eigendecompose(h)[0],
            eigendecompose(h, left=True)[0],
            solve_real_form(h, parity.real_basis()).eigenvalues,
        ):
            assert _relative_spectrum_error(values, reference) <= 1e-12

    @pytest.mark.parametrize("exp, scaled", [(-460, True), (-459, False), (459, False), (460, True)])
    def test_only_out_of_range_inputs_are_scaled(self, monkeypatch, exp, scaled):
        m = np.array([[1.0, 0.5], [0.25, -0.5]]) * 2.0**exp  # max modulus 2^exp
        seen = []
        eig = scipy.linalg.eig
        monkeypatch.setattr(scipy.linalg, "eig", lambda a, **kw: seen.append(a.copy()) or eig(a, **kw))
        values, _ = eigendecompose(m)
        if scaled:
            assert 0.5 <= np.max(np.abs(seen[0])) < 1.0
        else:
            assert np.array_equal(seen[0], m)
        assert _relative_spectrum_error(values, np.linalg.eigvals(m)) <= 1e-12


class TestCorruptedVectorRaises:
    """The residual contract catches a wrong vector on the real-GEMM paths,
    for a real spectrum (real vectors) and a complex one (interleaved view)."""

    SPECTRA = {
        "real-spectrum": np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, -1.0]]),
        "complex-spectrum": np.array([[1.0, -2.0, 0.0], [2.0, 1.0, 0.3], [0.0, 0.1, 4.0]]),
    }

    @staticmethod
    def _corrupt(vectors):
        vectors = np.array(vectors)
        vectors[:, -1] = vectors[::-1, -1]
        return vectors

    @pytest.mark.parametrize("name", sorted(SPECTRA))
    def test_right_vector(self, monkeypatch, name):
        m = self.SPECTRA[name]
        assert eigendecompose(m)[0].imag.any() == (name == "complex-spectrum")
        eig = scipy.linalg.eig

        def corrupted(a, **kwargs):
            values, rights = eig(a, **kwargs)
            return values, self._corrupt(rights)

        monkeypatch.setattr(scipy.linalg, "eig", corrupted)
        with pytest.raises(NonConvergence):
            eigendecompose(m)

    @pytest.mark.parametrize("family", ["right", "left"])
    @pytest.mark.parametrize("name", sorted(SPECTRA))
    def test_left_call(self, monkeypatch, name, family):
        m = self.SPECTRA[name]
        eig = scipy.linalg.eig

        def corrupted(a, **kwargs):
            values, lefts, rights = eig(a, **kwargs)
            if family == "left":
                return values, self._corrupt(lefts), rights
            return values, lefts, self._corrupt(rights)

        monkeypatch.setattr(scipy.linalg, "eig", corrupted)
        with pytest.raises(NonConvergence):
            eigendecompose(m, left=True)


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

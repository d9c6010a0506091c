"""Tests for the dense linear algebra substrate."""

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack

from ptgram import (
    DEFAULT_TOLERANCES,
    NonConvergence,
    SingularMatrix,
    discretized_schrodinger,
    eigendecompose,
    eigendecompose_real,
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


def _pair_vectors(vectors, pairs):
    """The complex eigenvectors of ``eigendecompose_real``'s columns: (a + ib) / sqrt(2)
    at column k and its conjugate at column j of each pair (k, j)."""
    out = vectors.astype(np.complex128)
    if pairs is not None:
        k, j = pairs.T
        out[:, k] = (vectors[:, k] + 1j * vectors[:, j]) * np.sqrt(0.5)
        out[:, j] = out[:, k].conj()
    return out


class TestRealInput:
    """``eigendecompose_real`` solves a float64 matrix by ``dgeev`` under the
    contract of ``eigendecompose``, and keeps every vector real."""

    def test_output_dtype_ordering_and_residual_contract(self):
        rng = np.random.default_rng(17)
        spectra = set()
        for _ in range(200):
            n = int(rng.integers(1, 33))
            m = rng.standard_normal((n, n))
            values, rights, lefts, pairs = eigendecompose_real(m)
            assert values.dtype == np.complex128
            assert rights.dtype == lefts.dtype == np.float64
            assert rights.flags["C_CONTIGUOUS"] and lefts.flags["C_CONTIGUOUS"]
            assert np.array_equal(np.lexsort((values.imag, values.real)), np.arange(n))
            spectra.add(pairs is None)
            assert (pairs is None) == (not values.imag.any())
            if pairs is not None:
                k, j = pairs.T
                assert np.all(values[k].imag > 0) and np.array_equal(values[j], values[k].conj())
            scale = np.linalg.norm(m)
            for family, op, lam in ((rights, m, values), (lefts, m.T, values.conj())):
                vectors = _pair_vectors(family, pairs)
                assert np.max(np.abs(np.linalg.norm(vectors, axis=0) - 1.0)) < 1e-12
                assert np.max(np.linalg.norm(op @ vectors - vectors * lam, axis=0)) <= 1e-10 * scale
        assert spectra == {True, False}

    def test_real_spectrum_is_returned_float64(self):
        m = np.diag([3.0, 1.0, 2.0])
        values, rights, lefts, pairs = eigendecompose_real(m)
        assert values.tolist() == [1.0, 2.0, 3.0] and pairs is None
        assert values.dtype == np.complex128 and rights.dtype == lefts.dtype == np.float64
        # eigendecompose solves the same matrix in complex128
        values, vectors = eigendecompose(m)
        assert values.tolist() == [1.0, 2.0, 3.0]
        assert vectors.dtype == np.complex128

    def test_rejects_complex_input(self):
        with pytest.raises(ValueError, match="float64"):
            eigendecompose_real(np.eye(2, dtype=np.complex128))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_input_is_not_changed(self, order):
        m = np.array([[2.0, 1.0], [0.5, -1.0]], order=order)
        before = m.copy(order="A")
        eigendecompose(m, left=True)
        eigendecompose_real(m)
        assert m.tobytes(order="A") == before.tobytes(order="A")

    def test_conjugate_pair_is_exact_and_ordered_by_imaginary_part(self):
        values, rights, _, pairs = eigendecompose_real(np.array([[1.0, -2.0], [2.0, 1.0]]))
        assert values[0] == np.conj(values[1])
        assert values[0].imag < 0
        assert abs(values[1] - (1.0 + 2.0j)) < 1e-14
        assert pairs.tolist() == [[1, 0]]
        # x = (a + ib) / sqrt(2) has unit norm
        assert abs(np.linalg.norm(rights) ** 2 / 2 - 1.0) < 1e-15

    def test_agrees_with_the_complex_solve(self):
        m = np.random.default_rng(3).standard_normal((12, 12))
        real = eigendecompose_real(m)[0]
        cplx, _ = eigendecompose(m)
        assert real.imag.any()
        diff = np.abs(real[:, None] - cplx[None, :])
        assert max(diff.min(axis=0).max(), diff.min(axis=1).max()) < 1e-12 * np.linalg.norm(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        m = np.eye(3)
        m[1, 2] = bad
        for solve in (eigendecompose, eigendecompose_real):
            with pytest.raises(ValueError, match="non-finite"):
                solve(m)


def _capture(monkeypatch, routine, change=None):
    """Record every result of ``lapack.<routine>`` (after ``change``, which
    may replace it) into the returned list."""
    results, original = [], getattr(lapack, routine)

    def patched(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(result if change is None else change(result))
        return results[-1]

    monkeypatch.setattr(lapack, routine, patched)
    return results


class TestScipyBits:
    """The direct ``?geev`` call, with ``?geev_lwork``'s workspace, returns
    the bits of ``scipy.linalg.eig``: its values, and its vectors, a
    conjugate pair's as dgeev's two real columns."""

    @pytest.mark.parametrize("real", [True, False], ids=["dgeev", "zgeev"])
    def test_values_and_columns(self, monkeypatch, real):
        raw = _capture(monkeypatch, "dgeev" if real else "zgeev")
        rng = np.random.default_rng(43)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            m = _draw(rng, n, real)
            raw.clear()
            if real:
                eigendecompose_real(m)
                wr, wi, vl, vr, _ = raw[0]
                values = wr + 1j * wi
            else:
                eigendecompose(m, left=True)
                values, vl, vr, _ = raw[0]
            ref_values, *ref_vectors = scipy.linalg.eig(m, left=True)
            assert values.tobytes() == ref_values.tobytes()
            first = np.flatnonzero(values.imag > 0)
            for got, ref in zip((vl, vr), ref_vectors):
                if real and first.size:
                    # scipy's a + ib at column i and a - ib at i + 1 are dgeev's (a, b)
                    imag = ref.imag[:, first]
                    ref = ref.real.copy()
                    ref[:, first + 1] = imag
                assert got.tobytes(order="F") == ref.tobytes(order="F")


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

    def test_real_part_of_the_complex_division(self, monkeypatch):
        raw = _capture(monkeypatch, "dgeev")
        for name, hr in _real_forms():
            raw.clear()
            values, rights, lefts, pairs = eigendecompose_real(hr)
            assert not values.imag.any() and pairs is None, name
            (wr, wi, *vectors, _), = raw
            order = np.lexsort((wi, wr))
            # dgeev returns (vl, vr): lefts, then rights
            for got, family in zip((lefts, rights), vectors):
                # complex cast, division by the norms on LAPACK's layout, C-order copy
                ref = family[:, order].astype(np.complex128)
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
            assert lefts.dtype == rights.dtype == np.complex128
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

    @pytest.mark.parametrize("routine", ["dgeev", "zgeev"])
    @pytest.mark.parametrize("exp, scaled", [(-460, True), (-459, False), (459, False), (460, True)])
    def test_only_out_of_range_inputs_are_scaled(self, monkeypatch, exp, scaled, routine):
        m = np.array([[1.0, 0.5], [0.25, -0.5]]) * 2.0**exp  # max modulus 2^exp
        seen, geev = [], getattr(lapack, routine)
        monkeypatch.setattr(lapack, routine, lambda a, **kw: seen.append(a.copy()) or geev(a, **kw))
        values = eigendecompose_real(m)[0] if routine == "dgeev" else eigendecompose(m)[0]
        if scaled:
            assert 0.5 <= np.max(np.abs(seen[0])) < 1.0
        else:
            assert np.array_equal(seen[0], m)
        assert _relative_spectrum_error(values, np.linalg.eigvals(m)) <= 1e-12


def _solve_by(routine, m):
    """Both families of ``m`` by ``routine``: dgeev is eigendecompose_real's,
    zgeev eigendecompose's."""
    return eigendecompose_real(m) if routine == "dgeev" else eigendecompose(m, left=True)


class TestCorruptedVectorRaises:
    """The residual contract catches a wrong vector on every path: dgeev's
    real vectors of a real spectrum and its real columns of a conjugate
    pair, each checked with real GEMMs, and zgeev's complex vectors."""

    SPECTRA = {
        "real-spectrum": np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, -1.0]]),
        "complex-spectrum": np.array([[1.0, -2.0, 0.0], [2.0, 1.0, 0.3], [0.0, 0.1, 4.0]]),
    }

    @pytest.mark.parametrize("family", ["right", "left"])
    @pytest.mark.parametrize("routine", ["dgeev", "zgeev"])
    @pytest.mark.parametrize("name", sorted(SPECTRA))
    def test_wrong_vector_raises(self, monkeypatch, name, routine, family):
        m = self.SPECTRA[name]
        assert (eigendecompose_real(m)[3] is not None) == (name == "complex-spectrum")
        at = -2 if family == "right" else -3  # vr and vl in ?geev's result

        def corrupt(result):
            vectors = np.array(result[at])
            vectors[:, -1] = vectors[::-1, -1]
            return (*result[:at], vectors, *result[at + 1:])

        _capture(monkeypatch, routine, corrupt)
        with pytest.raises(NonConvergence):
            _solve_by(routine, m)
        if family == "right" and routine == "zgeev":
            with pytest.raises(NonConvergence):
                eigendecompose(m)


class TestLapackFailure:
    """A ``?geev`` that reports non-convergence (info > 0) raises NonConvergence."""

    @pytest.mark.parametrize("routine", ["dgeev", "zgeev"])
    def test_positive_info(self, monkeypatch, routine):
        _capture(monkeypatch, routine, lambda result: (*result[:-1], 2))
        with pytest.raises(NonConvergence, match="info = 2"):
            _solve_by(routine, np.array([[2.0, 1.0], [0.5, -1.0]]))


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

"""Tests for the model generators."""

import hashlib
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ptgram import (
    InvalidGrid,
    check_pt_symmetry,
    classify_spectrum,
    discretized_schrodinger,
    eigendecompose,
    lattice_chain,
    random_pt,
    random_unbroken_pt,
    run_pipeline,
    two_level,
)

SQRT3 = np.sqrt(3.0)
# the benchmark's pinned random_unbroken_pt instances, keyed "dim:seed"
PINS = Path(__file__).resolve().parents[1] / "perfbench" / "verdicts.json"

ALL_GENERATED = [
    two_level(1.0, 2.0),
    two_level(2.0, 1.0),
    lattice_chain(9, 0.4, 1.0),
    lattice_chain(16, 0.0, 1.0),
    discretized_schrodinger(16, 4.0, 1.0),
    discretized_schrodinger(17, 4.0, 2.0),
    random_pt(8, seed=1),
    random_unbroken_pt(8, seed=1),
]


@pytest.mark.parametrize("h,parity", ALL_GENERATED)
def test_every_pair_is_exactly_symmetric(h, parity):
    assert check_pt_symmetry(h, parity) < 1e-12


@pytest.mark.parametrize("h,parity", ALL_GENERATED)
def test_every_parity_is_exact_involution(h, parity):
    p = parity.matrix
    n = p.shape[0]
    assert np.array_equal(p @ p, np.eye(n).astype(complex))
    assert np.array_equal(p, p.conj().T)


class TestTwoLevel:
    def test_hermitian_limit(self):
        h, _ = two_level(0.0, 1.0)
        values, _ = eigendecompose(h)
        assert np.allclose(values, [-1.0, 1.0], atol=1e-14)

    def test_unbroken_closed_form(self):
        h, parity = two_level(1.0, 2.0)
        art = run_pipeline(h, parity)
        assert np.allclose(art.system.eigenvalues, [-SQRT3, SQRT3], atol=1e-12)
        assert art.signature.values.tolist() == [-1, 1]

    def test_broken_closed_form(self):
        h, _ = two_level(2.0, 1.0)
        values, _ = eigendecompose(h)
        assert np.min(np.abs(values - 1j * SQRT3)) < 1e-12
        assert np.min(np.abs(values + 1j * SQRT3)) < 1e-12
        assert not classify_spectrum(values).unbroken

    def test_unbroken_region_matches_criterion(self):
        # scan the coupling plane; the coalescence ring |b| = |g| itself is
        # degenerate and belongs to neither phase
        for g in np.linspace(-2.0, 2.0, 21):
            for b in np.linspace(-2.0, 2.0, 21):
                if abs(b * b - g * g) < 1e-9:
                    continue
                h, _ = two_level(g, b)
                values = np.linalg.eigvals(h)
                unbroken = classify_spectrum(values).unbroken
                assert unbroken == (b * b > g * g), f"g={g}, b={b}"


class TestLatticeChain:
    def test_hermitian_limit_all_real(self):
        h, parity = lattice_chain(16, 0.0, 1.0)
        assert np.max(np.abs(h - h.conj().T)) == 0.0
        art = run_pipeline(h, parity)
        assert art.classification.unbroken
        assert np.max(np.abs(art.gram - np.eye(16))) < 1e-12

    def test_n2_reduces_to_two_level(self):
        chain, chain_parity = lattice_chain(2, 0.7, 1.3)
        pair, pair_parity = two_level(0.7, 1.3)
        assert np.array_equal(chain, pair)
        assert np.array_equal(chain_parity.matrix, pair_parity.matrix)

    def test_breaking_sweep(self):
        # weak gain/loss keeps the spectrum real; strong gain/loss breaks it
        h, _ = lattice_chain(16, 0.05, 1.0)
        assert classify_spectrum(np.linalg.eigvals(h)).unbroken
        h, _ = lattice_chain(16, 3.0, 1.0)
        assert not classify_spectrum(np.linalg.eigvals(h)).unbroken

    def test_validation(self):
        with pytest.raises(ValueError):
            lattice_chain(1, 0.0, 1.0)


class TestDiscretizedSchrodinger:
    def test_hermitian_case_low_spectrum(self):
        h, _ = discretized_schrodinger(128, 6.0, 0.0)
        assert np.max(np.abs(h.imag)) == 0.0
        values = np.sort(np.linalg.eigvalsh(h.real))
        # quadratic confinement: lowest levels near 1, 3, 5, all positive
        assert values[0] > 0
        assert abs(values[0] - 1.0) < 0.05
        assert abs(values[1] - 3.0) < 0.05

    def test_grid_is_mirror_symmetric(self):
        h, parity = discretized_schrodinger(33, 5.0, 1.0)
        assert check_pt_symmetry(h, parity) == 0.0
        # center point of an odd grid sits at x = 0 with vanishing potential
        kinetic = 2.0 / (2 * 5.0 / 33) ** 2
        assert abs(h[16, 16] - kinetic) < 1e-12

    def test_complex_deformation_is_symmetric_matrix(self):
        h, _ = discretized_schrodinger(24, 4.0, 1.5)
        assert np.max(np.abs(h - h.T)) == 0.0
        assert np.max(np.abs(h.imag)) > 0.1

    def test_invalid_grid(self):
        with pytest.raises(InvalidGrid):
            discretized_schrodinger(4, 5.0, 1.0)
        with pytest.raises(InvalidGrid):
            discretized_schrodinger(16, 0.0, 1.0)
        with pytest.raises(InvalidGrid):
            discretized_schrodinger(16, -3.0, 1.0)
        with pytest.raises(ValueError):
            discretized_schrodinger(16, 3.0, -1.0)

    @pytest.mark.parametrize("length", [1e-300, 1e200])
    def test_half_width_out_of_float_range_is_an_invalid_grid(self, length):
        # dx^2 underflows to zero at 1e-300; x^2 overflows at 1e200.  Any
        # RuntimeWarning on the way fails the test (see pyproject.toml).
        with pytest.raises(InvalidGrid, match=re.escape(f"half-width {length} at epsilon 1.0 gives")):
            discretized_schrodinger(8, length, 1.0)

    def test_impossible_size_is_refused_before_the_grid(self):
        # the n x n matrix is asked for before the O(n) grid and potential.
        # numpy traces a refused request too and never untraces it, so the
        # bytes the call held are its peak above what it leaves traced.
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError):
                discretized_schrodinger(2**22, 5.0, 1.0)
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - left < 2**20


class TestRandomPt:
    def test_deterministic(self):
        h1, _ = random_pt(8, seed=42)
        h2, _ = random_pt(8, seed=42)
        assert np.array_equal(h1, h2)
        h3, _ = random_pt(8, seed=43)
        assert not np.array_equal(h1, h3)

    def test_exact_symmetries(self):
        h, parity = random_pt(10, seed=3)
        assert check_pt_symmetry(h, parity) == 0.0
        assert np.array_equal(h, h.T)

    def test_small_draws_are_two_level_like(self):
        h, _ = random_pt(2, seed=6)
        assert h[0, 1] == h[1, 0]
        assert h[0, 1].imag == 0.0  # swap parity + transpose symmetry force a real coupling
        assert h[1, 1] == np.conj(h[0, 0])

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            random_pt(4, seed=-1)


class TestRandomUnbrokenPt:
    @pytest.mark.parametrize("n", [2, 8, 32, 64])
    def test_unbroken_and_well_conditioned(self, n):
        h, parity = random_unbroken_pt(n, seed=100 + n)
        assert check_pt_symmetry(h, parity) == 0.0
        assert np.array_equal(h, h.T)
        values, vectors = np.linalg.eig(h)
        assert classify_spectrum(values).unbroken
        # T's eigenvalues lie in [1/e, e], so the unit eigenvectors T v_k
        # have condition at most e^4 by construction
        assert np.linalg.cond(vectors) <= math.e**4

    def test_not_hermitian(self):
        h, _ = random_unbroken_pt(12, seed=1)
        assert np.max(np.abs(h - h.conj().T)) > 0.1

    def test_deterministic(self):
        h1, _ = random_unbroken_pt(16, seed=5)
        h2, _ = random_unbroken_pt(16, seed=5)
        assert np.array_equal(h1, h2)

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            random_unbroken_pt(4, seed=-1)


    def test_draws_are_freed_before_expm(self):
        # the generator's peak is expm's: the real draws are gone by then
        tracemalloc.start()
        try:
            random_unbroken_pt(512, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 36 * 2**20

    def test_reproduces_the_pinned_instances(self):
        # a generator change that flips an accept/reject decision changes the
        # instance, and so its digest: the sha256 prefix of H's and P's bytes
        pinned = json.loads(PINS.read_text(encoding="utf-8"))["instances"]
        for n in range(2, 65):
            h, parity = random_unbroken_pt(n, seed=0)
            digest = hashlib.sha256(np.ascontiguousarray(h).tobytes())
            digest.update(np.ascontiguousarray(parity.matrix).tobytes())
            assert digest.hexdigest()[:16] == pinned[f"{n}:0"], f"{n}:0"

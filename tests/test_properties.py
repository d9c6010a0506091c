"""Property tests: ``full_verification`` never raises on finite input, and
two of its stages agree with their brute-force definitions.

Inputs span dims 1-6 under grid-reversal or swap-pairs parity: raw complex
matrices, exactly PT-symmetrized ones, Hermitian ones, the zero matrix and
two-level models just off their exceptional point, each scaled by 10^k for
k in -150..150.  Every run must return the eleven checklist relations in
order, with a known status, and a report that serializes to JSON.

Spectra of 1-8 eigenvalues, real ones, conjugate pairs and repeats, check
``diagnose_exceptional``'s gap and ``classify_spectrum`` on real spectra.
"""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ptgram import (  # noqa: E402
    EigenSystem,
    SpectrumClassification,
    classify_spectrum,
    diagnose_exceptional,
    full_verification,
    make_parity,
    two_level,
)
from ptgram.io import report_to_dict  # noqa: E402
from ptgram.verify import CHECKLIST, FAIL, NOT_APPLICABLE, PASS  # noqa: E402

ENTRIES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
KINDS = ("raw", "pt-symmetrized", "hermitian", "zero", "two-level")


@st.composite
def inputs(draw):
    kind = draw(st.sampled_from(KINDS))
    if kind == "two-level":
        h, parity = two_level(1.0, 1.0 + draw(st.floats(1e-12, 1e-3)))
    else:
        n = draw(st.integers(1, 6))
        parity = make_parity(draw(st.sampled_from(["grid-reversal", "swap-pairs"])), n)
        parts = draw(st.lists(ENTRIES, min_size=2 * n * n, max_size=2 * n * n))
        a = np.reshape(parts[: n * n], (n, n)) + 1j * np.reshape(parts[n * n:], (n, n))
        if kind == "raw":
            h = a
        elif kind == "pt-symmetrized":
            # P conj(A) P by index, so the symmetry holds to the bit
            perm = parity.perm
            h = 0.5 * (a + np.conj(a[np.ix_(perm, perm)]))
        elif kind == "hermitian":
            h = 0.5 * (a + a.conj().T)
        else:
            h = np.zeros((n, n), dtype=complex)
    return h * 10.0 ** draw(st.integers(-150, 150)), parity


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(inputs())
def test_full_verification_never_raises_on_finite_input(case):
    h, parity = case
    art = full_verification(h, parity)
    assert [entry.id for entry in art.relations] == [cid for cid, *_ in CHECKLIST]
    assert {entry.status for entry in art.relations} <= {PASS, FAIL, NOT_APPLICABLE}
    json.dumps(report_to_dict(art))


PARTS = st.floats(-10, 10, allow_nan=False, allow_infinity=False, allow_subnormal=False)


@st.composite
def spectra(draw, kinds=("real", "pair", "repeat")):
    """1-8 eigenvalues in drawn order: real ones, conjugate pairs a +/- bi
    and repeats of earlier ones."""
    n = draw(st.integers(1, 8))
    values = []
    while len(values) < n:
        kind = draw(st.sampled_from(kinds))
        if kind == "pair" and len(values) + 2 <= n:
            re, im = draw(PARTS), draw(PARTS.filter(bool))
            values += [complex(re, im), complex(re, -im)]
        elif kind == "repeat" and values:
            values.append(draw(st.sampled_from(values)))
        else:
            values.append(complex(draw(PARTS)))
    return np.array(values)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(spectra())
def test_eigen_gap_is_the_minimum_over_pairs(lam):
    n = lam.size
    system = EigenSystem(lam, np.eye(n), np.eye(n), 2.5)
    # one modulus per pair i < j, taken by the same ufunc as the pipeline's
    pairs = np.array([lam[i] - lam[j] for i in range(n) for j in range(i + 1, n)], dtype=complex)
    gap = float(np.abs(pairs).min()) if n > 1 else float("inf")
    assert diagnose_exceptional(system) == (2.5, gap)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(spectra(kinds=("real", "repeat")), st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
def test_real_spectrum_classification_is_the_general_paths(lam, nudges):
    # imaginary parts inside the real tolerance, 1e-8 (min(1, max|E|) + |E|)
    lam = lam + 1j * 1e-9 * np.abs(lam) * nudges[: lam.size]
    classification = classify_spectrum(lam)
    # the general path, on the same spectrum with a conjugate pair appended
    # that is no larger, so min(1, max|E|) and every real test are unchanged
    scale = 0.5 * float(np.abs(lam).max())
    general = classify_spectrum(np.append(lam, [scale * (1 + 1j), scale * (1 - 1j)]))
    if scale:
        assert general.conjugate_pairs == ((lam.size, lam.size + 1),)
        assert classification == SpectrumClassification(general.real_indices, (), True)
    assert classification == SpectrumClassification(tuple(range(lam.size)), (), True)
    assert all(type(k) is int for k in classification.real_indices)

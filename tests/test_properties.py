"""Property tests: ``full_verification`` never raises on finite input.

Inputs span dims 1-6 under grid-reversal or swap-pairs parity: raw complex
matrices, exactly PT-symmetrized ones, Hermitian ones, the zero matrix and
two-level models just off their exceptional point, each scaled by 10^k for
k in -150..150.  Every run must return the eleven checklist relations in
order, with a known status, and a report that serializes to JSON.
"""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ptgram import full_verification, make_parity, two_level  # noqa: E402
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

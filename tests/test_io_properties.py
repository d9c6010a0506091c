"""Property tests: ``dumps`` writes ``json.dumps``'s bytes, and a matrix file
reads back bit for bit.

Inputs are finite float64 matrices of dims 1-6 under a grid-reversal or
swap-pairs parity (written as its index map), a diagonal of signs (not a
permutation) or a swap-pairs matrix with a -0.0 in place of a zero (a
permutation, but not bit for bit the matrix of its index map), and payloads
that mix complex vector and matrix fields with None, numbers, strings,
lists and nested dicts.  Array entries are raw
64-bit patterns, mixed with -0.0, subnormals, the largest float and the
values on either side of the float repr's switches to exponent form (1e16
and 1e-5).
"""

import itertools
import json
import math
import re
import struct
import sys

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ptgram import make_parity  # noqa: E402
from ptgram.io import (  # noqa: E402
    MATRIX_SCHEMA, dump_matrix_pair, dumps, load_matrix_pair, matrix_to_nested,
)

BIG = sys.float_info.max
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, sys.float_info.min, BIG, -BIG,
         1e16, math.nextafter(1e16, 0.0), -1e16, 1e-5, math.nextafter(1e-5, 1.0), -1e-5]
RAW = st.integers(0, 2 ** 64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
ENTRIES = st.one_of(RAW.filter(math.isfinite), st.sampled_from(EDGES))
KEYS = st.text(max_size=6)
PLAIN = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(KEYS, children, max_size=3),
    max_leaves=8,
)


@st.composite
def arrays(draw):
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=2)))
    size = 2 * math.prod(shape)
    values = draw(st.lists(ENTRIES, min_size=size, max_size=size))
    return np.array(values).view(np.complex128).reshape(shape)


PAYLOADS = st.dictionaries(KEYS, arrays() | PLAIN, max_size=6)


@st.composite
def pairs(draw):
    """(H, P, P's index map, or None where the file must hold P's rows)."""
    n = draw(st.integers(1, 6))
    values = draw(st.lists(ENTRIES, min_size=2 * n * n, max_size=2 * n * n))
    h = np.array(values).view(np.complex128).reshape(n, n)
    kind = draw(st.sampled_from(["grid-reversal", "swap-pairs", "signs", "signed-zero"]))
    if kind == "signs":
        signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n)
                     .filter(lambda s: -1.0 in s))
        return h, make_parity("explicit", n, matrix=np.diag(signs)), None
    parity = make_parity(kind if kind != "signed-zero" else "swap-pairs", n)
    if kind == "signed-zero":
        m = parity.matrix.copy()
        flat = m.view(np.float64).reshape(-1)
        flat[draw(st.sampled_from(np.flatnonzero(flat == 0.0).tolist()))] = -0.0
        return h, make_parity("explicit", n, matrix=m), None
    return h, parity, [int(np.flatnonzero(row)[0]) for row in parity.matrix]


def _rows(m):
    """A matrix as the rows of a ptgram-matrix/2 file: re and im side by side."""
    return np.ascontiguousarray(m).view(np.float64).tolist()


@pytest.fixture(scope="module")
def fresh_path(tmp_path_factory):
    # a new file per example: truncating an existing one can cost tens of ms
    folder, names = tmp_path_factory.mktemp("matrix"), itertools.count()
    return lambda: folder / f"pair-{next(names)}.json"


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(pairs())
def test_file_is_json_dumps_bytes_and_reads_back_bit_for_bit(fresh_path, pair):
    h, parity, perm = pair
    text = dump_matrix_pair(h, parity)
    payload = {"schema": MATRIX_SCHEMA, "dim": h.shape[0],
               "h": _rows(h), "p": _rows(parity.matrix) if perm is None else perm}
    assert text == json.dumps(payload, indent=2) + "\n"
    path = fresh_path()
    path.write_text(text, encoding="utf-8")
    loaded_h, loaded_parity = load_matrix_pair(path)
    assert loaded_h.tobytes() == h.tobytes()
    assert loaded_parity.matrix.tobytes() == parity.matrix.tobytes()
    assert (loaded_parity.perm is None) == (perm is None)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(PAYLOADS)
def test_dumps_is_json_dumps_bytes(payload):
    nested = {key: matrix_to_nested(value) if isinstance(value, np.ndarray) else value
              for key, value in payload.items()}
    assert dumps(payload) == json.dumps(nested, indent=2) + "\n"


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(PAYLOADS, KEYS, arrays(), st.integers(0, 71), st.sampled_from([math.nan, math.inf, -math.inf]))
def test_dumps_refuses_a_non_finite_array_entry(payload, name, array, index, bad):
    array.view(np.float64).reshape(-1)[index % (2 * array.size)] = bad
    payload[name] = array
    with pytest.raises(ValueError, match=f"^field {re.escape(repr(name))} contains non-finite"):
        dumps(payload)

"""Golden report bytes for fixed inputs.

For every input below, the ``report_to_dict`` JSON and the
``render_report_text`` table of that payload are compared byte for byte with
the files in ``tests/golden/``, and the table must also render from the JSON
golden read back.  Inputs of dimension <= 16 also pin their
``analysis_to_dict`` JSON, the ``render_analysis_text`` summary of that
payload and their matrix file (``dump_matrix_pair``), and
``load_matrix_pair`` must read that file back to the generator's arrays bit
for bit, as it must the ``ptgram-matrix/1`` files of the same inputs kept
in ``tests/matrix_v1/`` (the tests never rewrite those).  Every JSON golden
is written by
``ptgram.io.dumps``, as the CLI writes it.  The inputs cover the
passing, broken-spectrum, numerical-failure, anomaly and failing-relation
paths, so a refactor that changes any reported number, verdict or message
fails here.  Both JSON forms are compared without their run-dependent
``timings``.

The tests only read the goldens.  To regenerate them, after a change that is
meant to alter report bytes, run from the repository root:

    python tests/test_golden.py

It rewrites every golden and prints one line per file: ``unchanged``,
``float drift`` (only numbers moved; the largest absolute change per JSON
key, or per report line label), or ``structural change`` at the first JSON
path or text line where anything other than a number differs.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

if __name__ == "__main__":  # run as a script: import this checkout's package
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import ptgram  # noqa: E402
import ptgram.io as ptio  # noqa: E402

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
MATRIX_V1_DIR = Path(__file__).resolve().parent / "matrix_v1"
ANALYSIS_MAX_DIM = 16

INPUTS = {
    "two_level_1_2": lambda: ptgram.two_level(1.0, 2.0),
    "two_level_2_1": lambda: ptgram.two_level(2.0, 1.0),
    "two_level_1_1": lambda: ptgram.two_level(1.0, 1.0),
    "non_pt_swap": lambda: (
        np.array([[1j, 2.0], [2.0, 1j]]),
        ptgram.make_parity("swap-pairs", 2),
    ),
    "lattice_chain_16_0.3": lambda: ptgram.lattice_chain(16, 0.3, 1.0),
    "lattice_chain_16_1.5": lambda: ptgram.lattice_chain(16, 1.5, 1.0),
    "random_unbroken_pt_12_s5": lambda: ptgram.random_unbroken_pt(12, seed=5),
    "random_pt_8_s1": lambda: ptgram.random_pt(8, seed=1),
    "schrodinger_64_5_0": lambda: ptgram.discretized_schrodinger(64, 5.0, 0.0),
    "schrodinger_64_5_1": lambda: ptgram.discretized_schrodinger(64, 5.0, 1.0),
}


def _untimed(payload: dict) -> dict:
    del payload["timings"]
    return payload


def render(name: str) -> dict[str, str]:
    """Golden file name -> expected content for one input."""
    h, parity = INPUTS[name]()
    report = ptio.report_to_dict(ptgram.full_verification(h, parity))
    out = {
        f"{name}.report.json": ptio.dumps(_untimed(report)),
        f"{name}.report.txt": ptio.render_report_text(report),
    }
    if h.shape[0] <= ANALYSIS_MAX_DIM:
        analysis = ptio.analysis_to_dict(ptgram.run_pipeline(h, parity))
        out[f"{name}.analysis.json"] = ptio.dumps(_untimed(analysis))
        out[f"{name}.analysis.txt"] = ptio.render_analysis_text(analysis)
        out[f"{name}.matrix.json"] = ptio.dump_matrix_pair(h, parity)
    return out


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_report_bytes_match_golden(name):
    for filename, text in render(name).items():
        golden = (GOLDEN_DIR / filename).read_text(encoding="utf-8")
        assert text == golden, f"{filename} differs from its golden"


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_report_text_renders_from_the_json_golden(name):
    # the 17-digit residual strings round-trip, so the JSON alone gives the table
    payload = json.loads((GOLDEN_DIR / f"{name}.report.json").read_text(encoding="utf-8"))
    assert ptio.render_report_text(payload) == (GOLDEN_DIR / f"{name}.report.txt").read_text(
        encoding="utf-8")


MATRIX_NAMES = [name for name in sorted(INPUTS) if INPUTS[name]()[0].shape[0] <= ANALYSIS_MAX_DIM]


def _assert_loads_bit_identical(path: Path, name: str) -> None:
    h, parity = INPUTS[name]()
    loaded_h, loaded_parity = ptio.load_matrix_pair(path)
    for loaded, generated in ((loaded_h, h), (loaded_parity.matrix, parity.matrix)):
        assert loaded.dtype == np.complex128
        assert loaded.tobytes() == np.asarray(generated, dtype=np.complex128).tobytes()


@pytest.mark.parametrize("name", MATRIX_NAMES)
def test_matrix_file_loads_bit_identical(name):
    _assert_loads_bit_identical(GOLDEN_DIR / f"{name}.matrix.json", name)


@pytest.mark.parametrize("name", MATRIX_NAMES)
def test_matrix_1_file_loads_bit_identical(name):
    path = MATRIX_V1_DIR / f"{name}.matrix.json"
    assert json.loads(path.read_text(encoding="utf-8"))["schema"] == "ptgram-matrix/1"
    _assert_loads_bit_identical(path, name)


def test_describe_change_tells_drift_from_structure():
    old = ptio.dumps({"relations": [{"id": "Eq3", "residual": "1e-16", "status": "pass"}],
                      "signature": {"values": [-1, 1], "residuals": ["2e-16", "3e-16"]}})
    drifted = old.replace('"1e-16"', '"4e-16"').replace('"3e-16"', '"3.5e-16"')
    assert describe_change("r.json", old, old) == "unchanged"
    assert describe_change("r.json", old, drifted) == "float drift: residual 3.0e-16, residuals 5.0e-17"
    flipped = old.replace('"pass"', '"fail"')
    assert describe_change("r.json", old, flipped) == (
        "structural change at .relations[0].status ('pass' -> 'fail')"
    )
    assert describe_change("r.json", old, old.replace("-1,", "1,")) == (
        "structural change at .signature.values[0] (-1 -> 1)"
    )
    text = "Eq3   pass   4.785e-16   1.000e-08\n"
    assert describe_change("r.txt", text, text.replace("4.785", "4.801")) == "float drift: Eq3 1.6e-18"
    assert describe_change("r.txt", text, text.replace("pass", "fail")) == (
        "structural change at line 1 ('pass' -> 'fail')"
    )


class Structural(Exception):
    """A difference that is not a change of a number; carries its location."""


def _number(value):
    """The float a golden value stands for (reports write floats as strings),
    or None when it is not a number."""
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def _note_drift(drift: dict, key: str, old: float, new: float) -> None:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return
    change = abs(new - old) if math.isfinite(old) and math.isfinite(new) else math.inf
    drift[key] = max(drift.get(key, 0.0), change)


def _json_drift(old, new, path: str, key: str, drift: dict) -> None:
    old_num, new_num = _number(old), _number(new)
    if old_num is not None and new_num is not None:
        _note_drift(drift, key, old_num, new_num)
    elif isinstance(old, dict) and isinstance(new, dict):
        if list(old) != list(new):
            raise Structural(f"{path or '$'} (keys {list(old)} -> {list(new)})")
        for k in old:
            _json_drift(old[k], new[k], f"{path}.{k}", k, drift)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            raise Structural(f"{path} (length {len(old)} -> {len(new)})")
        for i, (a, b) in enumerate(zip(old, new)):
            _json_drift(a, b, f"{path}[{i}]", key, drift)
    elif type(old) is not type(new) or old != new:
        raise Structural(f"{path} ({old!r} -> {new!r})")


def _text_drift(old: str, new: str, drift: dict) -> None:
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        raise Structural(f"line count {len(old_lines)} -> {len(new_lines)}")
    for lineno, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
        a_tokens, b_tokens = a.split(), b.split()
        label = a_tokens[0] if a_tokens else ""
        if len(a_tokens) != len(b_tokens):
            raise Structural(f"line {lineno}")
        for x, y in zip(a_tokens, b_tokens):
            x_num, y_num = _number(x), _number(y)
            if x_num is not None and y_num is not None:
                _note_drift(drift, label, x_num, y_num)
            elif x != y:
                raise Structural(f"line {lineno} ({x!r} -> {y!r})")


def describe_change(filename: str, old: str, new: str) -> str:
    """One-line verdict on how a regenerated golden differs from the old one."""
    if old == new:
        return "unchanged"
    drift: dict[str, float] = {}
    try:
        if filename.endswith(".json"):
            _json_drift(json.loads(old), json.loads(new), "", "", drift)
        else:
            _text_drift(old, new, drift)
    except Structural as exc:
        return f"structural change at {exc}"
    if not drift:
        return "float drift: same values, different spelling"
    return "float drift: " + ", ".join(f"{k or '$'} {v:.1e}" for k, v in sorted(drift.items()))


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(INPUTS):
        for filename, text in render(name).items():
            path = GOLDEN_DIR / filename
            old = path.read_text(encoding="utf-8") if path.exists() else None
            path.write_text(text, encoding="utf-8")
            verdict = "new file" if old is None else describe_change(filename, old, text)
            print(f"{filename}: {verdict}")


if __name__ == "__main__":
    main()

"""Golden report bytes for fixed inputs.

For every input below, ``report_to_dict`` JSON (without the run-dependent
``timings``) and ``render_report_text`` are compared byte for byte with the
files in ``tests/golden/``; inputs of dimension <= 16 also pin their
``analysis_to_dict`` JSON.  The inputs cover the passing, broken-spectrum,
numerical-failure, anomaly and failing-relation paths, so a refactor that
changes any reported number, verdict or message fails here.

The tests only read the goldens.  To regenerate them, after a change that is
meant to alter report bytes, run from the repository root:

    python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

if __name__ == "__main__":  # run as a script: import this checkout's package
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import ptgram  # noqa: E402
import ptgram.io as ptio  # noqa: E402

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
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


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def render(name: str) -> dict[str, str]:
    """Golden file name -> expected content for one input."""
    h, parity = INPUTS[name]()
    report = ptgram.full_verification(h, parity)
    report_dict = ptio.report_to_dict(report)
    del report_dict["timings"]
    out = {
        f"{name}.report.json": _json(report_dict),
        f"{name}.report.txt": ptio.render_report_text(report),
    }
    if h.shape[0] <= ANALYSIS_MAX_DIM:
        art = ptgram.run_pipeline(h, parity)
        out[f"{name}.analysis.json"] = _json(ptio.analysis_to_dict(art))
    return out


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_report_bytes_match_golden(name):
    for filename, text in render(name).items():
        golden = (GOLDEN_DIR / filename).read_text(encoding="utf-8")
        assert text == golden, f"{filename} differs from its golden"


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(INPUTS):
        for filename, text in render(name).items():
            (GOLDEN_DIR / filename).write_text(text, encoding="utf-8")
            print(filename)


if __name__ == "__main__":
    main()

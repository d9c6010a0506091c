"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; each criterion is also an ordinary assertion, so plain ``pytest``
enforces them all.
"""

import contextlib
import io
import json
import time

import numpy as np

import ptgram.io as ptio
from ptgram import (
    DefectiveMatrix,
    biorthonormalize,
    check_pt_symmetry,
    diagnose_exceptional,
    dual_gram,
    dual_via_signature,
    full_verification,
    inverse_via_signature,
    lattice_chain,
    make_parity,
    pair_left_right,
    run_pipeline,
    solve,
    two_level,
)
from ptgram.cli import main as cli_main

SQRT3 = np.sqrt(3.0)
G_CLOSED = np.array([[2 / SQRT3, 1 / SQRT3], [1 / SQRT3, 2 / SQRT3]])


def _line(number: int, label: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} [{label}]: {status} ({detail})")
    assert passed, f"criterion {number} ({label}): {detail}"


def _bench_rows(*args) -> list[dict]:
    """The rows of ``ptgram bench`` with ``args``, read from its JSON."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["bench", *args]) == 0
    return json.loads(out.getvalue())["rows"]


def test_criterion_1_signature_theorem(theorem_ensemble):
    worst = 0.0
    for art in theorem_ensemble:
        flipped = inverse_via_signature(art.gram, art.signature)
        identity = np.eye(art.gram.shape[0])
        residual = float(np.max(np.abs(flipped @ art.gram - identity)))
        worst = max(worst, residual)
    passed = worst < 1e-8
    _line(
        1,
        "sign-flip inversion over 500 seeded instances, dims 2..64",
        passed,
        f"worst residual {worst:.3e}, ensemble built in {theorem_ensemble.build_seconds:.1f}s",
    )


def test_criterion_2_inversion_free_duals(theorem_ensemble):
    worst_route = 0.0
    worst_adjoint = 0.0
    for art in theorem_ensemble:
        worst_route = max(worst_route, art.route_discrepancy)
        duals = dual_via_signature(art.system.states, inverse_via_signature(art.gram, art.signature))
        gap = float(np.max(np.linalg.norm(duals - art.system.duals, axis=0)))
        worst_adjoint = max(worst_adjoint, gap)
    passed = worst_route < 1e-8 and worst_adjoint < 1e-8
    _line(
        2,
        "inversion-free duals vs solver route and adjoint eigenvectors",
        passed,
        f"route gap {worst_route:.3e}, adjoint gap {worst_adjoint:.3e}",
    )


def test_criterion_3_two_level_oracle():
    h, parity = two_level(1.0, 2.0)
    art = run_pipeline(h, parity)
    values = art.system.eigenvalues
    eig_err = max(abs(values[0] + SQRT3), abs(values[1] - SQRT3))
    sig_ok = art.signature.values.tolist() == [-1, 1]
    gram_err = float(np.max(np.abs(art.gram - G_CLOSED)))
    diag_err = art.theorem.diagonal_gap

    hb, parityb = two_level(2.0, 1.0)
    artb = run_pipeline(hb, parityb)
    broken_values = artb.system.eigenvalues
    broken_err = max(
        float(np.min(np.abs(broken_values - 1j * SQRT3))),
        float(np.min(np.abs(broken_values + 1j * SQRT3))),
    )
    broken_ok = artb.classification is not None and not artb.classification.unbroken

    passed = (
        eig_err < 1e-12
        and sig_ok
        and gram_err < 1e-10
        and diag_err < 1e-12
        and broken_err < 1e-12
        and broken_ok
    )
    _line(
        3,
        "analytic two-level oracle, both phases",
        passed,
        f"eig {eig_err:.1e}, gram {gram_err:.1e}, diag {diag_err:.1e}, "
        f"broken eig {broken_err:.1e}, signature {art.signature.values.tolist()}",
    )


def test_criterion_4_signed_completeness_and_norms(theorem_ensemble):
    worst8 = max(art.signed_completeness for art in theorem_ensemble)
    worst9 = max(art.indefinite_norms for art in theorem_ensemble)

    h, parity = lattice_chain(16, 0.0, 1.0)
    art = run_pipeline(h, parity)
    hermitian_worst = max(
        art.signed_completeness,
        art.indefinite_norms,
        art.system.duality_defect,
        art.system.completeness_defect,
        float(np.max(art.signature.residuals)),
    )
    gram_identity = float(np.max(np.abs(art.gram - np.eye(16))))
    passed = (
        worst8 < 1e-8
        and worst9 < 1e-8
        and hermitian_worst < 1e-12
        and gram_identity < 1e-12
    )
    _line(
        4,
        "signed completeness / indefinite norms; Hermitian chain limit",
        passed,
        f"ensemble {max(worst8, worst9):.3e}, hermitian {hermitian_worst:.3e}, "
        f"gram-identity {gram_identity:.3e}",
    )


def test_criterion_5_charge_properties(theorem_ensemble):
    worst_square = max(art.charge_square_defect for art in theorem_ensemble)
    worst_comm = max(art.charge_commutator_defect for art in theorem_ensemble)
    mixed_nonhermitian = any(
        art.charge_nonhermiticity > 1e-6
        and len(set(art.signature.values.tolist())) == 2
        for art in theorem_ensemble
    )
    passed = worst_square < 1e-8 and worst_comm < 1e-8 and mixed_nonhermitian
    _line(
        5,
        "charge squares to identity, commutes with H, is not self-adjoint",
        passed,
        f"square {worst_square:.3e}, commutator {worst_comm:.3e}, "
        f"mixed-sign non-self-adjoint instance: {mixed_nonhermitian}",
    )


def test_criterion_6_dual_gram_consistency(theorem_ensemble):
    worst = 0.0
    for art in theorem_ensemble:
        g = art.gram
        inverse = solve(g, np.eye(g.shape[0], dtype=complex))
        worst = max(worst, float(np.max(np.abs(dual_gram(art.system) - inverse))))
    passed = worst < 1e-8
    _line(6, "dual overlap matrix equals the solver inverse", passed, f"worst {worst:.3e}")


def test_criterion_7_benchmark_integrity():
    start = time.perf_counter()
    rows = _bench_rows("--dims", "64,128,256", "--reps", "5", "--seed", "2026")
    elapsed = time.perf_counter() - start
    worst = max(float(row["discrepancy"]) for row in rows)
    totals = ", ".join(f"{row['dim']}: {1e3 * row['stages']['total']['median']:.1f} ms" for row in rows)
    passed = len(rows) == 3 and worst < 1e-8
    _line(
        7,
        "benchmark over dims 64/128/256",
        passed,
        f"worst discrepancy {worst:.3e}; median totals {totals}; {elapsed:.1f}s",
    )


def test_criterion_8_negative_controls(tmp_path, capsys):
    h = np.array([[1j, 2.0], [2.0, 1j]])
    parity = make_parity("swap-pairs", 2)
    residual = check_pt_symmetry(h, parity)
    path = tmp_path / "nonpt.json"
    ptio.write_matrix_pair(path, h, parity)
    code = cli_main(["verify", "--input", str(path), "--output", str(tmp_path / "r.json")])
    capsys.readouterr()

    hep, parityep = two_level(1.0, 1.0)
    defective = False
    try:
        biorthonormalize(pair_left_right(hep))
    except DefectiveMatrix:
        defective = True
    condition, _ = diagnose_exceptional(pair_left_right(hep))
    ep_flagged = defective or condition > 1e6

    passed = residual > 1.0 and code == 1 and ep_flagged
    _line(
        8,
        "non-symmetric input fails; coalescence point is flagged",
        passed,
        f"pt residual {residual:.2f}, verify exit {code}, "
        f"defective={defective}, condition {condition:.2e}",
    )


def test_criterion_9_determinism(tmp_path, capsys):
    paths = [tmp_path / "g1.json", tmp_path / "g2.json"]
    for path in paths:
        code = cli_main(["generate", "--model", "random-pt", "--n", "8", "--seed", "42",
                         "--output", str(path)])
        assert code == 0
    capsys.readouterr()
    bytes_identical = paths[0].read_bytes() == paths[1].read_bytes()

    def report_payload():
        h, parity = two_level(1.0, 2.0)
        payload = ptio.report_to_dict(full_verification(h, parity))
        payload.pop("timings")
        return json.dumps(payload)

    reports_identical = report_payload() == report_payload()

    def bench_discrepancies():
        return [row["discrepancy"] for row in _bench_rows("--dims", "16,24", "--reps", "2", "--seed", "7")]

    bench_identical = bench_discrepancies() == bench_discrepancies()

    passed = bytes_identical and reports_identical and bench_identical
    _line(
        9,
        "seeded generation, reports, and benchmarks are deterministic",
        passed,
        f"generate bytes: {bytes_identical}, report residuals: {reports_identical}, "
        f"bench discrepancies: {bench_identical}",
    )

"""Tests for the verification report and the route benchmark."""

import numpy as np
import pytest

import ptgram.biortho as biortho
from ptgram import (
    Tolerances,
    bench_dual_routes,
    discretized_schrodinger,
    full_verification,
    lattice_chain,
    make_parity,
    pair_left_right,
    random_unbroken_pt,
    run_pipeline,
    two_level,
)
from ptgram.verify import CHECKLIST, NOT_APPLICABLE, SIGN_DEPENDENT

CHECKLIST_IDS = [cid for cid, _ in CHECKLIST]


class TestFullVerification:
    def test_two_level_all_eleven_pass(self):
        h, parity = two_level(1.0, 2.0)
        report = full_verification(h, parity)
        assert report.counts == (11, 11)
        assert report.all_applicable_pass
        assert report.failure is None

    def test_checklist_ids_appear_exactly_once(self):
        h, parity = two_level(1.0, 2.0)
        for args in [(1.0, 2.0), (2.0, 1.0), (1.0, 1.0)]:
            report = full_verification(*two_level(*args))
            assert [r.id for r in report.relations] == CHECKLIST_IDS

    def test_broken_marks_sign_dependent_not_applicable(self):
        h, parity = two_level(2.0, 1.0)
        report = full_verification(h, parity)
        na = tuple(r.id for r in report.relations if r.status == NOT_APPLICABLE)
        assert na == SIGN_DEPENDENT
        assert report.all_applicable_pass
        assert report.signature is None
        assert not report.classification.unbroken

    def test_non_pt_input_fails_symmetry(self):
        h = np.array([[1j, 2.0], [2.0, 1j]])
        report = full_verification(h, make_parity("swap-pairs", 2))
        entry = report.relation("PT-comm")
        assert entry.status == "fail"
        assert abs(entry.residual - 2.0) < 1e-12
        assert not report.all_applicable_pass
        assert report.failure is None  # numerically fine, just not symmetric

    def test_exceptional_point_reports_failure_and_condition(self):
        h, parity = two_level(1.0, 1.0)
        report = full_verification(h, parity)
        assert report.failure is not None
        assert report.eigvec_condition > 1e6
        assert any("exceptional" in note for note in report.anomalies)
        # symmetry relations are still scored; the rest is not applicable
        assert report.relation("PT-comm").status == "pass"
        assert report.relation("Eq12").status == NOT_APPLICABLE

    def test_gram_solve_failure_is_reported_not_raised(self):
        # a solve tolerance no residual can meet makes the Gram solve raise
        h, parity = random_unbroken_pt(12, seed=5)
        report = full_verification(h, parity, Tolerances().override(solve=1e-300))
        assert report.failure.startswith("dual inversion:")
        assert report.relation("Eq12").status == NOT_APPLICABLE
        assert report.timings["dual-via-inversion"] >= 0.0

    def test_timings_present(self):
        h, parity = two_level(1.0, 2.0)
        report = full_verification(h, parity)
        for key in ("symmetry-checks", "eigensystem", "biorthonormalize",
                    "dual-via-inversion", "dual-via-signature"):
            assert key in report.timings
            assert report.timings[key] >= 0.0

    def test_trivial_parity_flagged(self):
        h = np.diag([1.0, 2.0])
        parity = make_parity("explicit", 2, matrix=np.eye(2))
        report = full_verification(h, parity)
        assert report.parity_trivial
        assert report.all_applicable_pass

    def test_unknown_relation_id(self):
        h, parity = two_level(1.0, 2.0)
        report = full_verification(h, parity)
        with pytest.raises(KeyError):
            report.relation("Eq99")

    def test_tolerance_override_changes_outcome(self):
        h, parity = two_level(1.0, 2.0)
        strict = Tolerances().override(relation=1e-17)
        report = full_verification(h, parity, strict)
        assert not report.all_applicable_pass

    def test_conventions_recorded(self):
        h, parity = two_level(1.0, 2.0)
        report = full_verification(h, parity)
        assert len(report.conventions) >= 3


def _complex_parity_case():
    # P = sigma_y is a self-adjoint involution with imaginary entries
    parity = make_parity("explicit", 2, matrix=np.array([[0.0, -1j], [1j, 0.0]]))
    a = np.array([[1.0 + 2.0j, 3.0 - 1.0j], [0.5 + 1.0j, -2.0 + 0.25j]])
    p = parity.matrix
    return 0.5 * (a + p @ a.conj() @ p), parity


def _perturbed_chain():
    h, parity = lattice_chain(16, 0.3, 1.0)
    h[0, 1] += 1e-15
    return h, parity


class TestEigensolveRoute:
    """Exactly PT-symmetric inputs with a real parity are solved once, in
    real arithmetic; every other input is solved as a complex matrix, H and
    H-adjoint separately."""

    @pytest.fixture
    def seen(self, monkeypatch):
        dtypes = []
        original = biortho.eigendecompose

        def spy(m, *args, **kwargs):
            dtypes.append(np.asarray(m).dtype)
            return original(m, *args, **kwargs)

        monkeypatch.setattr(biortho, "eigendecompose", spy)
        return dtypes

    @pytest.mark.parametrize("make, dtypes, exact", [
        (lambda: lattice_chain(16, 0.3, 1.0), [np.float64], True),
        (lambda: random_unbroken_pt(9, seed=4), [np.float64], True),
        (lambda: (np.array([[1j, 2.0], [2.0, 1j]]), make_parity("swap-pairs", 2)),
         [np.complex128, np.complex128], False),
        (_perturbed_chain, [np.complex128, np.complex128], False),
        (_complex_parity_case, [np.complex128, np.complex128], True),
    ], ids=["chain", "random-unbroken", "non-pt-swap", "perturbed-1e-15", "complex-parity"])
    def test_solver_dtype(self, seen, make, dtypes, exact):
        h, parity = make()
        report = full_verification(h, parity)
        assert seen == dtypes
        assert (report.relation("PT-comm").residual == 0.0) == exact

    def test_eigensystem_is_not_kept(self):
        h, parity = lattice_chain(8, 0.3, 1.0)
        assert not hasattr(run_pipeline(h, parity), "eigensystem")


class TestOscillatorRegression:
    """The Hermitian harmonic oscillator is real symmetric: in real
    arithmetic every relation passes and its signs alternate from the ground
    state up, the (-1)^n parity pattern."""

    @pytest.mark.parametrize("n", [64, 256])
    def test_passes_with_alternating_signs(self, n):
        report = full_verification(*discretized_schrodinger(n, 5.0, 0.0))
        assert report.failure is None and not report.anomalies
        assert report.counts == (11, 11)
        assert report.signature.values[:8].tolist() == [1, -1] * 4


class TestEqualityIsIdentity:
    """Result types hold arrays, so ``==`` compares identity and returns a
    bool instead of raising on an ambiguous array truth value."""

    @pytest.mark.parametrize("name", [
        "ParityOperator", "Signature", "EigenSystem", "BiorthonormalSystem",
        "GramPair", "VerificationReport", "PipelineArtifacts",
    ])
    def test_eq_returns_bool(self, name):
        def build():
            h, parity = two_level(1.0, 2.0)
            art = run_pipeline(h, parity)
            return {
                "ParityOperator": parity,
                "Signature": art.signature,
                "EigenSystem": pair_left_right(h),
                "BiorthonormalSystem": art.system,
                "GramPair": art.gram_pair,
                "VerificationReport": full_verification(h, parity),
                "PipelineArtifacts": art,
            }[name]

        a, b = build(), build()
        assert type(a).__name__ == name
        assert (a == b) is False
        assert (a == a) is True
        assert (a != b) is True


class TestBenchDualRoutes:
    def test_small_dim_discrepancy(self):
        rows = bench_dual_routes([2], repetitions=3, seed=1)
        assert len(rows) == 1
        assert rows[0].discrepancy < 1e-10

    def test_zero_repetitions_empty(self):
        assert bench_dual_routes([8, 16], repetitions=0, seed=1) == []

    def test_deterministic_discrepancies(self):
        a = bench_dual_routes([8, 12], repetitions=2, seed=7)
        b = bench_dual_routes([8, 12], repetitions=2, seed=7)
        assert [r.discrepancy for r in a] == [r.discrepancy for r in b]
        assert [r.dim for r in a] == [8, 12]

    def test_rejects_dim_below_two(self):
        with pytest.raises(ValueError):
            bench_dual_routes([1], repetitions=1, seed=0)

    def test_row_fields(self):
        rows = bench_dual_routes([16], repetitions=3, seed=3)
        row = rows[0]
        assert row.t_inversion > 0 and row.t_signature > 0
        assert row.speedup == pytest.approx(row.t_inversion / row.t_signature)

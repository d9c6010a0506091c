"""Tests for the verification report and the route benchmark."""

import json
import re
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg

import ptgram.biortho as biortho
import ptgram.verify as verify
from ptgram import (
    BiorthonormalSystem,
    EigenSystem,
    Tolerances,
    bench_dual_routes,
    discretized_schrodinger,
    full_verification,
    inverse_via_signature,
    lattice_chain,
    make_parity,
    pair_left_right,
    random_pt,
    random_unbroken_pt,
    run_pipeline,
    two_level,
)
from ptgram.errors import SingularMatrix
from ptgram.io import analysis_to_dict, dumps, render_report_text, report_to_dict
from ptgram.linalg import RealBasis
from ptgram.verify import CHECKLIST, NOT_APPLICABLE
from test_golden import INPUTS as GOLDEN_INPUTS
from test_symmetry import lattice_gamma_c

CHECKLIST_IDS = [cid for cid, *_ in CHECKLIST]
SIGN_DEPENDENT = ("Eq5", "Eq6-props", "Eq8", "Eq9", "Eq12", "Eq16", "diag-equality")
# run_pipeline's timing keys, in stage order
STAGES = ["symmetry-checks", "eigensystem", "biorthonormalize", "classify",
          "phase-and-signature", "defects", "gram", "dual-via-inversion",
          "signature-theorem", "dual-via-signature", "Eq16", "Eq8", "Eq9", "Eq6-props"]
# the Tolerances field each relation is scored against, in report order
THRESHOLDS = {
    "relation": ["Eq3", "Eq4", "Eq6-props", "Eq8", "Eq9", "Eq12", "Eq16"],
    "signature": ["Eq5"],
    "diagonal": ["diag-equality"],
    "symmetry": ["PT-comm", "pseudo-herm"],  # scaled by 1 + max|H|
}


def _perturbed_chain():
    h, parity = lattice_chain(16, 0.3, 1.0)
    h[0, 1] += 1e-15
    return h, parity


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

    @pytest.mark.parametrize("make, tol, prefix, stage, scored", [
        # tolerances no residual can meet, a coalescence point, and a Gram
        # factorization that breaks down; a stage after the defects also
        # scores what was measured before it stopped
        (lambda: random_unbroken_pt(12, seed=5), {"eig": 1e-300}, "eigensystem:", "eigensystem",
         ["PT-comm", "pseudo-herm"]),
        (lambda: two_level(1.0, 1.0), {}, "biorthonormalize:", "biorthonormalize",
         ["PT-comm", "pseudo-herm"]),
        (lambda: random_unbroken_pt(12, seed=5), {},
         "gram: Gram matrix is not positive definite: its Cholesky factorization breaks down "
         "at column 2", "gram", ["Eq3", "Eq4", "Eq5", "PT-comm", "pseudo-herm"]),
        (lambda: random_unbroken_pt(12, seed=5), {"solve": 1e-300}, "dual inversion:",
         "dual-via-inversion", ["Eq3", "Eq4", "Eq5", "PT-comm", "pseudo-herm"]),
        (lambda: random_unbroken_pt(12, seed=5), {"duality_fail": 1e-300}, "biorthonormalize:",
         "biorthonormalize", ["PT-comm", "pseudo-herm"]),
    ], ids=["eigensystem", "biorthonormalize", "gram", "dual-inversion", "duality-fail"])
    def test_gram_solve_failure_is_reported_not_raised(self, monkeypatch, make, tol, prefix, stage,
                                                       scored):
        h, parity = make()
        if stage == "gram":
            potrf = scipy.linalg.lapack.dpotrf
            monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", lambda *a, **k: (potrf(*a, **k)[0], 3))
        report = full_verification(h, parity, Tolerances().override(**tol))
        assert report.failure.startswith(prefix)
        assert [entry.id for entry in report.relations if entry.applicable] == scored
        assert report.relation("Eq12").status == NOT_APPLICABLE
        assert report.timings[stage] >= 0.0
        assert not set(report.timings) & set(STAGES[STAGES.index(stage) + 1:])

    @pytest.mark.parametrize("n, gamma, counts, skipped", [
        (4, 1.0 - 1e-16, (3, 4), False),
        (12, 1.0 - 1e-16, (2, 4), False),
        (16, 1.0 - 1e-12, (3, 5), True),
        (17, lattice_gamma_c(17) - 1e-6, (3, 5), True),
    ])
    def test_near_exceptional_point_chain_passes_the_gram_stage(self, n, gamma, counts, skipped):
        # Cholesky accepts each G, although lambda_min / lambda_max <= 1e-12;
        # an invalid signature is then noted as an anomaly, not a failure
        art = full_verification(*lattice_chain(n, gamma, 1.0))
        assert art.failure is None and "gram" in art.timings
        assert art.counts == counts
        skip = "signature residuals exceed tolerance; sign-dependent relations skipped"
        assert (skip in art.anomalies) == skipped

    @pytest.mark.parametrize("make, tol, note, counts", [
        (lambda: random_unbroken_pt(12, seed=5), {"cond_limit": 1.0},
         "eigenvector condition", (11, 11)),
        (lambda: random_unbroken_pt(12, seed=5), {"signature": 1e-300},
         "signature residuals exceed tolerance", (4, 5)),
        (lambda: random_unbroken_pt(12, seed=5), {"signature_zero": 1e300}, "signature:", (4, 4)),
        (_perturbed_chain, {"phase": 1e-300}, "signature: state 0 is not", (4, 4)),
        (_perturbed_chain, {"real": 1e-300}, "classification:", (4, 4)),
    ], ids=["cond-limit", "signature", "signature-zero", "phase", "real"])
    def test_overridden_threshold_is_noted_as_an_anomaly(self, make, tol, note, counts):
        # each field reaches the stage that reads it; the run itself completes
        h, parity = make()
        assert full_verification(h, parity).anomalies == ()
        report = full_verification(h, parity, Tolerances().override(**tol))
        assert report.failure is None
        assert len(report.anomalies) == 1 and report.anomalies[0].startswith(note)
        assert report.counts == counts

    def test_timings_present(self):
        # an unbroken run passes every stage, each timed once, in order
        h, parity = two_level(1.0, 2.0)
        report = full_verification(h, parity)
        assert list(report.timings) == STAGES
        assert all(value >= 0.0 for value in report.timings.values())
        # a broken run skips only the sign-dependent stages
        broken = full_verification(*two_level(2.0, 1.0))
        assert list(broken.timings) == [key for key in STAGES if key not in (
            "phase-and-signature", "dual-via-inversion", "signature-theorem",
            "dual-via-signature", "Eq16", "Eq8", "Eq9", "Eq6-props")]

    def test_defects_are_measured_inside_a_stage(self):
        # scoring and serializing the run read what the "defects" stage measured
        art = run_pipeline(*random_unbroken_pt(12, seed=5))
        assert {"duality_defect", "completeness_defect"} <= set(art.system.__dict__)

    def test_trivial_parity_flagged(self):
        h = np.diag([1.0, 2.0])
        parity = make_parity("explicit", 2, matrix=np.eye(2))
        report = full_verification(h, parity)
        assert report.parity.is_trivial
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

    @pytest.mark.parametrize("name", sorted(THRESHOLDS))
    def test_each_relation_reads_its_own_threshold(self, name):
        # doubling one field moves exactly the thresholds that read it
        h, parity = two_level(1.0, 2.0)
        doubled = 2.0 * getattr(Tolerances(), name)
        base = full_verification(h, parity)
        report = full_verification(h, parity, Tolerances().override(**{name: doubled}))
        moved = [new.id for old, new in zip(base.relations, report.relations)
                 if new.tolerance != old.tolerance]
        assert moved == THRESHOLDS[name]
        scale = 1.0 + np.max(np.abs(h)) if name == "symmetry" else 1.0
        assert all(report.relation(rid).tolerance == doubled * scale for rid in moved)

    def test_conventions_recorded(self):
        h, parity = two_level(1.0, 2.0)
        conventions = report_to_dict(full_verification(h, parity))["conventions"]
        assert len(conventions) >= 3
        assert all(isinstance(c, str) for c in conventions)

    def test_complex_input_is_kept_not_copied(self):
        # the result keeps H, so a complex128 input must not cost a second copy
        h, parity = random_unbroken_pt(8, seed=0)
        assert full_verification(h, parity).h is h


def _householder_case():
    """A real Householder parity, which keeps U dense, and an H symmetric
    under it only up to rounding: the real route is forced for it by
    patching ``verify.check_pt_symmetry`` to 0."""
    n = 10
    rng = np.random.default_rng(4)
    v = rng.standard_normal(n)
    p = np.eye(n) - 2.0 * np.outer(v, v) / (v @ v)
    parity = make_parity("explicit", n, matrix=p)
    a = rng.standard_normal((n, n)) + 0.2j * rng.standard_normal((n, n))
    a = a + a.T + np.diag(3.0 * np.arange(n))
    return 0.5 * (a + p @ a.conj() @ p), parity


def _swap_pairs_case(n, seed):
    """random_unbroken_pt(n, seed) relabelled so that its grid reversal is
    the swap-pairs parity: sites i and n-1-i become 2i and 2i+1, and an odd
    middle site goes last.  A permutation is exact, so H stays exactly
    invariant."""
    h, _ = random_unbroken_pt(n, seed=seed)
    half = n // 2
    order = np.full(n, half)  # order[new] = old
    order[0:2 * half:2] = np.arange(half)
    order[1:2 * half:2] = n - 1 - np.arange(half)
    return np.ascontiguousarray(h[np.ix_(order, order)]), make_parity("swap-pairs", n)


def _complex_parity_case():
    # P = sigma_y is a self-adjoint involution with imaginary entries
    parity = make_parity("explicit", 2, matrix=np.array([[0.0, -1j], [1j, 0.0]]))
    a = np.array([[1.0 + 2.0j, 3.0 - 1.0j], [0.5 + 1.0j, -2.0 + 0.25j]])
    p = parity.matrix
    return 0.5 * (a + p @ a.conj() @ p), parity


class TestEigensolveRoute:
    """Exactly PT-symmetric inputs with a real parity are solved once, in
    real arithmetic, by ``eigendecompose_real`` whatever their spectrum;
    every other input is solved as a complex matrix, H and H-adjoint
    separately, by ``eigendecompose``."""

    @pytest.fixture
    def seen(self, monkeypatch):
        calls = []
        for name in ("eigendecompose", "eigendecompose_real"):
            def spy(m, *args, _original=getattr(biortho, name), _name=name, **kwargs):
                calls.append((_name, np.asarray(m).dtype))
                return _original(m, *args, **kwargs)

            monkeypatch.setattr(biortho, name, spy)
        return calls

    REAL = [("eigendecompose_real", np.float64)]
    COMPLEX = [("eigendecompose", np.complex128)] * 2

    @pytest.mark.parametrize("make, calls, exact", [
        (lambda: lattice_chain(16, 0.3, 1.0), REAL, True),
        (lambda: lattice_chain(16, 1.5, 1.0), REAL, True),
        (lambda: random_unbroken_pt(9, seed=4), REAL, True),
        (lambda: random_pt(9, seed=2), REAL, True),
        (lambda: (np.array([[1j, 2.0], [2.0, 1j]]), make_parity("swap-pairs", 2)), COMPLEX, False),
        (_perturbed_chain, COMPLEX, False),
        (_complex_parity_case, COMPLEX, True),
    ], ids=["chain", "chain-broken", "random-unbroken", "random-broken", "non-pt-swap",
            "perturbed-1e-15", "complex-parity"])
    def test_solver_dtype(self, seen, make, calls, exact):
        h, parity = make()
        report = full_verification(h, parity)
        assert seen == calls
        assert (report.relation("PT-comm").residual == 0.0) == exact

    def test_eigensystem_is_not_kept(self):
        h, parity = lattice_chain(8, 0.3, 1.0)
        assert not hasattr(run_pipeline(h, parity), "eigensystem")


def _numbers_masked(text):
    """``text`` with each number replaced by '#': a failure or anomaly's
    stage and kind."""
    return None if text is None else re.sub(r"[-+]?\d+(\.\d+)?(e[-+]?\d+)?", "#", text)


class TestRealArithmeticRoute:
    """An exactly PT-symmetric input runs every stage after the eigensolve
    in float64, in the parity's real basis.  The reference maps the same
    eigensolve's vectors back first, so every later stage runs in complex
    arithmetic in the input basis.  A failure's numbers may move (on the
    golden inputs, those of a broken spectrum's singular cluster and
    duality defect); its stage and kind may not."""

    @pytest.fixture
    def reference(self, monkeypatch):
        def run(h, parity):
            with monkeypatch.context() as patch:
                patch.setattr(verify, "solve_real_form", lambda h, basis, tol: (
                    biortho.solve_real_form(h, basis, tol=tol).in_original_basis()))
                return full_verification(h, parity)
        return run

    @staticmethod
    def _agree(real, reference):
        assert _numbers_masked(real.failure) == _numbers_masked(reference.failure)
        assert real.anomalies == reference.anomalies
        assert [r.status for r in real.relations] == [r.status for r in reference.relations]
        for a, b in zip(real.relations, reference.relations):
            if a.residual is not None:
                assert abs(a.residual - b.residual) <= 1e-3 * a.tolerance, a.id
        if real.system is not None:
            assert np.array_equal(real.eigenvalues, reference.eigenvalues)
        if real.signature is not None:
            assert np.array_equal(real.signature.values, reference.signature.values)

    def test_small_ensemble(self, small_ensemble, reference):
        for art in small_ensemble:
            real = full_verification(art.h, art.parity)
            flipped = inverse_via_signature(real.gram, real.signature)
            assert real.gram.dtype == flipped.dtype == np.float64
            self._agree(real, reference(art.h, art.parity))

    @pytest.mark.parametrize("name", sorted(GOLDEN_INPUTS))
    def test_golden_inputs(self, name, reference):
        h, parity = GOLDEN_INPUTS[name]()
        self._agree(full_verification(h, parity), reference(h, parity))

    def test_dense_basis(self, monkeypatch, reference):
        h, parity = _householder_case()
        monkeypatch.setattr(verify, "check_pt_symmetry", lambda h, parity: 0.0)
        real = full_verification(h, parity)
        assert not parity.real_basis().indexed
        assert real.gram.dtype == np.float64 and real.counts == (11, 11)
        self._agree(real, reference(h, parity))

    def test_reference_runs_in_complex_arithmetic(self, reference):
        art = reference(*lattice_chain(16, 0.3, 1.0))
        assert art.gram.dtype == np.complex128

    def test_after_the_eigensolve_no_dense_product_against_u(self, monkeypatch):
        # a permutation parity's U is dense only to form Re(U^dagger H U)
        h, parity = random_unbroken_pt(24, seed=3)
        basis = parity.real_basis()
        assert basis.indexed
        dense = type(basis).dense
        calls = []
        monkeypatch.setattr(type(basis), "dense", lambda self: calls.append(1) or dense(self))
        monkeypatch.setattr(np.linalg, "eigh", None)  # the cached basis is reused
        art = full_verification(h, parity)
        assert art.counts == (11, 11) and art.gram.dtype == np.float64
        assert calls == [1]

    def test_real_form_is_formed_once(self, monkeypatch):
        # one Re(U^dagger H U) per run: the eigensolve's input, reused by the charge
        h, parity = random_unbroken_pt(24, seed=3)
        basis = parity.real_basis()
        real_form, eigendecompose_real = type(basis).real_form, biortho.eigendecompose_real
        formed, solved = [], []
        monkeypatch.setattr(type(basis), "real_form",
                            lambda self, m: formed.append(real_form(self, m)) or formed[-1])
        monkeypatch.setattr(biortho, "eigendecompose_real",
                            lambda m, **kwargs: solved.append(m) or eigendecompose_real(m, **kwargs))
        assert full_verification(h, parity).counts == (11, 11)
        assert len(formed) == len(solved) == 1 and solved[0] is formed[0]


def _mapped_back(system):
    """An eigensystem of the real route read in the input basis by the test
    itself: each conjugate pair's columns (a, b) made (a + ib) / sqrt(2) and
    (a - ib) / sqrt(2), then mapped by the dense U; its condition is
    numpy's, of those vectors."""
    u = system.basis.dense()

    def vectors(m):
        out = m.astype(np.complex128)
        if system.pairs is not None:
            k, j = system.pairs.T
            out[:, k] = (m[:, k] + 1j * m[:, j]) / np.sqrt(2.0)
            out[:, j] = (m[:, k] - 1j * m[:, j]) / np.sqrt(2.0)
        return u @ out

    rights = vectors(system.rights)
    return EigenSystem(system.eigenvalues, rights, vectors(system.lefts), float(np.linalg.cond(rights)))


@pytest.fixture
def complex_reference(monkeypatch):
    """full_verification with the real route's eigensystem mapped back by
    ``_mapped_back``: every stage after the eigensolve runs in complex128 in
    the input basis."""
    def run(h, parity):
        with monkeypatch.context() as patch:
            patch.setattr(verify, "solve_real_form", lambda h, basis, tol: (
                _mapped_back(biortho.solve_real_form(h, basis, tol=tol))))
            return full_verification(h, parity)
    return run


class TestRealRouteForEverySpectrum:
    """Every exactly PT-symmetric input with a real parity, whatever its
    spectrum, keeps its system in U's coordinates and runs its SVDs and its
    Gram eigenvalues in float64; U is made dense only to form the real form
    Re(U^dagger H U)."""

    CASES = {
        **{name: GOLDEN_INPUTS[name] for name in sorted(GOLDEN_INPUTS) if name != "non_pt_swap"},
        "random_pt_9_s2": lambda: random_pt(9, seed=2),
        "ix3_64": lambda: discretized_schrodinger(64, 7.0, 1.0),
        # dgeev splits this chain's real pair at the exceptional point by rounding
        "chain_4_below_ep": lambda: lattice_chain(4, 1.0 - 1e-16, 1.0),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_real_svd_and_gram_factor_and_no_map_back(self, monkeypatch, name):
        h, parity = self.CASES[name]()
        basis = parity.real_basis()
        seen = {"svd": [], "potrf": []}
        for module, fn, key in ((np.linalg, "svd", "svd"), (scipy.linalg.lapack, "dpotrf", "potrf"),
                                (scipy.linalg.lapack, "zpotrf", "potrf")):
            def spy(a, *args, _original=getattr(module, fn), _seen=seen[key], **kwargs):
                _seen.append(np.asarray(a).dtype)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(module, fn, spy)
        forming, outside = [], []
        real_form, dense = RealBasis.real_form, RealBasis.dense

        def counted_real_form(self, m):
            forming.append(1)
            try:
                return real_form(self, m)
            finally:
                forming.pop()

        def counted_dense(self):
            if not forming:
                outside.append(1)
            return dense(self)

        monkeypatch.setattr(RealBasis, "real_form", counted_real_form)
        monkeypatch.setattr(RealBasis, "dense", counted_dense)
        art = full_verification(h, parity)
        assert art.pt_residual == 0.0
        assert art.system is None or art.system.coordinates.basis is basis
        assert seen["svd"] and set(seen["svd"]) == {np.dtype(np.float64)}
        assert set(seen["potrf"]) <= {np.dtype(np.float64)}
        assert len(seen["potrf"]) == ("gram" in art.timings)
        assert outside == []


class TestPairColumnsAgainstComplexReference:
    """A broken spectrum's conjugate pairs, kept as real columns, give the
    results of the complex route: against ``complex_reference``, identical
    eigenvalues, the eigenvector condition to 1e-12 relative, G and both
    defects within 4 n eps kappa_2, and equal statuses, classification and
    failure and anomaly kinds."""

    @staticmethod
    def _agree(route, reference):
        n = route.h.shape[0]
        assert np.array_equal(route.eigenvalues, reference.eigenvalues)
        kappa = reference.eigvec_condition
        assert abs(route.eigvec_condition - kappa) <= 1e-12 * kappa
        bound = 4 * n * np.finfo(float).eps * kappa
        if route.system is not None:
            assert abs(route.system.duality_defect - reference.system.duality_defect) <= bound
            assert abs(route.system.completeness_defect - reference.system.completeness_defect) <= bound
        if route.gram is not None:
            assert np.max(np.abs(route.gram - reference.gram)) <= bound
        assert [r.status for r in route.relations] == [r.status for r in reference.relations]
        assert route.classification == reference.classification
        assert _numbers_masked(route.failure) == _numbers_masked(reference.failure)
        assert [_numbers_masked(a) for a in route.anomalies] == [
            _numbers_masked(a) for a in reference.anomalies]

    @pytest.mark.parametrize("make", [lambda: two_level(2.0, 1.0), lambda: lattice_chain(16, 1.5, 1.0)],
                             ids=["two_level_2_1", "lattice_chain_16_1.5"])
    def test_named_inputs(self, complex_reference, make):
        h, parity = make()
        route = full_verification(h, parity)
        assert route.system.coordinates.pairs is not None
        self._agree(route, complex_reference(h, parity))

    def test_broken_draws(self, complex_reference):
        # the draws of TestKreinSignCount::test_broken_draws whose real form
        # dgeev solves with conjugate pairs; each pair's stored columns (a, b)
        # have ||a||^2 + ||b||^2 = 2 to 4 eps relative, as x = (a + ib) / sqrt(2)
        # has unit norm
        compared = 0
        for n in range(2, 33):
            for seed in range(12):
                h, parity = random_pt(n, seed)
                held = biortho.solve_real_form(h, parity.real_basis())
                if held.pairs is None:
                    continue
                for columns in (held.rights, held.lefts):
                    squares = np.sum(columns[:, held.pairs] ** 2, axis=(0, 2))
                    assert np.max(np.abs(squares - 2.0)) <= 4 * np.finfo(float).eps * 2.0
                self._agree(full_verification(h, parity), complex_reference(h, parity))
                compared += 1
        assert compared >= 360

    @pytest.mark.parametrize("n, anomaly", [
        (4, "signature: parity expectation of state 1 is "),
        (12, "signature: state 5 is not parity-conjugation invariant "),
    ])
    def test_pair_counted_real_reaches_the_signature_stage(self, complex_reference, n, anomaly):
        # lattice_chain(n, gamma_c - 1e-16, 1), gamma_c = 1: dgeev splits a
        # real pair at the exceptional point into lambda +/- i eps that
        # classify_spectrum counts as real.  In U's coordinates PT is plain
        # conjugation, so the pair is re-phased as two complex vectors there
        # (n = 4 passes the phase check) and the run keeps the complex
        # route's verdict; at kappa_2 ~ 1e9 the defects are rounding.
        h, parity = lattice_chain(n, 1.0 - 1e-16, 1.0)
        assert biortho.solve_real_form(h, parity.real_basis()).pairs is not None
        route, reference = full_verification(h, parity), complex_reference(h, parity)
        assert route.unbroken and "phase-and-signature" in route.timings
        assert len(route.anomalies) == 2 and route.anomalies[1].startswith(anomaly)
        assert route.failure is None and reference.failure is None
        assert [_numbers_masked(a) for a in route.anomalies] == [
            _numbers_masked(a) for a in reference.anomalies]


class TestKeptCoordinates:
    """A real-route run with a real spectrum keeps its states and duals in
    U's float64 coordinates.  Its ``system`` maps them to input-basis arrays
    on first read by ``RealBasis.apply``, then caches them; scoring and
    serializing the run map nothing."""

    CASES = {
        "grid-reversal-8": lambda: random_unbroken_pt(8, seed=1),
        "grid-reversal-9": lambda: random_unbroken_pt(9, seed=2),
        "grid-reversal-512": lambda: random_unbroken_pt(512, seed=0),
        "swap-pairs-10": lambda: _swap_pairs_case(10, 3),
        "swap-pairs-11": lambda: _swap_pairs_case(11, 4),
        "householder": _householder_case,
    }

    @pytest.fixture
    def maps(self, monkeypatch):
        calls = []
        apply = RealBasis.apply
        monkeypatch.setattr(RealBasis, "apply", lambda self, x: calls.append(1) or apply(self, x))
        return calls

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_arrays_are_the_map_of_the_kept_coordinates(self, monkeypatch, name):
        if name == "householder":
            monkeypatch.setattr(verify, "check_pt_symmetry", lambda h, parity: 0.0)
        art = run_pipeline(*self.CASES[name]())
        assert art.failure is None and not art.anomalies and art.signature.valid
        system, held = art.system, art.system.coordinates
        assert type(system) is BiorthonormalSystem and system.basis is None
        assert held.basis is art.parity.real_basis() and held.basis.indexed == (name != "householder")
        assert held.states.dtype == held.duals.dtype == art.gram.dtype == np.float64
        assert not {"states", "duals"} & set(system.__dict__)
        for got, coordinates in ((lambda: system.states, held.states), (lambda: system.duals, held.duals)):
            first = got()
            want = held.basis.apply(coordinates)
            assert first.dtype == want.dtype and first.shape == want.shape
            assert first.tobytes() == want.tobytes()
            assert got() is first

    def test_scoring_and_reports_map_nothing(self, maps):
        art = full_verification(*random_unbroken_pt(12, seed=5))
        assert art.counts == (11, 11) and art.system.coordinates.basis is not None
        # the run scored its relations without caching a mapped copy
        assert not {"states", "duals"} & set(art.system.__dict__)
        maps.clear()  # the run's own maps
        render_report_text(report_to_dict(art))
        _ = art.eigenvalues, art.system.duality_defect, art.system.completeness_defect
        assert maps == []
        _ = art.system.states, art.system.states
        assert len(maps) == 1
        _ = art.system.duals, art.system.duals
        assert len(maps) == 2

    def test_repr_maps_nothing(self, maps):
        art = run_pipeline(*random_unbroken_pt(12, seed=5))
        maps.clear()  # the run's own maps
        assert repr(art.system) == "BiorthonormalSystem(dim=12, dtype=complex128, input-basis view)"
        assert repr(art.system.coordinates) == "BiorthonormalSystem(dim=12, dtype=float64, U's coordinates)"
        assert repr(art.system) in repr(art)
        assert maps == [] and not {"states", "duals"} & set(art.system.__dict__)

    def test_input_basis_runs_hold_their_arrays(self, maps):
        art = run_pipeline(*_perturbed_chain())
        assert art.failure is None and art.signature is not None
        system = art.system
        assert not hasattr(system, "coordinates") and system.basis is None
        assert {"states", "duals"} <= set(system.__dict__)
        assert system.states.dtype == system.duals.dtype == np.complex128
        assert repr(system) == f"BiorthonormalSystem(dim={system.dim}, dtype=complex128, input basis)"
        assert maps == []

    @pytest.mark.parametrize("make", [lambda: random_pt(9, seed=2), lambda: lattice_chain(16, 1.5, 1.0)],
                             ids=["random-broken", "chain-broken"])
    def test_broken_runs_keep_pair_columns(self, maps, make):
        # the biorthonormalized system itself, its conjugate pairs as real
        # columns; the input-basis states, duals and G are formed on first read
        h, parity = make()
        art = run_pipeline(h, parity)
        maps.clear()  # the run's own maps
        assert art.failure is None and art.signature is None and not art.unbroken
        system, held = art.system, art.system.coordinates
        want = biortho.biorthonormalize(biortho.solve_real_form(h, parity.real_basis()))
        assert held.basis is parity.real_basis() and held.pairs is not None
        assert np.array_equal(held.pairs, want.pairs)
        assert held.states.tobytes() == want.states.tobytes()
        assert held.duals.tobytes() == want.duals.tobytes()
        assert held.states.dtype == held.duals.dtype == np.float64
        assert repr(held) == (f"BiorthonormalSystem(dim={held.dim}, dtype=float64, U's coordinates, "
                              f"{len(held.pairs)} conjugate pairs as real columns)")
        g, pairs = art.gram_of_columns
        assert pairs is held.pairs and g.dtype == np.float64
        assert np.array_equal(g, held.states.T @ held.states)
        assert not {"states", "duals"} & set(system.__dict__) and maps == []
        for name in ("states", "duals"):
            first = getattr(system, name)
            assert first.tobytes() == held.basis.apply(
                biortho.complex_columns(getattr(held, name), held.pairs)).tobytes()
            assert getattr(system, name) is first
        gram = art.gram
        assert gram.dtype == np.complex128 and art.gram is gram
        assert np.array_equal(gram, biortho.complex_overlaps(g, pairs))
        assert np.max(np.abs(gram - system.states.conj().T @ system.states)) <= 1e-14


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
        "ParityOperator", "Signature", "EigenSystem", "BiorthonormalSystem", "PipelineArtifacts",
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

    @pytest.mark.parametrize("repetitions", [0, 1])
    def test_rejects_dim_below_two(self, repetitions):
        with pytest.raises(ValueError):
            bench_dual_routes([8, 1], repetitions=repetitions, seed=0)

    def test_row_fields(self):
        rows = bench_dual_routes([16], repetitions=3, seed=3)
        row = rows[0]
        assert row.t_inversion > 0 and row.t_signature > 0
        assert row.speedup == pytest.approx(row.t_inversion / row.t_signature)

    def test_discrepancy_is_the_runs(self):
        (row,) = bench_dual_routes([24], 1, seed=5)
        assert row.discrepancy == run_pipeline(*random_unbroken_pt(24, seed=5)).route_discrepancy

    def test_times_are_medians_of_the_run_stages(self, monkeypatch):
        stages = iter([(3.0, 0.5), (1.0, 2.0), (2.0, 1.5)])
        original = verify.run_pipeline

        def fixed(h, parity, tol):
            art = original(h, parity, tol)
            art.timings["dual-via-inversion"], art.timings["dual-via-signature"] = next(stages)
            return art

        monkeypatch.setattr(verify, "run_pipeline", fixed)
        (row,) = bench_dual_routes([8], repetitions=3, seed=0)
        assert (row.t_inversion, row.t_signature) == (2.0, 1.5)


class TestStage:
    """``_stage`` times each stage into the run's timings, also when the
    stage raises; a NumericalError becomes the run's failure, prefixed by
    the stage's label, and every exception propagates.  The run's one
    handler stops it at a NumericalError and lets any other propagate."""

    @staticmethod
    def _art():
        return verify.PipelineArtifacts(*two_level(1.0, 2.0))

    def test_times_a_stage_that_returns(self):
        art = self._art()
        with verify._stage(art, "gram"):
            time.sleep(0.002)
        assert art.timings["gram"] >= 0.002 and art.failure is None

    @pytest.mark.parametrize("label, prefix", [(None, "gram"), ("Gram assembly", "Gram assembly")])
    def test_numerical_error_becomes_the_failure(self, label, prefix):
        art = self._art()
        with pytest.raises(SingularMatrix):
            with verify._stage(art, "gram", label):
                time.sleep(0.002)
                raise SingularMatrix("pivot 3 is zero")
        assert art.failure == f"{prefix}: pivot 3 is zero"
        assert art.timings["gram"] >= 0.002

    def test_other_exceptions_propagate_and_are_timed(self):
        art = self._art()
        with pytest.raises(ValueError, match="not numerical"):
            with verify._stage(art, "classify"):
                time.sleep(0.002)
                raise ValueError("not numerical")
        assert art.failure is None and art.timings["classify"] >= 0.002

    def test_a_failed_stage_stops_the_run(self, monkeypatch):
        def singular(*args, **kwargs):
            raise SingularMatrix("pivot 0 is zero")

        monkeypatch.setattr(verify, "gram_inverse", singular)
        art = full_verification(*two_level(1.0, 2.0))
        assert art.failure == "dual inversion: pivot 0 is zero"
        assert list(art.timings) == STAGES[:STAGES.index("dual-via-inversion") + 1]

    @pytest.mark.parametrize("name, timing", [
        ("diagnose_exceptional", "eigensystem"), ("biorthonormalize", "biorthonormalize"),
        ("classify_spectrum", "classify"), ("extract_signature", "phase-and-signature"),
        ("gram_matrix", "gram"), ("gram_inverse", "dual-via-inversion"),
        ("verify_signature_theorem", "signature-theorem"), ("dual_via_signature", "dual-via-signature"),
        ("check_unconventional_completeness", "Eq8"), ("check_indefinite_norms", "Eq9"),
        ("build_charge", "Eq6-props"),
    ])
    def test_the_run_handles_numerical_errors_only(self, monkeypatch, name, timing):
        runs, artifacts = [], verify.PipelineArtifacts
        monkeypatch.setattr(verify, "PipelineArtifacts", lambda *args: runs.append(artifacts(*args)) or runs[-1])

        def not_numerical(*args, **kwargs):
            time.sleep(0.002)
            raise ValueError("not numerical")

        monkeypatch.setattr(verify, name, not_numerical)
        with pytest.raises(ValueError, match="not numerical"):
            full_verification(*two_level(1.0, 2.0))
        (art,) = runs
        assert art.failure is None and art.timings[timing] >= 0.002
        assert list(art.timings) == STAGES[:STAGES.index(timing) + 1]


class TestGramInversePayload:
    """A run keeps G alone; ``analysis_to_dict`` forms S G S from G and the
    signature, bit for bit the sign flip, when the run reached Eq12, and
    writes null otherwise."""

    def test_unbroken_runs_write_the_sign_flip(self, small_ensemble):
        for art in small_ensemble[:10]:
            payload = analysis_to_dict(art)
            expected = inverse_via_signature(art.gram, art.signature)
            assert payload["gram_inverse"].dtype == expected.dtype
            assert np.array_equal(payload["gram_inverse"], expected)
            assert payload["gram_inverse_route"] == "signature"

    @pytest.mark.parametrize("case", ["dual-inversion", "invalid-signature", "broken"])
    def test_null_without_the_theorem_check(self, monkeypatch, case):
        tol = Tolerances()
        if case == "dual-inversion":
            def singular(*args, **kwargs):
                raise SingularMatrix("pivot 0 is zero")

            monkeypatch.setattr(verify, "gram_inverse", singular)
            h, parity = two_level(1.0, 2.0)
        elif case == "invalid-signature":
            h, parity = random_unbroken_pt(12, seed=5)
            tol = tol.override(signature=1e-300)
        else:
            h, parity = two_level(2.0, 1.0)
        art = run_pipeline(h, parity, tol)
        assert art.gram is not None and art.theorem is None
        assert (art.failure is not None) == (case == "dual-inversion")
        assert (art.signature is not None and art.signature.valid) == (case == "dual-inversion")
        payload = json.loads(dumps(analysis_to_dict(art)))
        assert payload["gram"] is not None
        assert payload["gram_inverse"] is None and payload["gram_inverse_route"] is None


def _traced_run(n, make=random_unbroken_pt):
    """full_verification of make(n, seed=0), and the bytes of its
    allocations that the result still holds and their traced peak."""
    import tracemalloc

    h, parity = make(n, seed=0)
    parity.real_basis()  # the parity's cached basis is not the run's
    tracemalloc.start()
    try:
        art = full_verification(h, parity)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a broken spectrum scores the two defects and the two symmetry residuals
    assert art.counts == ((11, 11) if art.unbroken else (4, 4))
    return art, kept, peak


class TestMemoryGuard:
    """The memory of one run, in units of one n x n float64 array: the kept
    result (states and duals in U's float64 coordinates and the real Gram
    matrix) is 3 units, and the largest stage, the signature theorem, peaks
    at about 9 at n = 512.  An n x n copy that creeps into a stage, or into
    the result, crosses a bound.  Only U @ x by index and the max modulus of
    U m U^dagger run in row blocks, because only their whole-array forms
    would raise the peak."""

    PEAK_UNITS = 12.0  # 11.28 at n = 256, in Eq8 and Eq6-props (one block there)
    KEPT_UNITS = 3.5
    # above n = 256 the whole run's peak: 9.02 at n = 512, in signature-theorem
    WORKING_SET = 9.2
    # every stage's peak: 9.02 at n = 512, in the same stage; the eigensolve
    # reads 7.05, and 11.05 with a complex copy of its real vectors; a
    # whole-array operator_max_abs reads 12.0
    EVERY_STAGE = 9.25
    # phase-and-signature builds one new system: 7.03 at n = 512, and 9.05
    # with a sign-flipped copy of the states and duals made before the rescale
    PHASE_AND_SIGNATURE = 7.25
    # a broken spectrum's run, random_pt(512, 0): 13.88 in biorthonormalize,
    # whose duality matrix W^dagger (D_r^T X_r) W is complex; 15.02 when the
    # eigensolve mapped the complex vectors back to the input basis
    BROKEN_PEAK = 14.5

    def test_peak_of_full_verification(self):
        n = 256
        _, _, peak = _traced_run(n)
        assert peak / (8 * n * n) <= self.PEAK_UNITS

    @pytest.mark.parametrize("n", [256, 512])
    def test_kept_result(self, n):
        # read before the input-basis states, whose first read maps them
        art, kept, _ = _traced_run(n)
        assert not {"states", "duals"} & set(art.system.__dict__)
        assert kept / (8 * n * n) <= self.KEPT_UNITS

    @staticmethod
    def _units(art):
        """Bytes of one n x n float64 array, checked against what the run
        holds: states + duals + G = 3 units."""
        system, unit = art.system.coordinates, 8 * art.gram.size
        assert sum(a.nbytes for a in (system.states, system.duals, art.gram)) == 3 * unit
        return unit

    def test_broken_run(self):
        # the kept result is the real pair columns and their real Gram matrix
        n = 512
        art, kept, peak = _traced_run(n, random_pt)
        assert not art.unbroken and art.gram_of_columns[1] is not None
        assert peak / (8 * n * n) <= self.BROKEN_PEAK
        assert kept / (8 * n * n) <= self.KEPT_UNITS

    def test_working_set_in_row_blocks(self):
        art, _, peak = _traced_run(512)
        assert peak <= self.WORKING_SET * self._units(art)

    def test_peak_of_every_stage(self, monkeypatch):
        import tracemalloc

        peaks, stage = {}, verify._stage

        @contextmanager
        def traced(art, timing, label=None):
            tracemalloc.reset_peak()
            with stage(art, timing, label):
                yield
            peaks[timing] = tracemalloc.get_traced_memory()[1]

        monkeypatch.setattr(verify, "_stage", traced)
        art, _, _ = _traced_run(512)
        assert list(peaks) == STAGES
        unit = self._units(art)
        ratios = {timing: peak / unit for timing, peak in peaks.items()}
        assert max(ratios.values()) <= self.EVERY_STAGE, ratios
        assert ratios["phase-and-signature"] <= self.PHASE_AND_SIGNATURE, ratios

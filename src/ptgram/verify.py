"""End-to-end verification pipeline, relation checklist, and the benchmark
of the two dual-basis construction routes.

``run_pipeline`` executes the whole analysis (eigensystem, dual pair,
spectrum classification, phase fixing, sign extraction, Gram matrix, all
relation residuals) and collects every intermediate plus per-stage wall
times; ``full_verification`` condenses that into a fixed eleven-entry
checklist report.  Numerical failures are captured in the report instead of
propagating, and sign-dependent relations on broken-spectrum inputs are
marked not-applicable rather than failed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .biortho import (
    BiorthonormalSystem,
    biorthonormalize,
    diagnose_exceptional,
    pair_left_right,
)
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    NotPTInvariant,
    NumericalError,
    SignatureUndefined,
    UnpairedComplexEigenvalue,
)
from .gram import (
    GramPair,
    TheoremCheck,
    check_indefinite_norms,
    check_unconventional_completeness,
    dual_via_inversion,
    dual_via_signature,
    gram_matrix,
    inverse_via_signature,
    verify_signature_theorem,
)
from .linalg import as_complex_matrix, max_abs, solve
from .models import random_unbroken_pt
from .symmetry import (
    ParityOperator,
    Signature,
    SpectrumClassification,
    build_charge,
    check_pseudo_hermiticity,
    check_pt_symmetry,
    classify_spectrum,
    extract_signature,
    fix_pt_phase,
)

__all__ = [
    "CHECKLIST",
    "RelationCheck",
    "VerificationReport",
    "PipelineArtifacts",
    "run_pipeline",
    "full_verification",
    "BenchRow",
    "bench_dual_routes",
]

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"

# Fixed checklist: (id, human description).  Every report carries each id
# exactly once, in this order.
CHECKLIST = (
    ("Eq3", "dual pair resolves the identity both ways"),
    ("Eq4", "states and duals are mutually orthonormal"),
    ("Eq5", "each dual equals its signed parity-reflected state"),
    ("Eq6-props", "charge squares to identity, commutes with H, maps states to duals"),
    ("Eq8", "signed state completeness against parity"),
    ("Eq9", "signed unconjugated overlaps are orthonormal"),
    ("Eq12", "sign-flipped Gram matrix inverts the Gram matrix"),
    ("Eq16", "inversion-free duals agree with the solver route"),
    ("PT-comm", "H invariant under parity + conjugation"),
    ("pseudo-herm", "P H P equals the adjoint of H"),
    ("diag-equality", "Gram matrix and its inverse share the diagonal"),
)

SIGN_DEPENDENT = ("Eq5", "Eq6-props", "Eq8", "Eq9", "Eq12", "Eq16", "diag-equality")


@dataclass(frozen=True)
class RelationCheck:
    """One checklist entry: measured residual against its pass threshold."""

    id: str
    description: str
    residual: float | None
    tolerance: float | None
    status: str

    @property
    def applicable(self) -> bool:
        return self.status != NOT_APPLICABLE

    @property
    def passed(self) -> bool:
        return self.status == PASS


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Outcome of the full relation checklist for one (H, parity) input."""

    relations: tuple[RelationCheck, ...]
    eigenvalues: np.ndarray | None
    classification: SpectrumClassification | None
    signature: Signature | None
    eigvec_condition: float | None
    min_eigen_gap: float | None
    parity_kind: str
    parity_trivial: bool
    charge_nonhermiticity: float | None
    timings: dict[str, float]
    failure: str | None
    anomalies: tuple[str, ...]
    conventions: tuple[str, ...]

    def relation(self, relation_id: str) -> RelationCheck:
        for entry in self.relations:
            if entry.id == relation_id:
                return entry
        raise KeyError(relation_id)

    @property
    def all_applicable_pass(self) -> bool:
        return all(entry.passed for entry in self.relations if entry.applicable)

    @property
    def counts(self) -> tuple[int, int]:
        """(passing, applicable) relation counts."""
        applicable = [entry for entry in self.relations if entry.applicable]
        return sum(entry.passed for entry in applicable), len(applicable)


CONVENTIONS = (
    "time reversal acts as entrywise complex conjugation in the working basis",
    "states are re-phased so each equals its parity-conjugated reflection",
    "state/dual pairs share a real rescale making dual = sign * P state exact",
    "dual construction sums over the row index of the Gram matrix at fixed column",
)


@dataclass(eq=False)
class PipelineArtifacts:
    """Every intermediate of one pipeline run (see :func:`run_pipeline`)."""

    h: np.ndarray
    parity: ParityOperator
    pt_residual: float
    pseudo_residual: float
    eigvec_condition: float | None = None
    min_eigen_gap: float | None = None
    system: BiorthonormalSystem | None = None
    classification: SpectrumClassification | None = None
    signature: Signature | None = None
    gram_pair: GramPair | None = None
    theorem: TheoremCheck | None = None
    duals_signature: np.ndarray | None = None
    route_discrepancy: float | None = None
    signed_completeness: float | None = None
    indefinite_norms: float | None = None
    charge_square_defect: float | None = None
    charge_commutator_defect: float | None = None
    charge_reflection_defect: float | None = None
    charge_nonhermiticity: float | None = None
    timings: dict[str, float] = field(default_factory=dict)
    failure: str | None = None
    anomalies: list[str] = field(default_factory=list)

    @property
    def unbroken(self) -> bool:
        return self.classification is not None and self.classification.unbroken


def run_pipeline(h, parity: ParityOperator, tol: Tolerances = DEFAULT_TOLERANCES) -> PipelineArtifacts:
    """Run the whole analysis, trapping numerical failures into the result.

    Stages: symmetry residuals, eigensystem pairing, biorthonormalization,
    spectrum classification, phase fixing + sign extraction (unbroken
    spectra only), Gram assembly, and all relation residuals.  When the
    parity is real and the parity-conjugation residual is exactly zero, the
    eigensystem is solved once, in real arithmetic, in the parity's real
    basis (:meth:`ParityOperator.real_basis`); any other input is solved as
    a complex matrix.  A numerical failure (non-convergence, defective input,
    singular or non-positive Gram) stops the pipeline and is recorded in
    ``failure``; structural anomalies (unpaired complex eigenvalues, a state
    that cannot be re-phased) only void the sign-dependent stages and are
    listed in ``anomalies``.
    """
    h = as_complex_matrix(h, name="H")
    clock = time.perf_counter

    t0 = clock()
    pt_res = check_pt_symmetry(h, parity)
    pseudo_res = check_pseudo_hermiticity(h, parity)
    art = PipelineArtifacts(h=h, parity=parity, pt_residual=pt_res, pseudo_residual=pseudo_res)
    art.timings["symmetry-checks"] = clock() - t0

    t0 = clock()
    # exactly invariant under a real parity: H is real in the parity's real basis
    basis = parity.real_basis() if pt_res == 0.0 else None
    try:
        eigensystem = pair_left_right(h, tol_pair=tol.pair, tol_eig=tol.eig, basis=basis)
    except NumericalError as exc:
        art.failure = f"eigensystem: {exc}"
        art.timings["eigensystem"] = clock() - t0
        return art
    del basis  # the run keeps no n x n array it will not read again
    condition, gap = diagnose_exceptional(eigensystem)
    art.eigvec_condition = condition
    art.min_eigen_gap = gap
    if condition > tol.cond_limit:
        art.anomalies.append(
            f"eigenvector condition {condition:.3e} exceeds {tol.cond_limit:.1e}: "
            "input is close to an exceptional point"
        )
    art.timings["eigensystem"] = clock() - t0

    t0 = clock()
    try:
        system = biorthonormalize(eigensystem, tol_dup=tol.dup, tol_fail=tol.duality_fail)
    except NumericalError as exc:
        art.failure = f"biorthonormalize: {exc}"
        art.timings["biorthonormalize"] = clock() - t0
        return art
    del eigensystem  # its rights and lefts are not read again
    art.system = system
    art.timings["biorthonormalize"] = clock() - t0

    t0 = clock()
    try:
        art.classification = classify_spectrum(system.eigenvalues, tol_real=tol.real)
    except UnpairedComplexEigenvalue as exc:
        art.anomalies.append(f"classification: {exc}")
    art.timings["classify"] = clock() - t0

    if art.unbroken:
        t0 = clock()
        try:
            phased = fix_pt_phase(system, parity, tol_phase=tol.phase)
            signature, rescaled = extract_signature(
                phased, parity, tol_signature=tol.signature, tol_zero=tol.signature_zero
            )
        except (NotPTInvariant, SignatureUndefined) as exc:
            art.anomalies.append(f"signature: {exc}")
        else:
            art.signature = signature
            art.system = rescaled
        art.timings["phase-and-signature"] = clock() - t0

    system = art.system
    t0 = clock()
    try:
        art.gram_pair = gram_matrix(system, tol_positivity=tol.positivity)
    except NumericalError as exc:
        art.failure = f"gram: {exc}"
        art.timings["gram"] = clock() - t0
        return art
    art.timings["gram"] = clock() - t0

    if art.signature is not None and art.signature.valid:
        gram = art.gram_pair.gram
        signature = art.signature

        t0 = clock()
        try:
            inverse = solve(gram, np.eye(system.dim, dtype=np.complex128), tol_solve=tol.solve)
        except NumericalError as exc:
            art.failure = f"dual inversion: {exc}"
            art.timings["dual-via-inversion"] = clock() - t0
            return art
        duals_inversion = system.states @ inverse
        art.timings["dual-via-inversion"] = clock() - t0
        art.theorem = verify_signature_theorem(gram, signature, inverse)

        t0 = clock()
        art.duals_signature = dual_via_signature(system.states, gram, signature)
        art.timings["dual-via-signature"] = clock() - t0

        art.gram_pair = GramPair(gram, inverse_via_signature(gram, signature))
        art.route_discrepancy = float(
            np.max(np.linalg.norm(art.duals_signature - duals_inversion, axis=0))
        )

        t0 = clock()
        art.signed_completeness = check_unconventional_completeness(system, signature, parity)
        art.indefinite_norms = check_indefinite_norms(system, signature, parity)

        charge = build_charge(system, signature)
        n = system.dim
        art.charge_square_defect = max_abs(charge @ charge - np.eye(n))
        comm = max_abs(charge @ h - h @ charge)
        art.charge_commutator_defect = comm / max(1.0, max_abs(charge) * max_abs(h))
        art.charge_reflection_defect = float(
            np.max(np.linalg.norm(parity.apply(charge) @ system.states - system.duals, axis=0))
        )
        art.charge_nonhermiticity = max_abs(charge - charge.conj().T)
        art.timings["relations"] = clock() - t0
    elif art.signature is not None and not art.signature.valid:
        art.anomalies.append(
            "signature residuals exceed tolerance; sign-dependent relations skipped"
        )

    return art


def _relation(relation_id: str, residual: float | None, tolerance: float | None) -> RelationCheck:
    description = dict(CHECKLIST)[relation_id]
    if residual is None:
        return RelationCheck(relation_id, description, None, tolerance, NOT_APPLICABLE)
    status = PASS if residual <= tolerance else FAIL
    return RelationCheck(relation_id, description, float(residual), float(tolerance), status)


def full_verification(h, parity: ParityOperator, tol: Tolerances = DEFAULT_TOLERANCES) -> VerificationReport:
    """Run the pipeline and score the fixed relation checklist.

    Sign-dependent relations come out not-applicable for broken-spectrum
    inputs (and after structural anomalies); a numerical failure leaves only
    the two symmetry relations scored.  Never raises on finite numeric input.
    """
    art = run_pipeline(h, parity, tol)
    scale = 1.0 + max_abs(art.h)
    symmetry_tol = tol.symmetry * scale

    sig = art.signature if (art.signature is not None and art.signature.valid) else None
    charge_worst = None
    if sig is not None and art.charge_square_defect is not None:
        charge_worst = max(
            art.charge_square_defect,
            art.charge_commutator_defect,
            art.charge_reflection_defect,
        )

    # Eq5 is scored off any extracted signature, valid or not: an invalid one
    # means the relation was measured and failed, not that it is inapplicable.
    eq5_residual = None if art.signature is None else float(np.max(art.signature.residuals))
    relations = (
        _relation("Eq3", None if art.system is None else art.system.completeness_defect, tol.relation),
        _relation("Eq4", None if art.system is None else art.system.duality_defect, tol.relation),
        _relation("Eq5", eq5_residual, tol.signature),
        _relation("Eq6-props", charge_worst, tol.relation),
        _relation("Eq8", art.signed_completeness, tol.relation),
        _relation("Eq9", art.indefinite_norms, tol.relation),
        _relation("Eq12", None if art.theorem is None else art.theorem.residual, tol.relation),
        _relation("Eq16", art.route_discrepancy, tol.relation),
        _relation("PT-comm", art.pt_residual, symmetry_tol),
        _relation("pseudo-herm", art.pseudo_residual, symmetry_tol),
        _relation("diag-equality", None if art.theorem is None else art.theorem.diagonal_gap, tol.diagonal),
    )
    return VerificationReport(
        relations=relations,
        eigenvalues=None if art.system is None else art.system.eigenvalues.copy(),
        classification=art.classification,
        signature=art.signature,
        eigvec_condition=art.eigvec_condition,
        min_eigen_gap=art.min_eigen_gap,
        parity_kind=art.parity.kind,
        parity_trivial=art.parity.is_trivial,
        charge_nonhermiticity=art.charge_nonhermiticity,
        timings=dict(art.timings),
        failure=art.failure,
        anomalies=tuple(art.anomalies),
        conventions=CONVENTIONS,
    )


@dataclass(frozen=True)
class BenchRow:
    """Median wall times of the two dual-basis routes at one dimension."""

    dim: int
    t_inversion: float
    t_signature: float
    speedup: float
    discrepancy: float


def bench_dual_routes(
    dims,
    repetitions: int,
    seed: int,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> list[BenchRow]:
    """Time dual-basis construction with and without Gram inversion.

    For each dimension a seeded unbroken random instance is prepared once,
    by :func:`run_pipeline`; the two routes then run ``repetitions`` times
    each on its states, Gram matrix and signature.
    Rows report median wall times, their ratio, and the maximum per-vector
    2-norm discrepancy between the two routes.  ``repetitions`` of zero (or
    less) yields an empty table.  An instance whose pipeline run fails or
    records an anomaly raises :class:`NumericalError`.
    """
    if repetitions <= 0:
        return []
    rows = []
    for i, dim in enumerate(dims):
        dim = int(dim)
        if dim < 2:
            raise ValueError(f"benchmark dimensions must be >= 2, got {dim}")
        h, parity = random_unbroken_pt(dim, seed=seed + i)
        art = run_pipeline(h, parity, tol)
        if art.failure is not None or art.anomalies:
            raise NumericalError(
                f"benchmark instance n={dim}, seed={seed + i}: "
                + "; ".join([art.failure] if art.failure else art.anomalies)
            )
        states = art.system.states
        gram = art.gram_pair.gram
        signature = art.signature

        times_inv = []
        times_sig = []
        duals_inv = duals_sig = None
        for _ in range(repetitions):
            t0 = time.perf_counter()
            duals_inv = dual_via_inversion(states, gram, tol_solve=tol.solve)
            times_inv.append(time.perf_counter() - t0)

            t0 = time.perf_counter()
            duals_sig = dual_via_signature(states, gram, signature)
            times_sig.append(time.perf_counter() - t0)

        t_inv = float(np.median(times_inv))
        t_sig = float(np.median(times_sig))
        discrepancy = float(np.max(np.linalg.norm(duals_sig - duals_inv, axis=0)))
        rows.append(
            BenchRow(
                dim=dim,
                t_inversion=t_inv,
                t_signature=t_sig,
                speedup=t_inv / t_sig if t_sig > 0 else float("inf"),
                discrepancy=discrepancy,
            )
        )
    return rows

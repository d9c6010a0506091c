"""End-to-end verification pipeline, relation checklist, and the benchmark
of the two dual-basis construction routes.

``run_pipeline`` executes the whole analysis (eigensystem, dual pair,
spectrum classification, phase fixing, sign extraction, Gram matrix, all
relation residuals) and collects every intermediate plus per-stage wall
times in one :class:`PipelineArtifacts`; ``full_verification`` scores the
fixed eleven-entry checklist onto that same object.  Numerical failures are
captured in the result instead of propagating, and sign-dependent relations
on broken-spectrum inputs are marked not-applicable rather than failed.  An
exactly PT-symmetric input with a real parity and a real spectrum runs in
float64 after its eigensolve, in the parity's real basis, and its result
keeps those coordinates; every other input runs in complex128.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .biortho import (
    BiorthonormalSystem,
    biorthonormalize,
    diagnose_exceptional,
    pair_left_right,
    solve_real_form,
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
    dual_via_signature,
    gram_matrix,
    inverse_via_signature,
    verify_signature_theorem,
)
from .linalg import adjoint, as_complex_matrix, max_abs, solve
from .models import _check_draw, random_unbroken_pt
from .symmetry import (
    ParityOperator,
    Signature,
    SpectrumClassification,
    build_charge,
    check_pseudo_hermiticity,
    check_pt_symmetry,
    classify_spectrum,
    extract_signature,
)

__all__ = [
    "RelationCheck",
    "PipelineArtifacts",
    "run_pipeline",
    "full_verification",
    "BenchRow",
    "bench_dual_routes",
]

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"

# The relation table, one row per relation in report order: (id, description,
# residual of a scored run, None when not measured, and threshold of ``tol``
# and the run's max|H|).  Every report carries each id exactly once.
CHECKLIST = (
    ("Eq3", "dual pair resolves the identity both ways",
     lambda art: None if art.system is None else art.system.completeness_defect,
     lambda tol, _: tol.relation),
    ("Eq4", "states and duals are mutually orthonormal",
     lambda art: None if art.system is None else art.system.duality_defect, lambda tol, _: tol.relation),
    # scored off any extracted signature: an invalid one was measured and fails
    ("Eq5", "each dual equals its signed parity-reflected state",
     lambda art: None if art.signature is None else float(art.signature.residuals.max()),
     lambda tol, _: tol.signature),
    ("Eq6-props", "charge squares to identity, commutes with H, maps states to duals",
     lambda art: None if art.charge_square_defect is None else max(
         art.charge_square_defect, art.charge_commutator_defect, art.charge_reflection_defect),
     lambda tol, _: tol.relation),
    ("Eq8", "signed state completeness against parity",
     lambda art: art.signed_completeness, lambda tol, _: tol.relation),
    ("Eq9", "signed unconjugated overlaps are orthonormal",
     lambda art: art.indefinite_norms, lambda tol, _: tol.relation),
    ("Eq12", "sign-flipped Gram matrix inverts the Gram matrix",
     lambda art: None if art.theorem is None else art.theorem.residual, lambda tol, _: tol.relation),
    ("Eq16", "inversion-free duals agree with the solver route",
     lambda art: art.route_discrepancy, lambda tol, _: tol.relation),
    ("PT-comm", "H invariant under parity + conjugation",
     lambda art: art.pt_residual, lambda tol, h_max: tol.symmetry * (1.0 + h_max)),
    ("pseudo-herm", "P H P equals the adjoint of H",
     lambda art: art.pseudo_residual, lambda tol, h_max: tol.symmetry * (1.0 + h_max)),
    ("diag-equality", "Gram matrix and its inverse share the diagonal",
     lambda art: None if art.theorem is None else art.theorem.diagonal_gap, lambda tol, _: tol.diagonal),
)


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


CONVENTIONS = (
    "time reversal acts as entrywise complex conjugation in the working basis",
    "states are re-phased so each equals its parity-conjugated reflection",
    "state/dual pairs share a real rescale making dual = sign * P state exact",
    "dual construction sums over the row index of the Gram matrix at fixed column",
)


@dataclass(eq=False)
class PipelineArtifacts:
    """Every intermediate of one pipeline run (see :func:`run_pipeline`).

    ``system`` and ``duals_signature`` are read in the input basis: on the
    real route ``system`` is the view of U's coordinates that
    :meth:`BiorthonormalSystem.in_original_basis` returns, and both map
    through it.  ``gram_pair`` is float64 on the real route with a real spectrum.
    ``relations`` stays empty until :func:`full_verification` scores the
    checklist onto the same object.
    """

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
    # the inversion-free duals as held: in U's coordinates on the real route
    _duals_signature: np.ndarray | None = None
    route_discrepancy: float | None = None
    signed_completeness: float | None = None
    indefinite_norms: float | None = None
    charge_square_defect: float | None = None
    charge_commutator_defect: float | None = None
    charge_reflection_defect: float | None = None
    charge_nonhermiticity: float | None = None
    timings: dict[str, float] = field(default_factory=dict)
    failure: str | None = None
    anomalies: tuple[str, ...] = ()
    relations: tuple[RelationCheck, ...] = ()

    @property
    def unbroken(self) -> bool:
        return self.classification is not None and self.classification.unbroken

    @property
    def eigenvalues(self) -> np.ndarray | None:
        return None if self.system is None else self.system.eigenvalues

    @cached_property
    def duals_signature(self) -> np.ndarray | None:
        """The inversion-free duals in the input basis."""
        held, coordinates = self._duals_signature, getattr(self.system, "coordinates", None)
        return held if held is None or coordinates is None else coordinates.basis.apply(held)

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


class _stage:
    """Time one stage into ``art.timings[timing]``, also when it raises; a
    :class:`NumericalError` it raises becomes ``art.failure``, prefixed by
    ``label`` (default ``timing``), and any other exception propagates.  A
    class: a generator-based context manager costs microseconds per stage."""

    def __init__(self, art: PipelineArtifacts, timing: str, label: str | None = None):
        self.art, self.timing, self.label = art, timing, label

    def __enter__(self) -> None:
        self.t0 = time.perf_counter()

    def __exit__(self, kind, exc, traceback) -> bool:
        self.art.timings[self.timing] = time.perf_counter() - self.t0
        if isinstance(exc, NumericalError):
            self.art.failure = f"{self.label or self.timing}: {exc}"
        return isinstance(exc, NumericalError)


def run_pipeline(h, parity: ParityOperator, tol: Tolerances = DEFAULT_TOLERANCES) -> PipelineArtifacts:
    """Run the whole analysis, trapping numerical failures into the result.

    Stages: symmetry residuals, eigensystem pairing, biorthonormalization,
    spectrum classification, phase fixing + sign extraction (unbroken
    spectra only), the duality and completeness defects, Gram assembly, and
    all relation residuals.  When the parity is real and the
    parity-conjugation residual is exactly zero, the eigensystem is solved
    once, in real arithmetic, in the parity's real basis U
    (:meth:`ParityOperator.real_basis`).  If that spectrum is real, every
    later stage runs in float64 on U's coordinates; the Gram matrix and its
    inverse are the same in either basis and stay real, the eigensolve's
    Re(U^dagger H U) is the H of the charge commutator, and the duality and
    completeness defects are measured on the coordinates too.  The result's
    ``system`` and ``duals_signature`` map the vectors to the input basis on
    first read.  Any other input is solved, and then handled, as a complex matrix
    in its own basis.
    A numerical failure (non-convergence, defective input, singular or
    non-positive Gram) stops the pipeline and is recorded in ``failure``;
    structural anomalies (unpaired complex eigenvalues, a state that cannot
    be re-phased) only void the sign-dependent stages and are listed in
    ``anomalies``.  The result's ``h`` is the caller's array itself when that
    already is a C-ordered complex128 matrix.
    """
    h = as_complex_matrix(h, name="H")
    t0 = time.perf_counter()
    art = PipelineArtifacts(h, parity, check_pt_symmetry(h, parity), check_pseudo_hermiticity(h, parity))
    art.timings["symmetry-checks"] = time.perf_counter() - t0

    with _stage(art, "eigensystem"):
        # exactly invariant under a real parity: H is real in the parity's real basis
        basis = parity.real_basis() if art.pt_residual == 0.0 else None
        if basis is None:
            eigensystem = pair_left_right(h, tol=tol)
        else:
            eigensystem = solve_real_form(h, basis, tol=tol)
        # H in the system's coordinates, for the charge commutator
        h_system = h if eigensystem.basis is None else eigensystem.real_form
        art.eigvec_condition, art.min_eigen_gap = diagnose_exceptional(eigensystem)
        if art.eigvec_condition > tol.cond_limit:
            art.anomalies += (
                f"eigenvector condition {art.eigvec_condition:.3e} exceeds {tol.cond_limit:.1e}: "
                "input is close to an exceptional point",
            )
    if art.failure is not None:
        return art

    with _stage(art, "biorthonormalize"):
        system = biorthonormalize(eigensystem, tol=tol)
    del eigensystem  # its rights and lefts are not read again
    if art.failure is not None:
        return art

    with _stage(art, "classify"):
        try:
            art.classification = classify_spectrum(system.eigenvalues, tol=tol)
        except UnpairedComplexEigenvalue as exc:
            art.anomalies += (f"classification: {exc}",)

    if art.unbroken:
        with _stage(art, "phase-and-signature"):
            try:
                art.signature, system = extract_signature(system, parity, tol=tol)
            except (NotPTInvariant, SignatureUndefined) as exc:
                art.anomalies += (f"signature: {exc}",)

    with _stage(art, "defects"):
        # measured once, on the arrays as held; reading them later is free
        _ = system.duality_defect, system.completeness_defect
        art.system = system.in_original_basis()

    with _stage(art, "gram"):
        art.gram_pair = gram_matrix(system, tol=tol)
    if art.failure is not None:
        return art

    signature = art.signature
    if signature is not None and signature.valid:
        gram = art.gram_pair.gram

        with _stage(art, "dual-via-inversion", "dual inversion"):
            inverse = solve(gram, np.eye(system.dim, dtype=gram.dtype), tol=tol)
            duals_inversion = system.states @ inverse
        if art.failure is not None:
            return art

        with _stage(art, "signature-theorem"):
            # S G S is formed here, once; the theorem check and the dual route read it
            art.gram_pair = GramPair(gram, inverse_via_signature(gram, signature))
            art.theorem = verify_signature_theorem(art.gram_pair, inverse)
            del inverse  # read only by the theorem check

        with _stage(art, "dual-via-signature"):
            art._duals_signature = dual_via_signature(system.states, art.gram_pair)

        with _stage(art, "Eq16"):
            art.route_discrepancy = float(
                np.linalg.norm(art._duals_signature - duals_inversion, axis=0).max()
            )
            # the caller keeps the result: free what it does not hold as soon
            # as it is read, so a kept result does not raise the next run's peak
            del duals_inversion
        with _stage(art, "Eq8"):
            art.signed_completeness = check_unconventional_completeness(system, signature, parity)
        with _stage(art, "Eq9"):
            art.indefinite_norms = check_indefinite_norms(system, signature, parity)
        with _stage(art, "Eq6-props"):
            # the charge and H in the system's coordinates, each temporary
            # freed once read; the max-abs residuals are taken in the input basis
            charge = build_charge(system, signature)
            comm = charge @ h_system
            comm -= h_system @ charge
            del h_system
            art.charge_commutator_defect = system.operator_max_abs(comm) / max(
                1.0, system.operator_max_abs(charge) * max_abs(h))
            del comm
            art.charge_reflection_defect = float(np.linalg.norm(
                system.reflector(parity)(charge) @ system.states - system.duals, axis=0).max())
            art.charge_nonhermiticity = system.operator_max_abs(charge - adjoint(charge))
            square = charge @ charge
            square.flat[:: system.dim + 1] -= 1.0
            art.charge_square_defect = system.operator_max_abs(square)
            del charge, square
    elif signature is not None:
        art.anomalies += ("signature residuals exceed tolerance; sign-dependent relations skipped",)

    return art


def full_verification(h, parity: ParityOperator, tol: Tolerances = DEFAULT_TOLERANCES) -> PipelineArtifacts:
    """Run the pipeline and score each row of :data:`CHECKLIST` into the
    run's ``relations``.

    Sign-dependent relations come out not-applicable for broken-spectrum
    inputs (and after structural anomalies).  A numerical failure scores
    what was measured before the run stopped: a failed eigensystem or
    biorthonormalization leaves only the two symmetry relations, while a
    failure in the ``gram`` or ``dual-via-inversion`` stage comes after the
    defects, so Eq3, Eq4 and, once a signature was extracted, Eq5 are
    scored too.  Never raises on finite numeric input.
    """
    art = run_pipeline(h, parity, tol)
    h_max = max_abs(art.h)
    relations = []
    for relation_id, description, residual, threshold in CHECKLIST:
        value, tolerance = residual(art), float(threshold(tol, h_max))
        if value is None:
            relations.append(RelationCheck(relation_id, description, None, tolerance, NOT_APPLICABLE))
        else:
            status = PASS if value <= tolerance else FAIL
            relations.append(RelationCheck(relation_id, description, float(value), tolerance, status))
    art.relations = tuple(relations)
    return art


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

    For each dimension a seeded unbroken random instance is drawn once, and
    each of the ``repetitions`` runs :func:`run_pipeline` on it whole.  Rows
    report the medians of the run's ``dual-via-inversion`` stage (the Gram
    solve and the product of the states with the solved inverse) and of its
    ``dual-via-signature`` stage (the product with S G S), their ratio, and
    the run's ``route_discrepancy``, the maximum per-vector 2-norm
    discrepancy between the two routes.  A dimension below two or a negative
    seed raises :class:`ValueError` whatever ``repetitions`` is;
    ``repetitions`` of zero (or less) then yields an empty table.  A run
    that fails or records an anomaly raises :class:`NumericalError`.
    """
    dims = [int(dim) for dim in dims]
    for dim in dims:
        _check_draw(dim, seed)
    if repetitions <= 0:
        return []
    rows = []
    for i, dim in enumerate(dims):
        h, parity = random_unbroken_pt(dim, seed=seed + i)
        times = []
        for _ in range(repetitions):
            art = run_pipeline(h, parity, tol)
            if art.failure is not None or art.anomalies:
                raise NumericalError(
                    f"benchmark instance n={dim}, seed={seed + i}: "
                    + "; ".join([art.failure] if art.failure else art.anomalies)
                )
            times.append((art.timings["dual-via-inversion"], art.timings["dual-via-signature"]))
        t_inv, t_sig = (float(t) for t in np.median(times, axis=0))
        speedup = t_inv / t_sig if t_sig > 0 else float("inf")
        rows.append(BenchRow(dim, t_inv, t_sig, speedup, art.route_discrepancy))
    return rows

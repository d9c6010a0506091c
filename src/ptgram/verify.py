"""End-to-end verification pipeline, relation checklist, and the benchmark
of the two dual-basis construction routes.

``run_pipeline``, also named ``full_verification``, runs the whole analysis,
collects every intermediate and per-stage wall time in one
:class:`PipelineArtifacts`, and scores the eleven-row :data:`CHECKLIST` onto
it.  A numerical failure stops the run and is recorded, not raised, and
sign-dependent relations on a broken spectrum are not-applicable.  An exactly
PT-symmetric input with a real parity runs in float64 in the parity's real
basis after its eigensolve; every other input runs in complex128.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .biortho import (
    BiorthonormalSystem,
    biorthonormalize,
    complex_overlaps,
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
    TheoremCheck,
    check_indefinite_norms,
    check_unconventional_completeness,
    dual_via_signature,
    gram_inverse,
    gram_matrix,
    inverse_via_signature,
    verify_signature_theorem,
)
from .linalg import adjoint, as_complex_matrix, max_abs
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
# the ``Tolerances`` field of its pass threshold).  A run records each residual
# under its id in the stage that measures it; an id it did not measure is
# not-applicable.  Every report carries each id exactly once.
CHECKLIST = (
    ("Eq3", "dual pair resolves the identity both ways", "relation"),
    ("Eq4", "states and duals are mutually orthonormal", "relation"),
    # scored off any extracted signature: an invalid one was measured and fails
    ("Eq5", "each dual equals its signed parity-reflected state", "signature"),
    ("Eq6-props", "charge squares to identity, commutes with H, maps states to duals", "relation"),
    ("Eq8", "signed state completeness against parity", "relation"),
    ("Eq9", "signed unconjugated overlaps are orthonormal", "relation"),
    ("Eq12", "sign-flipped Gram matrix inverts the Gram matrix", "relation"),
    ("Eq16", "inversion-free duals agree with the solver route", "relation"),
    # relative: the threshold is scaled by 1 + max|H|
    ("PT-comm", "H invariant under parity + conjugation", "symmetry"),
    ("pseudo-herm", "P H P equals the adjoint of H", "symmetry"),
    ("diag-equality", "Gram matrix and its inverse share the diagonal", "diagonal"),
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


def _residual_of(relation_id: str) -> property:
    """A read-only view of one scored relation's residual."""
    return property(lambda art: art.relation(relation_id).residual)


@dataclass(eq=False)
class PipelineArtifacts:
    """Every intermediate of one pipeline run (see :func:`run_pipeline`).

    A run keeps each datum once: the states and duals in ``system``, read in
    the input basis (on the real route the view of U's coordinates that
    :meth:`BiorthonormalSystem.in_original_basis` returns), and G in
    ``gram``, float64 on the real route with a real spectrum; of conjugate
    pairs held as real columns the run keeps their real Gram matrix, and
    ``gram`` forms the complex G on first read.  S G S and the
    inversion-free duals are not kept: with a valid ``signature`` they are
    :func:`~ptgram.gram.inverse_via_signature` and
    :func:`~ptgram.gram.dual_via_signature` away.  Each relation residual is
    kept once, in ``relations``; ``pt_residual``, ``theorem`` and the other
    residual properties are read-only views of it.  The charge defects are
    kept apart because Eq6-props scores only their max.
    """

    h: np.ndarray
    parity: ParityOperator
    eigvec_condition: float | None = None
    min_eigen_gap: float | None = None
    system: BiorthonormalSystem | None = None
    classification: SpectrumClassification | None = None
    signature: Signature | None = None
    # gram_matrix's result and the pairs of its system, expanded by ``gram``
    gram_of_columns: tuple[np.ndarray, np.ndarray | None] | None = field(default=None, repr=False)
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

    @property
    def gram(self) -> np.ndarray | None:
        """G_mn = <state_m | state_n>, the same in the input basis and in U's
        coordinates; formed from the real Gram matrix of conjugate-pair
        columns on first read, then kept in its place."""
        if self.gram_of_columns is None:
            return None
        g, pairs = self.gram_of_columns
        if pairs is not None:
            g = complex_overlaps(g, pairs)
            self.gram_of_columns = (g, None)
        return g

    def relation(self, relation_id: str) -> RelationCheck:
        for entry in self.relations:
            if entry.id == relation_id:
                return entry
        raise KeyError(relation_id)

    pt_residual = _residual_of("PT-comm")
    pseudo_residual = _residual_of("pseudo-herm")
    route_discrepancy = _residual_of("Eq16")
    signed_completeness = _residual_of("Eq8")
    indefinite_norms = _residual_of("Eq9")

    @property
    def theorem(self) -> TheoremCheck | None:
        """Eq12's residual and the diag-equality gap, None unless the run
        reached the signature theorem."""
        residual = self.relation("Eq12").residual
        return None if residual is None else TheoremCheck(residual, self.relation("diag-equality").residual)

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
    :class:`NumericalError` it raises is recorded as ``art.failure``,
    prefixed by ``label`` (default ``timing``), and every exception
    propagates.  A class: a generator-based context manager costs
    microseconds per stage."""

    def __init__(self, art: PipelineArtifacts, timing: str, label: str | None = None):
        self.art, self.timing, self.label = art, timing, label

    def __enter__(self) -> None:
        self.t0 = time.perf_counter()

    def __exit__(self, kind, exc, traceback) -> None:
        self.art.timings[self.timing] = time.perf_counter() - self.t0
        if isinstance(exc, NumericalError):
            self.art.failure = f"{self.label or self.timing}: {exc}"


def run_pipeline(h, parity: ParityOperator, tol: Tolerances = DEFAULT_TOLERANCES) -> PipelineArtifacts:
    """Run the whole analysis and score :data:`CHECKLIST` onto it; never
    raises on finite numeric input.

    Each stage records the residuals it measures under their checklist ids;
    a row with no residual is not-applicable, as the sign-dependent ones are
    on a broken spectrum or after a structural anomaly listed in
    ``anomalies``.  When the parity is real and the parity-conjugation
    residual is exactly zero, H is solved once, in real arithmetic, in the
    parity's real basis U (:meth:`ParityOperator.real_basis`), and every
    later stage runs in float64 on U's coordinates, whatever the spectrum (a
    conjugate pair keeps LAPACK's two real columns): G, its inverse and the
    defects are the same there, and Re(U^dagger H U) is the H of the charge
    commutator.  Any other input is handled as a complex matrix in its own
    basis.  The result keeps the states, the duals and G; its ``system``
    maps them to the input basis, and ``gram`` forms a broken spectrum's
    complex G, on first read.  A numerical failure is recorded in
    ``failure`` by its stage and stops the run; what was measured before it
    is scored.  The result's ``h`` is the caller's array itself when that
    already is a C-ordered complex128 matrix.
    """
    h = as_complex_matrix(h, name="H")
    art, residuals = PipelineArtifacts(h, parity), {}
    try:
        with _stage(art, "symmetry-checks"):
            residuals["PT-comm"] = check_pt_symmetry(h, parity)
            residuals["pseudo-herm"] = check_pseudo_hermiticity(h, parity)

        with _stage(art, "eigensystem"):
            # exactly invariant under a real parity: H is real in the parity's real basis
            basis = parity.real_basis() if residuals["PT-comm"] == 0.0 else None
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

        with _stage(art, "biorthonormalize"):
            system = biorthonormalize(eigensystem, tol=tol)
        del eigensystem  # its rights and lefts are not read again

        with _stage(art, "classify"):
            try:
                art.classification = classify_spectrum(system.eigenvalues, tol=tol)
            except UnpairedComplexEigenvalue as exc:
                art.anomalies += (f"classification: {exc}",)

        if art.unbroken:
            with _stage(art, "phase-and-signature"):
                try:
                    art.signature, system = extract_signature(system, parity, tol=tol)
                    residuals["Eq5"] = float(art.signature.residuals.max())
                except (NotPTInvariant, SignatureUndefined) as exc:
                    art.anomalies += (f"signature: {exc}",)

        with _stage(art, "defects"):
            # measured once, on the arrays as held
            residuals["Eq4"], residuals["Eq3"] = system.duality_defect, system.completeness_defect
            art.system = system.in_original_basis()

        with _stage(art, "gram"):
            gram, factor = gram_matrix(system)
            art.gram_of_columns = gram, system.pairs

        signature = art.signature
        if signature is not None and signature.valid:
            # a real spectrum: ``system`` holds no pairs, so ``gram`` is G
            with _stage(art, "dual-via-inversion", "dual inversion"):
                inverse = gram_inverse(gram, factor, tol)
                del factor  # L^-1 now, not read again
                duals_inversion = system.states @ inverse

            with _stage(art, "signature-theorem"):
                # S G S is formed here, once; the theorem check and the dual route read it
                flipped = inverse_via_signature(gram, signature)
                residuals["Eq12"], residuals["diag-equality"] = verify_signature_theorem(gram, flipped, inverse)
                del inverse  # read only by the theorem check

            with _stage(art, "dual-via-signature"):
                duals_flipped = dual_via_signature(system.states, flipped)
                del flipped

            with _stage(art, "Eq16"):
                residuals["Eq16"] = float(np.linalg.norm(duals_flipped - duals_inversion, axis=0).max())
                # the caller keeps the result: free what it does not hold as soon
                # as it is read, so a kept result does not raise the next run's peak
                del duals_inversion, duals_flipped
            with _stage(art, "Eq8"):
                residuals["Eq8"] = check_unconventional_completeness(system, signature, parity)
            with _stage(art, "Eq9"):
                residuals["Eq9"] = check_indefinite_norms(system, signature, parity)
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
                residuals["Eq6-props"] = max(
                    art.charge_square_defect, art.charge_commutator_defect, art.charge_reflection_defect)
        elif signature is not None:
            art.anomalies += ("signature residuals exceed tolerance; sign-dependent relations skipped",)
    except NumericalError:
        pass  # its stage recorded it as the failure; what came before is scored

    h_max = max_abs(h)
    relations = []
    for relation_id, description, threshold in CHECKLIST:
        tolerance = float(getattr(tol, threshold))
        if threshold == "symmetry":
            tolerance *= 1.0 + h_max
        residual = residuals.get(relation_id)
        status = NOT_APPLICABLE if residual is None else PASS if residual <= tolerance else FAIL
        relations.append(RelationCheck(relation_id, description, residual, tolerance, status))
    art.relations = tuple(relations)
    return art


# the same run under the name that says it is scored
full_verification = run_pipeline


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
    report the medians of the run's ``dual-via-inversion`` stage (G^-1 from
    G's Cholesky factor and the product of the states with it) and of its
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

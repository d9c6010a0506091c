"""Workload inputs, the calls that drive the package, and the output checks.

Every input is made from the benchmark seed; the package only ever sees the
generated matrices (or, for ``cli-models``, the matrix files).  The random
instances come from a fixed pool whose verdicts are pinned in
``verdicts.json`` (made by ``pin_verdicts.py``), so each call's verdict can
be checked exactly whatever the seed.  The package
is reached through its public entry points, looked up at call time so a
traced run sees the wrapped names.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ptgram
import ptgram.cli
import ptgram.io
import ptgram.models

WORKLOADS = ("ensemble-small", "dense-512", "cli-models")

ENSEMBLE_DIMS = tuple(range(2, 65))
# random_unbroken_pt seeds 0..ENSEMBLE_POOL-1 of every dim make the pool
ENSEMBLE_POOL = 16
DENSE_DIM = 512
DENSE_INSTANCES = 2
VERDICTS = Path(__file__).resolve().with_name("verdicts.json")
CLI_DIM = 256
# (case name, generator, arguments, expected behaviour)
CLI_CASES = (
    ("chain-unbroken", "lattice_chain", (CLI_DIM, 0.3, 1.0), "unbroken"),
    ("chain-broken", "lattice_chain", (CLI_DIM, 1.5, 1.0), "broken"),
    ("oscillator", "discretized_schrodinger", (CLI_DIM, 5.0, 0.0), "consistency"),
    ("ix3", "discretized_schrodinger", (CLI_DIM, 7.0, 1.0), "consistency"),
)

# The report contract (schema ptgram-report/1), restated here so the check
# does not trust the package's own constants.
REPORT_SCHEMA = "ptgram-report/1"
RELATION_IDS = (
    "Eq3", "Eq4", "Eq5", "Eq6-props", "Eq8", "Eq9", "Eq12", "Eq16",
    "PT-comm", "pseudo-herm", "diag-equality",
)
SIGN_DEPENDENT = ("Eq5", "Eq6-props", "Eq8", "Eq9", "Eq12", "Eq16", "diag-equality")
STATUSES = ("pass", "fail", "not-applicable")

# A pinned instance may fail a relation only if the pin allows it (a residual
# above, or within a factor 2 of, its fixed absolute threshold when pinned),
# and even then not with a residual above this bound: above it the result
# itself is wrong, not the verdict too strict for the input's size.
ACCURACY_BOUND = 1e-6
# Report eigenvalues must match numpy.linalg.eigvals(h) within this bound,
# relative to max(1, ||H||_F).
EIGENVALUE_BOUND = 1e-6


@dataclass
class Case:
    """One input: an (H, P) pair, or a matrix file for the CLI."""

    name: str
    h: np.ndarray
    parity: object
    kind: str
    path: Path | None = None
    output: Path | None = None
    # API cases: the pinned verdict ({"fail": [...], "anomaly": bool,
    # "failure": bool}); None if the input is not the pinned instance
    expect: dict | None = None


@dataclass
class Outcome:
    """What one call returned, reduced to what the checks need."""

    counts: tuple[int, int]
    verdict: tuple[str, ...]
    problems: list[str]
    anomalies: tuple[str, ...] = ()
    failure: str | None = None


# -- inputs -------------------------------------------------------------------


STRICT = {"fail": [], "anomaly": False, "failure": False}


def instance_digest(h, parity) -> str:
    digest = hashlib.sha256(np.ascontiguousarray(h).tobytes())
    digest.update(np.ascontiguousarray(parity.matrix).tobytes())
    return digest.hexdigest()[:16]


def load_pins() -> dict:
    return json.loads(VERDICTS.read_text(encoding="utf-8"))


def pinned_case(dim: int, k: int, pins: dict, name: str | None = None) -> Case:
    """``random_unbroken_pt(dim, seed=k)`` with the verdict pinned for it."""
    h, parity = ptgram.models.random_unbroken_pt(dim, seed=k)
    key = f"{dim}:{k}"
    expect = None
    if pins["instances"].get(key) == instance_digest(h, parity):
        expect = pins["exceptions"].get(key, STRICT)
    return Case(name or f"random-{key}", h, parity, "api", expect=expect)


def make_cases(workload: str, seed: int, workdir: Path | None = None) -> list[Case]:
    """The workload's inputs for ``seed``, in call order.

    ``ensemble-small`` holds one instance of every dim 2..64 (a stratified
    uniform draw), each drawn from that dim's pool of ``ENSEMBLE_POOL``
    pinned instances, in a seeded order.  ``dense-512`` holds the instances
    of ``random_unbroken_pt`` seeds 0 and 1 at n=512 in a seeded order: at
    n=512 a few instances in a hundred take a cheaper anomaly or failure
    path, so instances drawn from the seed would make the call cost depend
    on the seed.  ``cli-models`` writes four fixed models as matrix files
    into ``workdir`` in a seeded order.
    """
    models = ptgram.models
    if workload == "ensemble-small":
        pins = load_pins()
        rng = np.random.default_rng(seed)
        dims = rng.permutation(ENSEMBLE_DIMS)
        ks = rng.integers(0, ENSEMBLE_POOL, size=len(dims))
        return [pinned_case(int(dim), int(k), pins, f"random-{dim}") for dim, k in zip(dims, ks)]
    if workload == "dense-512":
        pins = load_pins()
        order = np.random.default_rng(seed).permutation(DENSE_INSTANCES)
        return [pinned_case(DENSE_DIM, int(k), pins) for k in order]
    if workload == "cli-models":
        if workdir is None:
            raise ValueError("cli-models needs a directory for its matrix files")
        order = np.random.default_rng(seed).permutation(len(CLI_CASES))
        cases = []
        for index in order:
            name, generator, args, kind = CLI_CASES[int(index)]
            h, parity = getattr(models, generator)(*args)
            path = workdir / f"{name}.json"
            ptgram.io.write_matrix_pair(path, h, parity)
            cases.append(Case(name, h, parity, kind, path, workdir / f"{name}.report.json"))
        return cases
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def input_digest(cases: list[Case]) -> str:
    """sha256 over every input in call order: the matrix file bytes where the
    package reads a file, else the raw H and P arrays."""
    digest = hashlib.sha256()
    for case in cases:
        digest.update(case.name.encode())
        if case.path is not None:
            digest.update(case.path.read_bytes())
        else:
            digest.update(np.ascontiguousarray(case.h).tobytes())
            digest.update(np.ascontiguousarray(case.parity.matrix).tobytes())
    return digest.hexdigest()


# -- calls ----------------------------------------------------------------------


def call(case: Case):
    """One verification call through the public entry point: the report
    object for API cases, the exit code for CLI cases."""
    if case.path is None:
        return ptgram.full_verification(case.h, case.parity)
    argv = ["verify", "--input", str(case.path), "--output", str(case.output)]
    with contextlib.redirect_stderr(io.StringIO()):
        return ptgram.cli.main(argv)


def check(case: Case, result, reference=None) -> Outcome:
    """Output check of one call's ``result``; ``reference`` holds the
    independent eigenvalues of an API case."""
    if case.path is None:
        return check_api(result, case, reference)
    try:
        text = case.output.read_bytes()
    except OSError as exc:
        return Outcome((0, 0), (), [f"no report: {exc}"])
    # the next call must write its own report
    case.output.unlink()
    return check_cli(result, text, case)


# -- output checks ----------------------------------------------------------------


def _relation_problems(entries) -> list[str]:
    """Checks shared by both report forms; ``entries`` are
    ``(id, status, residual, tolerance)`` tuples."""
    problems = []
    ids = tuple(entry[0] for entry in entries)
    if ids != RELATION_IDS:
        problems.append(f"relation ids {ids} differ from the checklist {RELATION_IDS}")
    for rid, status, residual, tolerance in entries:
        if status not in STATUSES:
            problems.append(f"{rid}: unknown status {status!r}")
        elif status == "not-applicable":
            if residual is not None:
                problems.append(f"{rid}: not applicable but carries a residual")
        elif residual is None or tolerance is None:
            problems.append(f"{rid}: {status} without a residual and tolerance")
        elif (residual <= tolerance) != (status == "pass"):
            problems.append(f"{rid}: status {status} disagrees with residual {residual!r} "
                            f"against tolerance {tolerance!r}")
    return problems


def _counts(entries) -> tuple[int, int]:
    applicable = [e for e in entries if e[1] != "not-applicable"]
    return sum(e[1] == "pass" for e in applicable), len(applicable)


def eigenvalue_distance(reported, reference, h) -> float:
    """Two-way nearest-neighbour distance between the two spectra, relative
    to max(1, ||H||_F)."""
    reported = np.asarray(reported, dtype=np.complex128)
    reference = np.asarray(reference, dtype=np.complex128)
    if reported.shape != reference.shape:
        return float("inf")
    diff = np.abs(reported[:, None] - reference[None, :])
    worst = max(float(diff.min(axis=0).max()), float(diff.min(axis=1).max()))
    return worst / max(1.0, float(np.linalg.norm(h)))


def check_api(report, case: Case, reference) -> Outcome:
    """``full_verification`` on a pinned unbroken random instance: no
    failure, no anomaly and every relation applicable and passing, except
    where the instance's pin allows otherwise; an unbroken classification;
    and the eigenvalues of an independent eigensolve.  A verdict better
    than the pin (a pinned failing relation that now passes) is not an
    error: fixing a known threshold defect must not read as one."""
    entries = [(r.id, r.status, r.residual, r.tolerance) for r in report.relations]
    problems = _relation_problems(entries)
    expect = case.expect
    if expect is None:
        problems.append("input differs from its pinned instance; re-run pin_verdicts.py")
        expect = STRICT
    if report.failure is not None and not expect["failure"]:
        problems.append(f"failure on an instance pinned without one: {report.failure}")
    if report.anomalies and not expect["anomaly"]:
        problems.append(f"anomalies on an instance pinned without any: {list(report.anomalies)}")
    for rid, status, residual, _ in entries:
        if status == "not-applicable" and report.failure is None and not report.anomalies:
            problems.append(f"{rid}: not applicable without a failure or anomaly")
        elif status == "fail" and rid not in expect["fail"]:
            problems.append(f"{rid}: fails (residual {residual!r}) on an instance pinned to pass it")
        elif status == "fail" and residual is not None and residual > ACCURACY_BOUND:
            problems.append(f"{rid}: residual {residual:.3e} above the accuracy bound")
    if report.classification is not None and not report.classification.unbroken:
        problems.append("an unbroken instance is classified broken")
    if report.eigenvalues is not None:
        distance = eigenvalue_distance(report.eigenvalues, reference, case.h)
        if not distance <= EIGENVALUE_BOUND:
            problems.append(f"eigenvalues differ from numpy.linalg.eigvals by {distance:.3e}")
    if report.failure is None and (report.eigenvalues is None or report.classification is None):
        problems.append("a report without failure lacks eigenvalues or classification")
    return Outcome(_counts(entries), tuple(e[1] for e in entries), problems,
                   tuple(report.anomalies), report.failure)


def expected_exit_code(report: dict) -> int:
    if report.get("failure") is not None:
        return 3
    statuses = [r["status"] for r in report["relations"] if r["status"] != "not-applicable"]
    return 0 if all(s == "pass" for s in statuses) else 1


def check_cli(code: int, text: bytes, case: Case) -> Outcome:
    """``ptgram verify`` on a matrix file: a parseable report of the fixed
    schema whose exit code agrees with it, plus the expected behaviour of
    the two lattice chains.  The oscillator and ix^3 get the consistency
    checks only, so their known defects show in the pass fraction and not
    as errors."""
    try:
        report = json.loads(text)
        entries = [
            (
                r["id"],
                r["status"],
                None if r["residual"] is None else float(r["residual"]),
                None if r["tolerance"] is None else float(r["tolerance"]),
            )
            for r in report["relations"]
        ]
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome((0, 0), (), [f"report does not parse: {exc!r}"])
    problems = _relation_problems(entries)
    if report.get("schema") != REPORT_SCHEMA:
        problems.append(f"schema {report.get('schema')!r}, expected {REPORT_SCHEMA!r}")
    expected = expected_exit_code(report)
    if code != expected:
        problems.append(f"exit code {code} disagrees with the report (expected {expected})")
    statuses = dict((e[0], e[1]) for e in entries)
    if case.kind == "unbroken":
        if code != 0 or any(s != "pass" for s in statuses.values()):
            problems.append("unbroken chain must exit 0 with every relation passing")
    elif case.kind == "broken":
        classification = report.get("classification") or {}
        if classification.get("unbroken") is not False:
            problems.append("broken chain is not classified as broken")
        applicable = [rid for rid in SIGN_DEPENDENT if statuses.get(rid) != "not-applicable"]
        if applicable:
            problems.append(f"broken chain scores sign-dependent relations {applicable}")
    return Outcome(_counts(entries), tuple(e[1] for e in entries), problems,
                   tuple(report.get("anomalies") or ()), report.get("failure"))

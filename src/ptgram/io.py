"""File formats: the matrix interchange JSON and the report/analysis/bench
serializations.

Complex entries are stored as two-element [re, im] arrays in row-major
nested lists; ``re`` and ``im`` are JSON ints or floats.  A matrix file is
read by C-level passes over the parsed lists (shape and value types, then one
``np.fromiter`` fill); only a rejected field is walked entry by entry, to
name its first fault (``h``, ``h[i]`` or ``h[i][j]``) in row-major order.
Non-finite values reject the whole field.

Measured residuals and defects are serialized as decimal strings with 17
significant digits, which round-trip float64 exactly and keep reports
byte-stable for identical inputs; wall-clock timings stay plain JSON numbers
since they vary run to run.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Any, NoReturn

import numpy as np

from .errors import InputFormatError
from .symmetry import ParityOperator, make_parity
from .verify import CONVENTIONS, BenchRow, PipelineArtifacts

__all__ = [
    "MATRIX_SCHEMA",
    "REPORT_SCHEMA",
    "ANALYSIS_SCHEMA",
    "BENCH_SCHEMA",
    "dump_matrix_pair",
    "write_matrix_pair",
    "load_matrix_pair",
    "matrix_to_nested",
    "report_to_dict",
    "analysis_to_dict",
    "bench_to_dict",
    "render_report_text",
    "render_bench_text",
]

MATRIX_SCHEMA = "ptgram-matrix/1"
REPORT_SCHEMA = "ptgram-report/1"
ANALYSIS_SCHEMA = "ptgram-analysis/1"
BENCH_SCHEMA = "ptgram-bench/1"
# JSON number types a matrix entry may hold (bool, a subclass of int, is not one)
_NUMBER_TYPES = {int, float}


def _residual(value: float | None) -> str | None:
    """17-significant-digit decimal string (exact float64 round-trip)."""
    return None if value is None else format(float(value), ".17g")


def matrix_to_nested(m: np.ndarray) -> list:
    """Row-major nested lists with an [re, im] pair for every entry of a
    matrix or vector."""
    m = np.asarray(m, dtype=np.complex128)
    return np.stack((m.real, m.imag), axis=-1).tolist()


def _values(rows: list):
    """The numbers of a field's rows of [re, im] pairs, in row-major order."""
    return chain.from_iterable(chain.from_iterable(rows))


def _raise_first_fault(obj: list, dim: int, field_name: str) -> NoReturn:
    """Raise the error for the first malformed row or entry of ``obj`` in
    row-major order; called only once the bulk check has rejected it."""
    for i, row in enumerate(obj):
        if type(row) is not list or len(row) != dim:
            raise InputFormatError(
                f"row {i} of field {field_name!r} must hold {dim} entries", field=f"{field_name}[{i}]"
            )
        for j, entry in enumerate(row):
            where = f"{field_name}[{i}][{j}]"
            if type(entry) is not list or len(entry) != 2 or not set(map(type, entry)) <= _NUMBER_TYPES:
                raise InputFormatError(
                    f"{where} must be a two-element [re, im] number pair, got {entry!r}", field=where
                )
            try:
                complex(*entry)
            except OverflowError as exc:  # an integer literal beyond the float range
                raise InputFormatError(f"{where} does not fit a float: {exc}", field=where) from exc
    raise AssertionError(f"field {field_name!r} was rejected but has no malformed entry")


def nested_to_matrix(obj: Any, dim: int, field_name: str) -> np.ndarray:
    """The complex (dim, dim) matrix of a row-major field of [re, im] pairs;
    raises :class:`InputFormatError` naming the field's first fault."""
    if type(obj) is not list or len(obj) != dim:
        raise InputFormatError(
            f"field {field_name!r} must be a list of {dim} rows", field=field_name
        )
    if not (
        set(map(type, obj)) == {list}
        and set(map(len, obj)) == {dim}
        and set(map(type, chain.from_iterable(obj))) == {list}
        and set(map(len, chain.from_iterable(obj))) == {2}
        and set(map(type, _values(obj))) <= _NUMBER_TYPES
    ):
        _raise_first_fault(obj, dim, field_name)
    try:
        flat = np.fromiter(_values(obj), np.float64, count=2 * dim * dim)
    except OverflowError:
        _raise_first_fault(obj, dim, field_name)
    if not np.isfinite(flat).all():
        raise InputFormatError(f"field {field_name!r} contains non-finite entries", field=field_name)
    return flat.view(np.complex128).reshape(dim, dim)


def dump_matrix_pair(h: np.ndarray, parity: ParityOperator) -> str:
    """Serialize an (H, P) pair; byte-identical for identical inputs."""
    payload = {
        "schema": MATRIX_SCHEMA,
        "dim": int(h.shape[0]),
        "h": matrix_to_nested(h),
        "p": matrix_to_nested(parity.matrix),
    }
    return json.dumps(payload, indent=2) + "\n"


def write_matrix_pair(path, h: np.ndarray, parity: ParityOperator) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_matrix_pair(h, parity))


def load_matrix_pair(path) -> tuple[np.ndarray, ParityOperator]:
    """Read an (H, P) pair, validating shape, finiteness, and that P is a
    self-adjoint involution.

    Raises :class:`InputFormatError` naming the offending field on malformed
    content, and :class:`InvalidParity` when P fails its contract.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"not valid JSON: {exc}", field=None) from exc
    except RecursionError as exc:
        raise InputFormatError(f"JSON nested too deeply: {exc}", field=None) from exc
    if not isinstance(payload, dict):
        raise InputFormatError("top level must be a JSON object", field=None)
    for key in ("dim", "h", "p"):
        if key not in payload:
            raise InputFormatError(f"missing required field {key!r}", field=key)
    dim = payload["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputFormatError(f"field 'dim' must be a positive integer, got {dim!r}", field="dim")
    h = nested_to_matrix(payload["h"], dim, "h")
    p = nested_to_matrix(payload["p"], dim, "p")
    return h, make_parity("explicit", dim, matrix=p)


def _classification_to_dict(classification) -> dict | None:
    if classification is None:
        return None
    return {
        "real_indices": list(classification.real_indices),
        "conjugate_pairs": [list(pair) for pair in classification.conjugate_pairs],
        "unbroken": classification.unbroken,
    }


def _signature_to_dict(signature) -> dict | None:
    if signature is None:
        return None
    return {
        "values": [int(v) for v in signature.values],
        "residuals": [_residual(r) for r in signature.residuals],
        "valid": signature.valid,
    }


def report_to_dict(report: PipelineArtifacts) -> dict:
    """Stable machine-readable form of a scored run (see
    :func:`~ptgram.verify.full_verification`)."""
    return {
        "schema": REPORT_SCHEMA,
        "relations": [
            {
                "id": entry.id,
                "description": entry.description,
                "residual": _residual(entry.residual),
                "tolerance": _residual(entry.tolerance),
                "status": entry.status,
            }
            for entry in report.relations
        ],
        "eigenvalues": None
        if report.eigenvalues is None
        else matrix_to_nested(report.eigenvalues),
        "classification": _classification_to_dict(report.classification),
        "signature": _signature_to_dict(report.signature),
        "eigvec_condition": _residual(report.eigvec_condition),
        "min_eigen_gap": _residual(report.min_eigen_gap),
        "parity": {"kind": report.parity.kind, "trivial": report.parity.is_trivial},
        "charge_nonhermiticity": _residual(report.charge_nonhermiticity),
        "all_applicable_pass": report.all_applicable_pass,
        "failure": report.failure,
        "anomalies": list(report.anomalies),
        "conventions": list(CONVENTIONS),
        "timings": {k: float(v) for k, v in report.timings.items()},
    }


def analysis_to_dict(art: PipelineArtifacts) -> dict:
    """Everything a caller needs from one analysis run, including the input
    pair itself so generated files can be round-trip checked."""
    sys = art.system
    inverse = None if art.gram_pair is None else art.gram_pair.inverse
    return {
        "schema": ANALYSIS_SCHEMA,
        "dim": int(art.h.shape[0]),
        "h": matrix_to_nested(art.h),
        "p": matrix_to_nested(art.parity.matrix),
        "parity": {"kind": art.parity.kind, "trivial": art.parity.is_trivial},
        "pt_residual": _residual(art.pt_residual),
        "pseudo_hermiticity_residual": _residual(art.pseudo_residual),
        "eigenvalues": None if sys is None else matrix_to_nested(sys.eigenvalues),
        "classification": _classification_to_dict(art.classification),
        "signature": _signature_to_dict(art.signature),
        "eigvec_condition": _residual(art.eigvec_condition),
        "min_eigen_gap": _residual(art.min_eigen_gap),
        "duality_defect": None if sys is None else _residual(sys.duality_defect),
        "completeness_defect": None if sys is None else _residual(sys.completeness_defect),
        "gram": None if art.gram_pair is None else matrix_to_nested(art.gram_pair.gram),
        "gram_inverse": None if inverse is None else matrix_to_nested(inverse),
        "gram_inverse_route": None if inverse is None else "signature",
        "states": None if sys is None else matrix_to_nested(sys.states.T),
        "duals": None if sys is None else matrix_to_nested(sys.duals.T),
        "failure": art.failure,
        "anomalies": list(art.anomalies),
    }


def bench_to_dict(rows: list[BenchRow]) -> dict:
    return {
        "schema": BENCH_SCHEMA,
        "rows": [
            {
                "dim": row.dim,
                "t_inversion": float(row.t_inversion),
                "t_signature": float(row.t_signature),
                "speedup": float(row.speedup),
                "discrepancy": _residual(row.discrepancy),
            }
            for row in rows
        ],
    }


def render_report_text(report: PipelineArtifacts) -> str:
    """Human-readable relation table (the JSON form is the contract)."""
    lines = []
    passing, applicable = report.counts
    header = f"{'relation':<14} {'status':<15} {'residual':<13} {'tolerance':<13} description"
    lines.append(header)
    lines.append("-" * len(header))
    for entry in report.relations:
        residual = "-" if entry.residual is None else f"{entry.residual:.3e}"
        tolerance = "-" if entry.tolerance is None else f"{entry.tolerance:.3e}"
        lines.append(
            f"{entry.id:<14} {entry.status:<15} {residual:<13} {tolerance:<13} {entry.description}"
        )
    lines.append("")
    if report.failure is not None:
        lines.append(f"numerical failure: {report.failure}")
    for note in report.anomalies:
        lines.append(f"note: {note}")
    lines.append(f"applicable relations passing: {passing}/{applicable}")
    return "\n".join(lines) + "\n"


def render_analysis_text(art: PipelineArtifacts) -> str:
    """Short human-readable analysis summary."""
    lines = []
    lines.append(f"dim: {art.h.shape[0]}   parity: {art.parity.kind}"
                 + ("   (trivial)" if art.parity.is_trivial else ""))
    lines.append(f"pt residual: {art.pt_residual:.3e}   "
                 f"pseudo-hermiticity residual: {art.pseudo_residual:.3e}")
    if art.system is not None:
        lines.append("eigenvalues:")
        for k, lam in enumerate(art.system.eigenvalues):
            sign = ""
            if art.signature is not None:
                sign = f"   sign {int(art.signature.values[k]):+d}"
            lines.append(f"  [{k:3d}]  {lam.real:+.12e}  {lam.imag:+.12e}j{sign}")
        lines.append(f"duality defect: {art.system.duality_defect:.3e}   "
                     f"completeness defect: {art.system.completeness_defect:.3e}")
    if art.classification is not None:
        state = "unbroken" if art.classification.unbroken else "broken"
        lines.append(f"spectrum: {state}   real: {len(art.classification.real_indices)}   "
                     f"conjugate pairs: {len(art.classification.conjugate_pairs)}")
    if art.eigvec_condition is not None:
        lines.append(f"eigenvector condition: {art.eigvec_condition:.3e}   "
                     f"min eigenvalue gap: {art.min_eigen_gap:.3e}")
    if art.failure is not None:
        lines.append(f"numerical failure: {art.failure}")
    for note in art.anomalies:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def render_bench_text(rows: list[BenchRow]) -> str:
    header = f"{'dim':>6} {'t_inversion':>14} {'t_signature':>14} {'speedup':>9} {'discrepancy':>13}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.dim:>6} {row.t_inversion:>14.6e} {row.t_signature:>14.6e} "
            f"{row.speedup:>9.2f} {row.discrepancy:>13.3e}"
        )
    return "\n".join(lines) + "\n"

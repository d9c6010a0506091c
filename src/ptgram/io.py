"""File formats: the matrix interchange JSON and the report/analysis/bench
serializations.

A matrix file (``ptgram-matrix/2``) holds H as ``dim`` rows of ``2*dim``
JSON numbers, each entry's re and im side by side, and P as its index map
``perm``, with (P x)[i] = x[perm[i]], whenever the parity holds P as one;
any other P is written as rows like H.  Files of
``ptgram-matrix/1``, analysis output and files without a schema hold complex
entries as two-element [re, im] arrays in row-major nested lists, and still
read.  Either layout is read by C-level passes over the parsed lists (shape
and value types, then one ``np.fromiter`` fill); only a rejected field is
walked entry by entry, to name its first fault (``h``, ``h[i]``,
``h[i][j]`` or ``p[i]``) in row-major order.  Non-finite values reject the
whole field.  The cyclic garbage collector is paused while a file is
parsed: the parse builds a list per row or entry, none in a cycle, so
reference counting frees them, and a running collector would scan them all
several times over.

Every JSON output (matrix file, report, analysis, bench table) is written by
:func:`dumps` with the bytes of ``json.dumps(..., indent=2) + "\\n"``.  A
top-level array field, vector or matrix, is written in its nested form, and
a matrix file's rows as plain numbers, by one ``%``-format call per row
(``%r`` is json's float repr) instead of json's pure-Python indenting
encoder.  A non-finite array entry is refused on writing as on reading:
JSON has no number for it.

Measured residuals and defects are serialized as decimal strings with 17
significant digits, which round-trip float64 exactly and keep reports
byte-stable for identical inputs; wall-clock timings stay plain JSON numbers
since they vary run to run.
"""

from __future__ import annotations

import gc
import json
from dataclasses import asdict
from itertools import chain
from typing import Any, NoReturn

import numpy as np

from .errors import InputFormatError
from .gram import inverse_via_signature
from .symmetry import ParityOperator, make_parity
from .verify import CONVENTIONS, PipelineArtifacts

__all__ = [
    "MATRIX_SCHEMA",
    "REPORT_SCHEMA",
    "ANALYSIS_SCHEMA",
    "BENCH_SCHEMA",
    "dumps",
    "dump_matrix_pair",
    "write_matrix_pair",
    "load_matrix_pair",
    "matrix_to_nested",
    "report_to_dict",
    "analysis_to_dict",
    "render_report_text",
    "render_analysis_text",
    "render_bench_text",
]

MATRIX_SCHEMA = "ptgram-matrix/2"
REPORT_SCHEMA = "ptgram-report/1"
ANALYSIS_SCHEMA = "ptgram-analysis/1"
BENCH_SCHEMA = "ptgram-bench/2"
# schemas of files whose h and p hold [re, im] pairs (None: no schema field)
_PAIR_SCHEMAS = (None, "ptgram-matrix/1", ANALYSIS_SCHEMA)
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


def _check_rows(obj: Any, dim: int, field_name: str) -> None:
    """Raise the error for a field that is not a list of ``dim`` rows."""
    if type(obj) is not list or len(obj) != dim:
        raise InputFormatError(f"field {field_name!r} must be a list of {dim} rows", field=field_name)


def _fill(values, dim: int, field_name: str) -> np.ndarray:
    """The complex (dim, dim) matrix of a field's ``2*dim*dim`` numbers
    (re, im, re, ... in row-major order), once their types are checked.
    Raises OverflowError for an integer beyond the float range."""
    flat = np.fromiter(values, np.float64, count=2 * dim * dim)
    if not np.isfinite(flat).all():
        raise InputFormatError(f"field {field_name!r} contains non-finite entries", field=field_name)
    return flat.view(np.complex128).reshape(dim, dim)


def _raise_first_fault(obj: list, dim: int, field_name: str) -> NoReturn:
    """Raise the error for the first malformed row or entry of a field of
    [re, im] pairs in row-major order; called only once the bulk check has
    rejected it."""
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
    _check_rows(obj, dim, field_name)
    if not (
        set(map(type, obj)) == {list}
        and set(map(len, obj)) == {dim}
        and set(map(type, chain.from_iterable(obj))) == {list}
        and set(map(len, chain.from_iterable(obj))) == {2}
        and set(map(type, _values(obj))) <= _NUMBER_TYPES
    ):
        _raise_first_fault(obj, dim, field_name)
    try:
        return _fill(_values(obj), dim, field_name)
    except OverflowError:
        _raise_first_fault(obj, dim, field_name)


def _raise_first_row_fault(obj: list, dim: int, field_name: str) -> NoReturn:
    """Raise the error for the first malformed row or number of a field of
    rows of ``2*dim`` numbers in row-major order; called only once the bulk
    check has rejected it."""
    for i, row in enumerate(obj):
        if type(row) is not list or len(row) != 2 * dim:
            raise InputFormatError(f"row {i} of field {field_name!r} must hold {2 * dim} numbers",
                                   field=f"{field_name}[{i}]")
        for j, value in enumerate(row):
            where = f"{field_name}[{i}][{j}]"
            if type(value) not in _NUMBER_TYPES:
                raise InputFormatError(f"{where} must be a number, got {value!r}", field=where)
            try:
                float(value)
            except OverflowError as exc:
                raise InputFormatError(f"{where} does not fit a float: {exc}", field=where) from exc
    raise AssertionError(f"field {field_name!r} was rejected but has no malformed entry")


def _rows_to_matrix(obj: Any, dim: int, field_name: str) -> np.ndarray:
    """The complex (dim, dim) matrix of a field of ``dim`` rows of ``2*dim``
    numbers, each entry's re and im side by side; raises
    :class:`InputFormatError` naming the field's first fault."""
    _check_rows(obj, dim, field_name)
    if not (
        set(map(type, obj)) == {list}
        and set(map(len, obj)) == {2 * dim}
        and set(map(type, chain.from_iterable(obj))) <= _NUMBER_TYPES
    ):
        _raise_first_row_fault(obj, dim, field_name)
    try:
        return _fill(chain.from_iterable(obj), dim, field_name)
    except OverflowError:
        _raise_first_row_fault(obj, dim, field_name)


def _parity_field(obj: Any, dim: int) -> np.ndarray | list:
    """The P of a ``ptgram-matrix/2`` file's ``p``: its index map, a list of
    ``dim`` integers, or the matrix of ``dim`` rows like ``h``'s."""
    if type(obj) is not list or len(obj) != dim:
        raise InputFormatError(f"field 'p' must be a list of {dim} indices or {dim} rows", field="p")
    if type(obj[0]) is list:
        return _rows_to_matrix(obj, dim, "p")
    if set(map(type, obj)) != {int} or min(obj) < 0 or max(obj) >= dim:
        for i, index in enumerate(obj):
            if type(index) is not int or not 0 <= index < dim:
                raise InputFormatError(
                    f"p[{i}] must be an integer index in [0, {dim}), got {index!r}", field=f"p[{i}]"
                )
    return obj


def _format_field(name: str, m: np.ndarray) -> str:
    """``json.dumps(matrix_to_nested(m), indent=2)`` at a top-level key, for
    a vector or a matrix; raises ValueError naming ``name`` if an entry is not
    finite."""
    if not np.isfinite(m).all():
        raise ValueError(f"field {name!r} contains non-finite entries")
    values = np.ascontiguousarray(m, dtype=np.complex128).view(np.float64).tolist()
    pad = "\n" + "  " * (m.ndim + 1)  # before an entry's brackets
    entry = f"{pad}[{pad}  %r,{pad}  %r{pad}]"
    if m.ndim == 1:
        return "[" + ",".join([entry] * len(m)) % tuple(values) + "\n  ]"
    return _join_rows(values, entry, m.shape[1])


def _join_rows(values: list, entry: str, width: int) -> str:
    """``json.dumps(values, indent=2)`` at a top-level key, for rows of
    ``width`` items that ``entry`` formats."""
    row = "\n    [" + ",".join([entry] * width) + "\n    ]"
    return "[" + ",".join([row % tuple(r) for r in values]) + "\n  ]"


class _Rows(list):
    """Equal, non-empty rows of finite floats, such as a matrix file's ``h``:
    a list to ``json``, written by :func:`dumps` one ``%``-format per row."""


def _format_value(key: str, value: Any) -> str:
    if isinstance(value, np.ndarray):
        return _format_field(key, value)
    if type(value) is _Rows:
        return _join_rows(value, "\n      %r", len(value[0]))
    return json.dumps(value, indent=2).replace("\n", "\n  ")


def dumps(payload: dict) -> str:
    """``json.dumps(payload, indent=2) + "\\n"``, where a top-level array field
    (vector or matrix) is written as its :func:`matrix_to_nested` form.
    Raises ValueError naming an array field with a non-finite entry."""
    fields = [f"\n  {json.dumps(key)}: " + _format_value(key, value) for key, value in payload.items()]
    return "{" + ",".join(fields) + "\n}\n" if fields else "{}\n"


def _rows(name: str, m: np.ndarray) -> _Rows:
    """A matrix as rows of plain numbers, each entry's re and im side by
    side; raises ValueError naming ``name`` if an entry is not finite."""
    if not np.isfinite(m).all():
        raise ValueError(f"field {name!r} contains non-finite entries")
    return _Rows(np.ascontiguousarray(m, dtype=np.complex128).view(np.float64).tolist())


def dump_matrix_pair(h: np.ndarray, parity: ParityOperator) -> str:
    """The ``ptgram-matrix/2`` file of an (H, P) pair: H as rows of
    ``2*dim`` numbers, and P as its index map when the parity holds one,
    else as rows.  Byte-identical for identical inputs, and read back bit for
    bit, and to the same held form, by :func:`load_matrix_pair`.  Raises
    ValueError naming the field of a non-finite entry."""
    rows = _rows("h", h)
    perm = parity.perm
    return dumps({"schema": MATRIX_SCHEMA, "dim": int(h.shape[0]), "h": rows,
                  "p": _rows("p", parity.matrix) if perm is None else perm.tolist()})


def write_matrix_pair(path, h: np.ndarray, parity: ParityOperator) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_matrix_pair(h, parity))


def _parse_matrix_pair(text: str) -> tuple[int, np.ndarray, np.ndarray | list]:
    """The dim, H and P (a matrix or an index map) of a matrix file's text."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"not valid JSON: {exc}", field=None) from exc
    except ValueError as exc:  # an integer literal past Python's int-string limit
        raise InputFormatError(f"unreadable number: {exc}", field=None) from exc
    except RecursionError as exc:
        raise InputFormatError(f"JSON nested too deeply: {exc}", field=None) from exc
    if not isinstance(payload, dict):
        raise InputFormatError("top level must be a JSON object", field=None)
    schema = payload.get("schema")
    if schema != MATRIX_SCHEMA and schema not in _PAIR_SCHEMAS:
        raise InputFormatError(
            f"unknown schema {schema!r}; expected {MATRIX_SCHEMA!r}, 'ptgram-matrix/1', "
            f"{ANALYSIS_SCHEMA!r} or none", field="schema"
        )
    for key in ("dim", "h", "p"):
        if key not in payload:
            raise InputFormatError(f"missing required field {key!r}", field=key)
    dim = payload["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputFormatError(f"field 'dim' must be a positive integer, got {dim!r}", field="dim")
    if schema == MATRIX_SCHEMA:
        return dim, _rows_to_matrix(payload["h"], dim, "h"), _parity_field(payload["p"], dim)
    return dim, nested_to_matrix(payload["h"], dim, "h"), nested_to_matrix(payload["p"], dim, "p")


def load_matrix_pair(path) -> tuple[np.ndarray, ParityOperator]:
    """Read an (H, P) pair, validating shape, finiteness, and that P is a
    self-adjoint involution.

    A ``ptgram-matrix/2`` file is read as rows and, for P, an index map; a
    ``ptgram-matrix/1`` or ``ptgram-analysis/1`` file, or one without a
    ``schema``, as [re, im] pairs.  P is passed on as read, an index map with
    no dense P, to ``make_parity("explicit", ...)``, which holds any
    permutation P as its index map (each ``matrix`` read allocates n x n).

    Raises :class:`InputFormatError` naming the offending field on malformed
    content or an unknown schema, and :class:`InvalidParity` when P fails its
    contract.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"not UTF-8 text: {exc}", field=None) from exc
    # paused until the parsed lists are freed, or the next allocation collects
    enabled = gc.isenabled()
    gc.disable()
    try:
        dim, h, p = _parse_matrix_pair(text)
    finally:
        if enabled:
            gc.enable()
    return h, make_parity("explicit", dim, matrix=p)


def _run_fields(art: PipelineArtifacts) -> dict:
    """The fields a report and an analysis share, in report order."""
    signature = art.signature
    return {
        "classification": None if art.classification is None else asdict(art.classification),
        "signature": None if signature is None else {
            "values": [int(v) for v in signature.values],
            "residuals": [_residual(r) for r in signature.residuals],
            "valid": signature.valid,
        },
        "eigvec_condition": _residual(art.eigvec_condition),
        "min_eigen_gap": _residual(art.min_eigen_gap),
        "parity": {"kind": art.parity.kind, "trivial": art.parity.is_trivial},
    }


def report_to_dict(report: PipelineArtifacts) -> dict:
    """Stable machine-readable form of a scored run (see
    :func:`~ptgram.verify.full_verification`); JSON-serializable as it is."""
    return {
        "schema": REPORT_SCHEMA,
        "relations": [
            {**asdict(entry), "residual": _residual(entry.residual),
             "tolerance": _residual(entry.tolerance)}
            for entry in report.relations
        ],
        "eigenvalues": None if report.eigenvalues is None else matrix_to_nested(report.eigenvalues),
        **_run_fields(report),
        "charge_nonhermiticity": _residual(report.charge_nonhermiticity),
        "all_applicable_pass": report.all_applicable_pass,
        "failure": report.failure,
        "anomalies": list(report.anomalies),
        "conventions": list(CONVENTIONS),
        "timings": {k: float(v) for k, v in report.timings.items()},
    }


def analysis_to_dict(art: PipelineArtifacts) -> dict:
    """Everything a caller needs from one analysis run, including the input
    pair itself so generated files can be round-trip checked.  Matrix and
    vector fields are numpy arrays; :func:`dumps` writes the payload."""
    sys = art.system
    # S G S is not kept: formed here for a run whose theorem check read it
    inverse = None if art.theorem is None else inverse_via_signature(art.gram, art.signature)
    shared = _run_fields(art)
    return {
        "schema": ANALYSIS_SCHEMA,
        "dim": int(art.h.shape[0]),
        "h": art.h,
        "p": art.parity.matrix,
        "parity": shared.pop("parity"),
        "pt_residual": _residual(art.pt_residual),
        "pseudo_hermiticity_residual": _residual(art.pseudo_residual),
        "eigenvalues": None if sys is None else sys.eigenvalues,
        **shared,
        "duality_defect": None if sys is None else _residual(sys.duality_defect),
        "completeness_defect": None if sys is None else _residual(sys.completeness_defect),
        "gram": art.gram,
        "gram_inverse": inverse,
        "gram_inverse_route": None if inverse is None else "signature",
        "states": None if sys is None else sys.states.T,
        "duals": None if sys is None else sys.duals.T,
        "failure": art.failure,
        "anomalies": list(art.anomalies),
        "timings": {k: float(v) for k, v in art.timings.items()},
    }


def _sci(value: str | None) -> str:
    """A payload number (a 17-digit string) as the text tables print it."""
    return "-" if value is None else f"{float(value):.3e}"


def _notes(payload: dict) -> list[str]:
    """The text lines of a payload's failure and anomalies."""
    failure = payload["failure"]
    return ([] if failure is None else [f"numerical failure: {failure}"]) + [
        f"note: {note}" for note in payload["anomalies"]]


def render_report_text(payload: dict) -> str:
    """Human-readable relation table of a :func:`report_to_dict` payload,
    or of its JSON read back (the JSON form is the contract)."""
    header = f"{'relation':<14} {'status':<15} {'residual':<13} {'tolerance':<13} description"
    lines = [header, "-" * len(header)]
    for entry in payload["relations"]:
        lines.append(f"{entry['id']:<14} {entry['status']:<15} {_sci(entry['residual']):<13} "
                     f"{_sci(entry['tolerance']):<13} {entry['description']}")
    statuses = [entry["status"] for entry in payload["relations"]]
    passing, applicable = statuses.count("pass"), len(statuses) - statuses.count("not-applicable")
    lines += ["", *_notes(payload), f"applicable relations passing: {passing}/{applicable}"]
    return "\n".join(lines) + "\n"


def render_analysis_text(payload: dict) -> str:
    """Short human-readable summary of an :func:`analysis_to_dict` payload."""
    parity = payload["parity"]
    lines = [f"dim: {payload['dim']}   parity: {parity['kind']}"
             + ("   (trivial)" if parity["trivial"] else ""),
             f"pt residual: {_sci(payload['pt_residual'])}   "
             f"pseudo-hermiticity residual: {_sci(payload['pseudo_hermiticity_residual'])}"]
    if payload["eigenvalues"] is not None:
        signature = payload["signature"]
        lines.append("eigenvalues:")
        for k, lam in enumerate(payload["eigenvalues"]):
            sign = "" if signature is None else f"   sign {signature['values'][k]:+d}"
            lines.append(f"  [{k:3d}]  {lam.real:+.12e}  {lam.imag:+.12e}j{sign}")
        lines.append(f"duality defect: {_sci(payload['duality_defect'])}   "
                     f"completeness defect: {_sci(payload['completeness_defect'])}")
    classification = payload["classification"]
    if classification is not None:
        state = "unbroken" if classification["unbroken"] else "broken"
        lines.append(f"spectrum: {state}   real: {len(classification['real_indices'])}   "
                     f"conjugate pairs: {len(classification['conjugate_pairs'])}")
    if payload["eigvec_condition"] is not None:
        lines.append(f"eigenvector condition: {_sci(payload['eigvec_condition'])}   "
                     f"min eigenvalue gap: {_sci(payload['min_eigen_gap'])}")
    return "\n".join(lines + _notes(payload)) + "\n"


def render_bench_text(payload: dict) -> str:
    """Stage table of a ``ptgram bench`` payload: per dimension, the min and
    median of each stage in ms, and the median's share of the median total."""
    header = f"{'stage':<20} {'min ms':>10} {'median ms':>10} {'share':>7}"
    lines = []
    for row in payload["rows"]:
        lines += [f"dim {row['dim']}   seed {row['seed']}   discrepancy {_sci(row['discrepancy'])}",
                  header, "-" * len(header)]
        total = row["stages"]["total"]["median"]
        for stage, t in row["stages"].items():
            lines.append(f"{stage:<20} {1e3 * t['min']:>10.3f} {1e3 * t['median']:>10.3f} "
                         f"{t['median'] / total:>7.1%}")
        lines.append("")
    return "\n".join(lines)

"""CLI tests: exit codes, formats, determinism, round trips."""

import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import ptgram.cli
import ptgram.io as ptio
import ptgram.verify
from contextlib import nullcontext

from ptgram import (
    InputFormatError,
    InvalidParity,
    SingularMatrix,
    discretized_schrodinger,
    full_verification,
    lattice_chain,
    make_parity,
    random_pt,
    random_unbroken_pt,
    run_pipeline,
    two_level,
)
from ptgram.cli import main

SQRT3 = np.sqrt(3.0)
SRC = Path(__file__).resolve().parents[1] / "src"

# files whose bytes read as no JSON values, and the start of the error each gives
UNREADABLE = [
    (b'{"dim": 1, "h": [[[' + b"1" * 5000 + b', 0]]], "p": [[[1, 0]]]}',
     "unreadable number: Exceeds the limit (4300 digits) for integer string conversion"),
    (b'{"dim": 1, "h": [[[1, 0]]], "p": [[[1, 0]]], "note": "\xff"}',
     "not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
]
UNREADABLE_IDS = ["integer-past-the-digit-limit", "not-utf-8"]


def run_cli(args):
    try:
        return main(args)
    except SystemExit as exc:  # argparse usage failures
        return int(exc.code)


class TestAnalyze:
    def test_two_level_json(self, capsys):
        code = run_cli(["analyze", "--model", "two-level", "--g", "1", "--b", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "ptgram-analysis/1"
        values = [complex(re, im) for re, im in payload["eigenvalues"]]
        assert abs(values[0] - (-SQRT3)) < 1e-12
        assert abs(values[1] - SQRT3) < 1e-12
        assert payload["signature"]["values"] == [-1, 1]

    def test_hermitian_explicit_identity_parity(self, tmp_path, capsys):
        h = np.diag([1.0, 2.0, 3.0]).astype(complex)
        parity = make_parity("explicit", 3, matrix=np.eye(3))
        path = tmp_path / "herm.json"
        ptio.write_matrix_pair(path, h, parity)
        code = run_cli(["analyze", "--input", str(path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parity"]["trivial"] is True
        assert payload["signature"]["values"] == [1, 1, 1]
        gram = np.array([[complex(re, im) for re, im in row] for row in payload["gram"]])
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    def test_malformed_input_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "h": [[[0,0],[1,0]],[[1,0],[0,0]]]}')
        code = run_cli(["analyze", "--input", str(path)])
        assert code == 2
        assert "p" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, capsys):
        code = run_cli(["analyze", "--model", "two-level", "--g", "1", "--b", "1"])
        capsys.readouterr()
        assert code == 3

    def test_exit_zero_even_when_relations_fail(self, tmp_path, capsys):
        # analyze reports; only verify turns pass/fail into the exit code
        h = np.array([[1j, 2.0], [2.0, 1j]])
        path = tmp_path / "nonpt.json"
        ptio.write_matrix_pair(path, h, make_parity("swap-pairs", 2))
        code = run_cli(["analyze", "--input", str(path)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert float(payload["pt_residual"]) == 2.0

    def test_nonpositive_tolerance_usage_error(self, capsys):
        code = run_cli(["analyze", "--model", "two-level", "--tol-eig", "-1"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("flag", ["--tol-eig", "--tol-sig"])
    def test_infinite_tolerance_usage_error(self, capsys, flag):
        code = run_cli(["verify", "--model", "two-level", "--g", "1", "--b", "2", flag, "inf"])
        assert capsys.readouterr().out == ""
        assert code == 2

    def test_text_format(self, capsys):
        code = run_cli(["analyze", "--model", "two-level", "--g", "1", "--b", "2",
                        "--format", "text-table"])
        assert code == 0
        out = capsys.readouterr().out
        assert "eigenvalues" in out and "sign" in out

    def test_timings_start_with_the_input(self, capsys):
        assert run_cli(["analyze", "--model", "two-level"]) == 0
        timings = json.loads(capsys.readouterr().out)["timings"]
        assert list(timings) == ["input", *run_pipeline(*two_level(1.0, 2.0)).timings]
        assert timings["input"] >= 0.0

    def test_output_file(self, tmp_path):
        path = tmp_path / "analysis.json"
        code = run_cli(["analyze", "--model", "two-level", "--g", "1", "--b", "2",
                        "--output", str(path)])
        assert code == 0
        assert json.loads(path.read_text())["schema"] == "ptgram-analysis/1"


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code = run_cli(["verify", "--model", "two-level", "--g", "1", "--b", "2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        statuses = {r["id"]: r["status"] for r in payload["relations"]}
        assert set(statuses.values()) == {"pass"}
        assert len(payload["relations"]) == 11

    def test_broken_not_applicable_still_zero(self, capsys):
        code = run_cli(["verify", "--model", "two-level", "--g", "2", "--b", "1"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        statuses = {r["id"]: r["status"] for r in payload["relations"]}
        assert statuses["Eq12"] == "not-applicable"
        assert statuses["PT-comm"] == "pass"
        assert payload["classification"]["unbroken"] is False

    def test_non_pt_exit_one(self, tmp_path, capsys):
        h = np.array([[1j, 2.0], [2.0, 1j]])
        path = tmp_path / "nonpt.json"
        ptio.write_matrix_pair(path, h, make_parity("swap-pairs", 2))
        code = run_cli(["verify", "--input", str(path)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        entry = next(r for r in payload["relations"] if r["id"] == "PT-comm")
        assert entry["status"] == "fail"
        assert float(entry["residual"]) == 2.0

    def test_exceptional_point_exit_three(self, capsys):
        code = run_cli(["verify", "--model", "two-level", "--g", "1", "--b", "1"])
        capsys.readouterr()
        assert code == 3

    def test_near_exceptional_point_chain_exits_one(self, capsys):
        # Cholesky accepts its G (lambda_min / lambda_max ~ 2e-13); the invalid signature fails Eq5
        code = run_cli(["verify", "--model", "lattice-chain", "--n", "17",
                        "--gamma", repr(float(np.sqrt(18 / 16) - 1e-6)), "--t", "1"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1 and payload["failure"] is None
        assert payload["anomalies"] == [
            "signature residuals exceed tolerance; sign-dependent relations skipped"]

    def test_singular_gram_solve_exit_three_with_report(self, tmp_path, monkeypatch, capsys):
        def singular(*args, **kwargs):
            raise SingularMatrix("forced singular Gram solve")

        monkeypatch.setattr(ptgram.verify, "gram_inverse", singular)
        out = tmp_path / "report.json"
        code = run_cli(["verify", "--model", "two-level", "--output", str(out)])
        capsys.readouterr()
        assert code == 3
        failure = json.loads(out.read_text())["failure"]
        assert failure == "dual inversion: forced singular Gram solve"

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        assert run_cli(["verify"]) == 2
        path = tmp_path / "m.json"
        run_cli(["generate", "--model", "two-level", "--output", str(path)])
        code = run_cli(["verify", "--model", "two-level", "--input", str(path)])
        capsys.readouterr()
        assert code == 2

    def test_missing_file(self, capsys):
        code = run_cli(["verify", "--input", "/nonexistent/x.json"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("content, message, field", [
        (b'{"dim": 1, "h": [[[1%s, 0]]], "p": [[[1, 0]]]}' % (b"0" * 400),
         "h[0][0] does not fit a float", "h[0][0]"),
        (b'{"dim": 1, "h": %s%s, "p": [[[1, 0]]]}' % (b"[" * 100000, b"]" * 100000),
         "JSON nested too deeply", None),
        *[(content, message, None) for content, message in UNREADABLE],
    ], ids=["integer-beyond-float", "nested-beyond-recursion-limit", *UNREADABLE_IDS])
    def test_unreadable_number_or_nesting_is_a_usage_error(self, tmp_path, capsys, content, message, field):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code = run_cli(["verify", "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert field is None or f"(field: {field})" in err

    @pytest.mark.parametrize("source", ["--model", "--input"])
    def test_timings_start_with_the_input(self, tmp_path, capsys, source):
        path = tmp_path / "m.json"
        ptio.write_matrix_pair(path, *two_level(1.0, 2.0))
        argv = ["--model", "two-level"] if source == "--model" else ["--input", str(path)]
        assert run_cli(["verify", *argv]) == 0
        timings = json.loads(capsys.readouterr().out)["timings"]
        library = full_verification(*two_level(1.0, 2.0)).timings
        assert list(timings) == ["input", *library]
        assert timings["input"] >= 0.0

    def test_text_format(self, capsys):
        code = run_cli(["verify", "--model", "lattice-chain", "--n", "8", "--gamma", "0.2",
                        "--t", "1.0", "--format", "text-table"])
        out = capsys.readouterr().out
        assert code == 0
        assert "applicable relations passing: 11/11" in out


# A valid 2x2 field: both the H and the swap parity of the files below.
GOOD = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
NAN, INF, BIG = float("nan"), float("inf"), 10 ** 400
ENTRY = "{w} must be a two-element [re, im] number pair, got {got}"
# id, field content, offending field and message ({f} is h or p)
PARSE_ERRORS = [
    ("one-row", [GOOD[0]], "{f}", "field '{f}' must be a list of 2 rows"),
    ("three-rows", GOOD + [GOOD[0]], "{f}", "field '{f}' must be a list of 2 rows"),
    ("not-a-list", {"0": GOOD[0]}, "{f}", "field '{f}' must be a list of 2 rows"),
    ("short-row", [GOOD[0], [[1, 0]]], "{f}[1]", "row 1 of field '{f}' must hold 2 entries"),
    ("long-row", [GOOD[0], GOOD[1] + [[0, 0]]], "{f}[1]", "row 1 of field '{f}' must hold 2 entries"),
    ("row-not-a-list", ["ab", GOOD[1]], "{f}[0]", "row 0 of field '{f}' must hold 2 entries"),
    ("entry-not-a-list", [[[0, 0], 1], GOOD[1]], "{f}[0][1]", ENTRY.format(w="{f}[0][1]", got="1")),
    ("entry-a-string", [[[0, 0], "10"], GOOD[1]], "{f}[0][1]",
     ENTRY.format(w="{f}[0][1]", got="'10'")),
    ("one-item", [[[0, 0], [1]], GOOD[1]], "{f}[0][1]", ENTRY.format(w="{f}[0][1]", got="[1]")),
    ("three-items", [[[0, 0], [1, 0, 0]], GOOD[1]], "{f}[0][1]",
     ENTRY.format(w="{f}[0][1]", got="[1, 0, 0]")),
    ("bool", [GOOD[0], [[True, 0], [0, 0]]], "{f}[1][0]",
     ENTRY.format(w="{f}[1][0]", got="[True, 0]")),
    ("string", [GOOD[0], [[1, 0], [0, "0"]]], "{f}[1][1]",
     ENTRY.format(w="{f}[1][1]", got="[0, '0']")),
    ("null", [GOOD[0], [[1, None], [0, 0]]], "{f}[1][0]",
     ENTRY.format(w="{f}[1][0]", got="[1, None]")),
    ("nested-list", [GOOD[0], [[1, 0], [[0], 0]]], "{f}[1][1]",
     ENTRY.format(w="{f}[1][1]", got="[[0], 0]")),
    ("integer-beyond-float", [GOOD[0], [[BIG, 0], [0, 0]]], "{f}[1][0]",
     "{f}[1][0] does not fit a float: int too large to convert to float"),
    ("nan", [GOOD[0], [[1, 0], [NAN, 0]]], "{f}", "field '{f}' contains non-finite entries"),
    ("infinity", [[[0, INF], [1, 0]], GOOD[1]], "{f}", "field '{f}' contains non-finite entries"),
    ("minus-infinity", [GOOD[0], [[-INF, 0], [0, 0]]], "{f}",
     "field '{f}' contains non-finite entries"),
    ("two-entry-faults", [[[0, 0], [True, 0]], [[None, 0], [0, 0]]], "{f}[0][1]",
     ENTRY.format(w="{f}[0][1]", got="[True, 0]")),
    ("row-fault-before-entry-fault", [[[0, 0]], [[0, 0], [True, 0]]], "{f}[0]",
     "row 0 of field '{f}' must hold 2 entries"),
    ("entry-fault-before-row-fault", [[[0, 0], [0, "1"]], [[0, 0]]], "{f}[0][1]",
     ENTRY.format(w="{f}[0][1]", got="[0, '1']")),
    ("overflow-before-bad-type", [[[BIG, 0], [1, 0]], [[1, 0], [None, 0]]], "{f}[0][0]",
     "{f}[0][0] does not fit a float: int too large to convert to float"),
    ("bad-type-before-overflow", [[[0, 0], [1, "0"]], [[BIG, 0], [0, 0]]], "{f}[0][1]",
     ENTRY.format(w="{f}[0][1]", got="[1, '0']")),
    ("non-finite-before-bad-type", [[[NAN, 0], [1, 0]], [[1, 0], [None, 0]]], "{f}[1][1]",
     ENTRY.format(w="{f}[1][1]", got="[None, 0]")),
]

# ptgram-matrix/2: a valid 2x2 field of rows (re and im side by side), both
# the H and the swap parity below, and the swap's index map.
ROWS = [[0, 0, 1, 0], [1, 0, 0, 0]]
NUMBER = "{w} must be a number, got {got}"
# id, field content, offending field and message ({f} is h or p; p may also
# be an index map, so {rows} names both forms for it)
ROW_ERRORS = [
    ("one-row", [ROWS[0]], "{f}", "field '{f}' must be a list of {rows}"),
    ("short-row", [ROWS[0], [1, 0, 0]], "{f}[1]", "row 1 of field '{f}' must hold 4 numbers"),
    ("long-row", [ROWS[0], ROWS[1] + [0]], "{f}[1]", "row 1 of field '{f}' must hold 4 numbers"),
    ("pairs", [[[0, 0], [1, 0]], [[1, 0], [0, 0]]], "{f}[0]", "row 0 of field '{f}' must hold 4 numbers"),
    ("row-not-a-list", [ROWS[0], "abcd"], "{f}[1]", "row 1 of field '{f}' must hold 4 numbers"),
    ("string", [[0, 0, 1, "0"], ROWS[1]], "{f}[0][3]", NUMBER.format(w="{f}[0][3]", got="'0'")),
    ("bool", [ROWS[0], [True, 0, 0, 0]], "{f}[1][0]", NUMBER.format(w="{f}[1][0]", got="True")),
    ("null", [ROWS[0], [1, None, 0, 0]], "{f}[1][1]", NUMBER.format(w="{f}[1][1]", got="None")),
    ("nested-list", [ROWS[0], [1, 0, [0], 0]], "{f}[1][2]", NUMBER.format(w="{f}[1][2]", got="[0]")),
    ("integer-beyond-float", [ROWS[0], [BIG, 0, 0, 0]], "{f}[1][0]",
     "{f}[1][0] does not fit a float: int too large to convert to float"),
    ("nan", [ROWS[0], [1, 0, NAN, 0]], "{f}", "field '{f}' contains non-finite entries"),
    ("infinity", [[0, INF, 1, 0], ROWS[1]], "{f}", "field '{f}' contains non-finite entries"),
    ("row-fault-before-entry-fault", [[0, 0, 1], [0, 0, True, 0]], "{f}[0]",
     "row 0 of field '{f}' must hold 4 numbers"),
    ("entry-fault-before-row-fault", [[0, 0, 1, "1"], [0, 0]], "{f}[0][3]",
     NUMBER.format(w="{f}[0][3]", got="'1'")),
    ("overflow-before-bad-type", [[BIG, 0, 1, 0], [1, 0, None, 0]], "{f}[0][0]",
     "{f}[0][0] does not fit a float: int too large to convert to float"),
    ("non-finite-before-bad-type", [[NAN, 0, 1, 0], [1, 0, None, 0]], "{f}[1][2]",
     NUMBER.format(w="{f}[1][2]", got="None")),
]
INDEX = "p[{i}] must be an integer index in [0, 2), got {got}"
# id, index map, offending field and message
PERM_ERRORS = [
    ("short", [0], "p", "field 'p' must be a list of 2 indices or 2 rows"),
    ("long", [1, 0, 2], "p", "field 'p' must be a list of 2 indices or 2 rows"),
    ("not-a-list", {"0": 1, "1": 0}, "p", "field 'p' must be a list of 2 indices or 2 rows"),
    ("bool", [1, False], "p[1]", INDEX.format(i=1, got="False")),
    ("float", [1.0, 0], "p[0]", INDEX.format(i=0, got="1.0")),
    ("string", [1, "0"], "p[1]", INDEX.format(i=1, got="'0'")),
    ("negative", [-1, 0], "p[0]", INDEX.format(i=0, got="-1")),
    ("out-of-range", [1, 2], "p[1]", INDEX.format(i=1, got="2")),
    ("beyond-int64", [1, 2 ** 64], "p[1]", INDEX.format(i=1, got=str(2 ** 64))),
    ("first-fault", [True, 5], "p[0]", INDEX.format(i=0, got="True")),
]


class TestMatrixFileParsing:
    """``verify --input`` on malformed matrix files: exit 2 with the first
    faulty field in row-major order named, and the values a well-formed file
    holds read back exactly."""

    @pytest.mark.parametrize("field", ["h", "p"])
    @pytest.mark.parametrize("content, where, message",
                             [case[1:] for case in PARSE_ERRORS],
                             ids=[case[0] for case in PARSE_ERRORS])
    def test_first_fault_is_named(self, tmp_path, capsys, field, content, where, message):
        payload = {"dim": 2, "h": GOOD, "p": GOOD, field: content}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code = run_cli(["verify", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        where, message = where.format(f=field), message.format(f=field)
        assert captured.err == f"error: {message} (field: {where})\n"

    @pytest.mark.parametrize("field", ["h", "p"])
    @pytest.mark.parametrize("content, where, message",
                             [case[1:] for case in ROW_ERRORS],
                             ids=[case[0] for case in ROW_ERRORS])
    def test_first_fault_in_rows_is_named(self, tmp_path, capsys, field, content, where, message):
        payload = {"schema": "ptgram-matrix/2", "dim": 2, "h": ROWS, "p": ROWS, field: content}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code = run_cli(["verify", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        rows = "2 rows" if field == "h" else "2 indices or 2 rows"
        where, message = where.format(f=field), message.format(f=field, rows=rows)
        assert captured.err == f"error: {message} (field: {where})\n"

    @pytest.mark.parametrize("content, where, message",
                             [case[1:] for case in PERM_ERRORS],
                             ids=[case[0] for case in PERM_ERRORS])
    def test_first_fault_in_index_map_is_named(self, tmp_path, capsys, content, where, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "ptgram-matrix/2", "dim": 2, "h": ROWS, "p": content}))
        code = run_cli(["verify", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message} (field: {where})\n"

    @pytest.mark.parametrize("perm", [[1, 2, 0], [0, 0, 1]], ids=["three-cycle", "repeated"])
    def test_index_map_of_no_involution_is_an_invalid_parity(self, tmp_path, capsys, perm):
        path = tmp_path / "bad.json"
        h = [[0.0] * 6 for _ in range(3)]
        path.write_text(json.dumps({"schema": "ptgram-matrix/2", "dim": 3, "h": h, "p": perm}))
        with pytest.raises(InvalidParity, match="P\\^2 differs from identity"):
            ptio.load_matrix_pair(path)
        assert run_cli(["verify", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: P^2 differs from identity")

    @pytest.mark.parametrize("schema", [None, "ptgram-matrix/1", "ptgram-analysis/1"],
                             ids=["no-schema", "matrix-1", "analysis-1"])
    def test_pair_schemas_read_pairs(self, tmp_path, schema):
        payload = {"dim": 2, "h": [[[0, 1], [2, 0]], [[2, 0], [0, -1]]], "p": GOOD}
        if schema is not None:
            payload = {"schema": schema, **payload}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        h, parity = ptio.load_matrix_pair(path)
        assert h.tobytes() == np.array([[complex(0, 1), 2], [2, complex(0, -1)]]).tobytes()
        assert parity.matrix.tobytes() == make_parity("swap-pairs", 2).matrix.tobytes()
        path.write_text(json.dumps({**payload, "h": ROWS}))
        with pytest.raises(InputFormatError, match="row 0 of field 'h' must hold 2 entries"):
            ptio.load_matrix_pair(path)

    @pytest.mark.parametrize("schema", ["ptgram-matrix/3", "ptgram-report/1", "", 2, ["ptgram-matrix/2"]])
    def test_unknown_schema_is_a_usage_error(self, tmp_path, capsys, schema):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"schema": schema, "dim": 2, "h": ROWS, "p": [1, 0]}))
        with pytest.raises(InputFormatError, match="unknown schema") as info:
            ptio.load_matrix_pair(path)
        assert info.value.field == "schema"
        assert run_cli(["verify", "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: unknown schema {schema!r}; expected 'ptgram-matrix/2', 'ptgram-matrix/1', "
            "'ptgram-analysis/1' or none (field: schema)\n"
        )

    def test_analysis_output_reads_back(self, tmp_path):
        path = tmp_path / "analysis.json"
        assert run_cli(["analyze", "--model", "random-pt", "--n", "6", "--seed", "3",
                        "--output", str(path)]) == 0
        h, parity = ptio.load_matrix_pair(path)
        assert h.tobytes() == random_pt(6, seed=3)[0].tobytes()
        assert parity.matrix.tobytes() == random_pt(6, seed=3)[1].matrix.tobytes()

    # the cli-models inputs of the benchmark, at a smaller n
    @pytest.mark.parametrize("model", [
        lambda n: lattice_chain(n, 0.3, 1.0),
        lambda n: lattice_chain(n, 1.5, 1.0),
        lambda n: discretized_schrodinger(n, 5.0, 0.0),
        lambda n: discretized_schrodinger(n, 7.0, 1.0),
    ], ids=["chain-unbroken", "chain-broken", "oscillator", "ix3"])
    def test_matrix_1_and_2_files_verify_alike(self, tmp_path, capsys, model):
        h, parity = model(64)
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text(ptio.dumps({"schema": "ptgram-matrix/1", "dim": 64, "h": h, "p": parity.matrix}))
        ptio.write_matrix_pair(new, h, parity)
        assert json.loads(new.read_text())["schema"] == "ptgram-matrix/2"
        runs = []
        for path in (old, new):
            out = path.with_suffix(".report.json")
            code = run_cli(["verify", "--input", str(path), "--output", str(out)])
            report = json.loads(out.read_text())
            del report["timings"]
            runs.append((code, report))
        capsys.readouterr()
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("parity", [make_parity("grid-reversal", 5), make_parity("swap-pairs", 5),
                                        make_parity("explicit", 5, matrix=np.diag([1.0, -1, 1, 1, -1]))],
                             ids=["grid-reversal", "swap-pairs", "signs"])
    def test_matrix_1_and_2_files_load_to_the_same_held_form(self, tmp_path, parity):
        h = np.zeros((5, 5))
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text(ptio.dumps({"schema": "ptgram-matrix/1", "dim": 5, "h": h, "p": parity.matrix}))
        ptio.write_matrix_pair(new, h, parity)
        assert (type(json.loads(new.read_text())["p"][0]) is int) == (parity.perm is not None)
        for path in (old, new):
            loaded = ptio.load_matrix_pair(path)[1]
            assert loaded.held.tobytes() == parity.held.tobytes()
            assert loaded.held.shape == parity.held.shape

    def test_fault_in_h_is_named_before_one_in_p(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "h": [GOOD[0], [[1, 0], [NAN, 0]]],
                                    "p": [GOOD[0]]}))
        assert run_cli(["verify", "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: field 'h' contains non-finite entries (field: h)\n"
        )

    @pytest.mark.parametrize("content, message", UNREADABLE, ids=UNREADABLE_IDS)
    def test_unreadable_text_is_a_format_error(self, tmp_path, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(InputFormatError, match=re.escape(message)) as info:
            ptio.load_matrix_pair(path)
        assert info.value.field is None

    def test_numbers_read_back_as_complex_reads_them(self, tmp_path):
        h = [[[1, 0], [2 ** 53 + 1, -0.0], [10 ** 30, 2 ** 64 + 1]],
             [[5e-324, 1.7976931348623157e308], [-1.7976931348623157e308, -(2 ** 63)], [-0, 0]],
             [[-0.0, -0.0], [0.1, -5e-324], [2 ** 1024 - 2 ** 970 - 1, 2 ** 63 - 1]]]
        p = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"dim": 3, "h": h, "p": p}))
        loaded_h, parity = ptio.load_matrix_pair(path)
        for loaded, nested in ((loaded_h, h), (parity.matrix, p)):
            expected = np.array([[complex(re, im) for re, im in row] for row in nested])
            assert loaded.tobytes() == expected.tobytes()


    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
    @pytest.mark.parametrize("text, outcome", [
        (json.dumps({"dim": 2, "h": GOOD, "p": GOOD}), nullcontext()),
        ("{", pytest.raises(InputFormatError, match="not valid JSON")),
        ('{"dim": 1, "h": %s%s, "p": [[[1, 0]]]}' % ("[" * 100000, "]" * 100000),
         pytest.raises(InputFormatError, match="nested too deeply")),
        (json.dumps({"dim": 2, "h": [GOOD[0]], "p": GOOD}),
         pytest.raises(InputFormatError, match="must be a list of 2 rows")),
    ], ids=["valid", "invalid-json", "too-deep", "malformed-field"])
    def test_collector_state_is_restored(self, tmp_path, enabled, text, outcome):
        path = tmp_path / "m.json"
        path.write_text(text)
        was_enabled = gc.isenabled()
        gc.enable() if enabled else gc.disable()
        try:
            with outcome:
                ptio.load_matrix_pair(path)
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was_enabled else gc.disable()

    def test_no_collection_while_a_file_loads(self, tmp_path):
        path = tmp_path / "m.json"
        ptio.write_matrix_pair(path, *random_pt(64, seed=0))
        starts = []

        def record(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        assert gc.isenabled()
        gc.collect()  # so that the load's own allocations decide whether one runs
        gc.callbacks.append(record)
        try:
            ptio.load_matrix_pair(path)
        finally:
            gc.callbacks.remove(record)
        assert starts == []


def bench(capsys, *args):
    """Exit code and JSON payload of ``ptgram bench`` with ``args``."""
    code = run_cli(["bench", *args])
    return code, json.loads(capsys.readouterr().out)


class TestBench:
    def test_single_dim(self, capsys):
        code, payload = bench(capsys, "--dims", "16", "--reps", "3")
        assert code == 0
        assert payload["schema"] == "ptgram-bench/2"
        assert len(payload["rows"]) == 1
        assert float(payload["rows"][0]["discrepancy"]) < 1e-8

    def test_small_dim_discrepancy(self, capsys):
        _, payload = bench(capsys, "--dims", "2", "--reps", "3", "--seed", "1")
        (row,) = payload["rows"]
        assert float(row["discrepancy"]) < 1e-10

    def test_rows_hold_every_stage_of_the_run(self, capsys):
        # the stages are the wall time of the call, then the run's own
        # timings in its order, each a positive min no larger than its median
        code, payload = bench(capsys, "--dims", "16,8", "--reps", "3", "--seed", "3")
        assert code == 0
        assert [(row["dim"], row["seed"]) for row in payload["rows"]] == [(16, 3), (8, 4)]
        for row in payload["rows"]:
            art = run_pipeline(*random_unbroken_pt(row["dim"], seed=row["seed"]))
            assert list(row["stages"]) == ["total", *art.timings]
            for t in row["stages"].values():
                assert 0 < t["min"] <= t["median"]
            stage_sum = sum(t["min"] for stage, t in row["stages"].items() if stage != "total")
            assert stage_sum <= row["stages"]["total"]["median"]

    def test_discrepancy_is_the_runs(self, capsys):
        _, payload = bench(capsys, "--dims", "24", "--reps", "1", "--seed", "5")
        (row,) = payload["rows"]
        assert float(row["discrepancy"]) == run_pipeline(*random_unbroken_pt(24, seed=5)).route_discrepancy

    def test_stages_are_mins_and_medians_of_the_runs(self, capsys, monkeypatch):
        # three runs: each stage's timing, and the call's wall time, are fixed per run
        runs = iter([3.0, 1.0, 2.0])
        clock = iter([0.0, 3.0, 10.0, 11.0, 20.0, 22.0])
        original = ptgram.cli.run_pipeline

        def fixed(h, parity, tol):
            art = original(h, parity, tol)
            scale = next(runs)
            art.timings = {stage: scale * (k + 1) for k, stage in enumerate(art.timings)}
            return art

        monkeypatch.setattr(ptgram.cli, "run_pipeline", fixed)
        # the call's clock only: the run's stages read the time module itself
        monkeypatch.setattr(ptgram.cli, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
        code, payload = bench(capsys, "--dims", "8", "--reps", "3")
        assert code == 0
        (row,) = payload["rows"]
        stages = list(row["stages"].items())
        assert stages[0] == ("total", {"min": 1.0, "median": 2.0})
        assert len(stages) > 10
        for k, (_, t) in enumerate(stages[1:]):
            assert t == {"min": 1.0 * (k + 1), "median": 2.0 * (k + 1)}

    def test_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        _, payload = bench(capsys, "--dims", "8", "--reps", "0")
        environment = payload["environment"]
        assert environment["numpy"] == np.__version__ and environment["scipy"] == scipy.__version__
        assert environment["python"] == ".".join(map(str, sys.version_info[:3]))
        assert set(environment["blas"]) == {"name", "version"}
        assert environment["OPENBLAS_NUM_THREADS"] == "2"
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        _, payload = bench(capsys, "--dims", "8", "--reps", "0")
        assert payload["environment"]["OPENBLAS_NUM_THREADS"] is None

    def test_zero_reps_gives_empty_rows(self, capsys):
        code, payload = bench(capsys, "--dims", "8,16", "--reps", "0", "--seed", "1")
        assert code == 0 and payload["rows"] == []

    def test_empty_dims_usage_error(self, capsys):
        code = run_cli(["bench", "--dims", ""])
        capsys.readouterr()
        assert code == 2

    def test_negative_reps_usage_error(self, capsys):
        code = run_cli(["bench", "--dims", "8", "--reps", "-1"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("dims, reps", [("1", "0"), ("8,1", "0"), ("8,1", "1")])
    def test_small_dim_usage_error_before_any_run(self, capsys, monkeypatch, dims, reps):
        def never(*args):
            raise AssertionError("run_pipeline called")

        monkeypatch.setattr(ptgram.cli, "run_pipeline", never)
        code = run_cli(["bench", "--dims", dims, "--reps", reps])
        assert code == 2
        assert capsys.readouterr().err == "error: dimension must be >= 2, got 1\n"

    def test_negative_seed_usage_error_names_it(self, capsys):
        # named before any draw, so also when there are no repetitions to run
        for reps in ("0", "1"):
            code = run_cli(["bench", "--dims", "8", "--seed", "-1", "--reps", reps])
            assert code == 2
            assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    def test_failing_run_is_a_numerical_failure(self, capsys):
        code = run_cli(["bench", "--dims", "12", "--reps", "1", "--seed", "5", "--tol-eig", "1e-300"])
        assert code == 3
        assert capsys.readouterr().err.startswith("numerical failure: benchmark instance n=12, seed=5: eigensystem:")

    def test_anomaly_is_a_numerical_failure(self, capsys):
        code = run_cli(["bench", "--dims", "12", "--reps", "1", "--seed", "5", "--tol-sig", "1e-300"])
        assert code == 3
        assert "sign-dependent relations skipped" in capsys.readouterr().err

    def test_deterministic_discrepancies(self, capsys):
        _, first = bench(capsys, "--dims", "8,12", "--reps", "2", "--seed", "3")
        _, second = bench(capsys, "--dims", "8,12", "--reps", "2", "--seed", "3")
        assert [r["dim"] for r in first["rows"]] == [8, 12]
        assert [r["discrepancy"] for r in first["rows"]] == [
            r["discrepancy"] for r in second["rows"]
        ]

    def test_text_format(self, capsys):
        code = run_cli(["bench", "--dims", "8", "--reps", "2", "--format", "text-table"])
        out = capsys.readouterr().out
        assert code == 0
        art = run_pipeline(*random_unbroken_pt(8, seed=0))
        lines = out.splitlines()
        assert lines[0].startswith("dim 8   seed 0   discrepancy ")
        assert [line.split()[0] for line in lines[3:]] == ["total", *art.timings]


class TestGenerate:
    def test_round_trip_through_analyze(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        code = run_cli(["generate", "--model", "two-level", "--g", "1", "--b", "2",
                        "--output", str(path)])
        assert code == 0
        h, parity = ptio.load_matrix_pair(path)
        code = run_cli(["analyze", "--input", str(path)])
        assert code == 0
        analyzed = json.loads(capsys.readouterr().out)
        for pairs, loaded in ((analyzed["h"], h), (analyzed["p"], parity.matrix)):
            parsed = np.array(pairs, dtype=np.float64).view(np.complex128)[..., 0]
            assert parsed.tobytes() == loaded.tobytes()

    def test_byte_identical_across_runs(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for path in (p1, p2):
            assert run_cli(["generate", "--model", "random-pt", "--n", "8",
                            "--seed", "42", "--output", str(path)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_hermitian_chain_verifies_with_identity_gram(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        run_cli(["generate", "--model", "lattice-chain", "--n", "12", "--gamma", "0",
                 "--t", "1", "--output", str(path)])
        code = run_cli(["analyze", "--input", str(path)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        gram = np.array([[complex(re, im) for re, im in row] for row in payload["gram"]])
        assert np.max(np.abs(gram - np.eye(12))) < 1e-12

    def test_generate_requires_model(self, capsys):
        code = run_cli(["generate", "--input", "whatever.json"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("flag", [["--format", "text-table"], ["--tol-eig", "1e-3"],
                                      ["--tol-sig", "1e-3"]])
    def test_report_options_are_usage_errors(self, tmp_path, capsys, flag):
        path = tmp_path / "matrix.json"
        code = run_cli(["generate", "--model", "two-level", *flag, "--output", str(path)])
        capsys.readouterr()
        assert code == 2
        assert not path.exists()


    @pytest.mark.parametrize("argv", [
        ["--model", "two-level", "--g", "inf"],
        ["--model", "lattice-chain", "--n", "4", "--gamma", "inf"],
    ], ids=["two-level", "lattice-chain"])
    def test_non_finite_entry_is_a_usage_error_and_writes_no_file(self, tmp_path, capsys, argv):
        path = tmp_path / "matrix.json"
        code = run_cli(["generate", *argv, "--output", str(path)])
        assert code == 2
        assert capsys.readouterr().err == "error: field 'h' contains non-finite entries\n"
        assert not path.exists()


class TestReportSerialization:
    def test_residuals_are_17_digit_strings(self, capsys):
        run_cli(["verify", "--model", "two-level", "--g", "1", "--b", "2"])
        payload = json.loads(capsys.readouterr().out)
        for entry in payload["relations"]:
            assert isinstance(entry["residual"], str)
            assert float(entry["residual"]) >= 0.0
        assert payload["schema"] == "ptgram-report/1"

    def test_identical_residual_fields_across_runs(self, capsys):
        def residuals():
            run_cli(["verify", "--model", "lattice-chain", "--n", "10", "--gamma", "0.3",
                     "--t", "1"])
            payload = json.loads(capsys.readouterr().out)
            payload.pop("timings")
            return payload

        assert residuals() == residuals()


class TestModelTable:
    @pytest.mark.parametrize("argv, built", [
        (["--model", "two-level", "--g", "0.5", "--b", "1.5"], lambda: two_level(0.5, 1.5)),
        (["--model", "lattice-chain", "--n", "10", "--gamma", "0.3", "--t", "1.2"],
         lambda: lattice_chain(10, 0.3, 1.2)),
        (["--model", "discretized-schrodinger", "--n", "16", "--L", "4", "--epsilon", "1"],
         lambda: discretized_schrodinger(16, 4.0, 1.0)),
        (["--model", "random-pt", "--n", "8", "--seed", "42"], lambda: random_pt(8, seed=42)),
    ])
    def test_generate_writes_the_generator_bytes(self, tmp_path, argv, built):
        path = tmp_path / "model.json"
        assert run_cli(["generate", *argv, "--output", str(path)]) == 0
        assert path.read_text(encoding="utf-8") == ptio.dump_matrix_pair(*built())

    @pytest.mark.parametrize("argv", [
        ["--model", "random-pt", "--n", "1"],
        ["--model", "discretized-schrodinger", "--n", "4"],
        ["--model", "lattice-chain", "--n", "1"],
        ["--model", "no-such-family"],
    ])
    def test_bad_model_is_a_usage_error(self, capsys, argv):
        code = run_cli(["verify", *argv])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("command", ["verify", "generate"])
    @pytest.mark.parametrize("length", ["1e-300", "1e200"])
    def test_half_width_out_of_float_range_is_a_usage_error(self, capsys, command, length):
        code = run_cli([command, "--model", "discretized-schrodinger", "--n", "8", "--L", length])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: grid half-width {float(length)} at epsilon 1.0 gives a non-finite kinetic term"
            " or potential\n"
        )

    @pytest.mark.parametrize("command", ["verify", "analyze", "generate"])
    def test_negative_seed_usage_error_names_it(self, capsys, command):
        code = run_cli([command, "--model", "random-pt", "--seed", "-1"])
        assert code == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    # each first asks for more than 2**56 bytes, which the allocator refuses
    # at once, so nothing is allocated
    @pytest.mark.parametrize("argv", [
        ["verify", "--model", "lattice-chain", "--n", "100000000"],
        ["verify", "--model", "random-pt", "--n", "100000000"],
        ["verify", "--model", "discretized-schrodinger", "--n", "100000000"],
        ["bench", "--dims", "100000000", "--reps", "1"],
    ], ids=["lattice-chain", "random-pt", "discretized-schrodinger", "bench"])
    def test_impossible_size_is_a_usage_error(self, capsys, argv):
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ") and "shape (" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_two_level_ignores_n(self, capsys):
        assert run_cli(["analyze", "--model", "two-level", "--n", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dim"] == 2
        assert len(payload["eigenvalues"]) == 2


class TestEntryPoint:
    """The CLI run as a separate process through its module entry point."""

    @pytest.mark.parametrize("argv, code", [
        (["verify", "--model", "two-level", "--g", "1", "--b", "2"], 0),
        (["verify", "--model", "two-level", "--g", "1", "--b", "1"], 3),
        (["verify"], 2),
    ])
    def test_exit_code(self, argv, code):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "ptgram.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == code, done.stderr


def _shifted(h, parity, shift):
    return h + shift * np.eye(len(h)), parity


class TestLapackNonConvergence:
    """A LAPACK routine that does not converge raises numpy's LinAlgError
    (a ValueError, which the CLI would report as a usage error, exit 2).
    Every LAPACK call of a run raises NonConvergence instead: the run records
    the failure in the stage that made the call, and the CLI exits 3."""

    # site: (module, function, index of the call that fails, input, stage, failure label)
    SITES = {
        "eigensolve-dgeev": (scipy.linalg.lapack, "dgeev", 0, "chain", "eigensystem", "eigensystem"),
        "eigensolve-zgeev": (scipy.linalg.lapack, "zgeev", 1, "off-symmetry", "eigensystem", "eigensystem"),
        "eigenvector-condition-svd": (np.linalg, "svd", 0, "chain", "eigensystem", "eigensystem"),
        "parity-basis-eigh": (np.linalg, "eigh", 0, "chain", "eigensystem", "eigensystem"),
        "cluster-svd": (np.linalg, "svd", 1, "degenerate", "biorthonormalize", "biorthonormalize"),
        "cluster-solve": (np.linalg, "solve", 0, "degenerate", "biorthonormalize", "biorthonormalize"),
        "gram-potrf": (scipy.linalg.lapack, "dpotrf", 0, "chain", "gram", "gram"),
        "gram-trtri": (scipy.linalg.lapack, "dtrtri", 0, "chain", "dual-via-inversion", "dual inversion"),
    }
    INPUTS = {
        "chain": lambda: lattice_chain(8, 0.3, 1.0),
        # not exactly PT-symmetric: H and H^dagger are solved in complex128
        "off-symmetry": lambda: _shifted(*lattice_chain(8, 0.3, 1.0), 1e-9j),
        # one eigenvalue cluster of four: an overlap SVD and solve
        "degenerate": lambda: (np.eye(4), make_parity("grid-reversal", 4)),
    }

    @pytest.mark.parametrize("site", sorted(SITES))
    def test_failure_is_recorded_in_its_stage(self, monkeypatch, tmp_path, capsys, site):
        module, fn, failing, name, stage, label = self.SITES[site]
        original = getattr(module, fn)

        def fail_once():
            calls = []

            def patched(*args, **kwargs):
                calls.append(1)
                if len(calls) == failing + 1:
                    raise np.linalg.LinAlgError(f"{fn} did not converge")
                return original(*args, **kwargs)

            monkeypatch.setattr(module, fn, patched)

        h, parity = self.INPUTS[name]()  # a new parity: its basis is not cached yet
        path = tmp_path / "pair.json"
        ptio.write_matrix_pair(path, h, parity)
        fail_once()
        art = full_verification(h, parity)
        assert art.failure.startswith(f"{label}: ") and art.failure.endswith(f"{fn} did not converge")
        assert list(art.timings)[-1] == stage
        fail_once()
        assert run_cli(["verify", "--input", str(path)]) == 3
        assert capsys.readouterr().err.startswith(f"numerical failure: {label}: ")

"""CLI tests: exit codes, formats, determinism, round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ptgram.io as ptio
import ptgram.verify
from ptgram import (
    SingularMatrix,
    discretized_schrodinger,
    full_verification,
    lattice_chain,
    make_parity,
    random_pt,
    two_level,
)
from ptgram.cli import main

SQRT3 = np.sqrt(3.0)
SRC = Path(__file__).resolve().parents[1] / "src"


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

    def test_singular_gram_solve_exit_three_with_report(self, tmp_path, monkeypatch, capsys):
        def singular(*args, **kwargs):
            raise SingularMatrix("forced singular Gram solve")

        monkeypatch.setattr(ptgram.verify, "solve", singular)
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

    @pytest.mark.parametrize("text, field", [
        ('{"dim": 1, "h": [[[1%s, 0]]], "p": [[[1, 0]]]}' % ("0" * 400), "h[0][0]"),
        ('{"dim": 1, "h": %s%s, "p": [[[1, 0]]]}' % ("[" * 100000, "]" * 100000), None),
    ], ids=["integer-beyond-float", "nested-beyond-recursion-limit"])
    def test_unreadable_number_or_nesting_is_a_usage_error(self, tmp_path, capsys, text, field):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = run_cli(["verify", "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
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

    def test_fault_in_h_is_named_before_one_in_p(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "h": [GOOD[0], [[1, 0], [NAN, 0]]],
                                    "p": [GOOD[0]]}))
        assert run_cli(["verify", "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: field 'h' contains non-finite entries (field: h)\n"
        )

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


class TestBench:
    def test_single_dim(self, capsys):
        code = run_cli(["bench", "--dims", "16", "--reps", "3"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["schema"] == "ptgram-bench/1"
        assert len(payload["rows"]) == 1
        assert float(payload["rows"][0]["discrepancy"]) < 1e-8

    def test_empty_dims_usage_error(self, capsys):
        code = run_cli(["bench", "--dims", ""])
        capsys.readouterr()
        assert code == 2

    def test_negative_reps_usage_error(self, capsys):
        code = run_cli(["bench", "--dims", "8", "--reps", "-1"])
        capsys.readouterr()
        assert code == 2

    def test_small_dim_usage_error_without_repetitions(self, capsys):
        code = run_cli(["bench", "--dims", "1", "--reps", "0"])
        capsys.readouterr()
        assert code == 2

    def test_negative_seed_usage_error_names_it(self, capsys):
        # named before any draw, so also when there are no repetitions to run
        for reps in ("0", "1"):
            code = run_cli(["bench", "--dims", "8", "--seed", "-1", "--reps", reps])
            assert code == 2
            assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    def test_deterministic_discrepancies(self, capsys):
        run_cli(["bench", "--dims", "8,12", "--reps", "2", "--seed", "3"])
        first = json.loads(capsys.readouterr().out)
        run_cli(["bench", "--dims", "8,12", "--reps", "2", "--seed", "3"])
        second = json.loads(capsys.readouterr().out)
        assert [r["discrepancy"] for r in first["rows"]] == [
            r["discrepancy"] for r in second["rows"]
        ]

    def test_text_format(self, capsys):
        code = run_cli(["bench", "--dims", "8", "--reps", "2", "--format", "text-table"])
        out = capsys.readouterr().out
        assert code == 0
        assert "speedup" in out


class TestGenerate:
    def test_round_trip_through_analyze(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        code = run_cli(["generate", "--model", "two-level", "--g", "1", "--b", "2",
                        "--output", str(path)])
        assert code == 0
        generated = json.loads(path.read_text())
        code = run_cli(["analyze", "--input", str(path)])
        assert code == 0
        analyzed = json.loads(capsys.readouterr().out)
        assert analyzed["h"] == generated["h"]
        assert analyzed["p"] == generated["p"]

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

    @pytest.mark.parametrize("command", ["verify", "analyze", "generate"])
    def test_negative_seed_usage_error_names_it(self, capsys, command):
        code = run_cli([command, "--model", "random-pt", "--seed", "-1"])
        assert code == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

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

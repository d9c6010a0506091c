"""Tests of the benchmark itself: span arithmetic, wrapping, output checks
and input digests."""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import ptgram  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _span(sid, start, end, parent=None, raised=False):
    return [sid, f"s{sid}", start, end, parent, "c", raised]


def test_self_time_on_a_nested_call_tree():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 2.0, 3.0, parent=1),
        _span(3, 5.0, 9.0, parent=0),
        _span(4, 5.5, 6.0, parent=3),
        _span(5, 7.0, 8.0, parent=3),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.5, 0.5, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 5.0, parent=0), _span(2, 3.0, 7.0, parent=0)]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_tracer_records_nesting_and_raised_calls():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def boom():
        raise RuntimeError("boom")

    outer = tracer.wrap("m.outer", lambda: inner() + 1)
    inner = tracer.wrap("m.inner", lambda: 1)
    failing = tracer.wrap("m.boom", boom)
    tracer.call_id = "c"
    assert outer() == 2
    with pytest.raises(RuntimeError):
        failing()
    stats = tracing.aggregate(tracer.spans, ["c"])
    assert stats["m.outer"]["calls"] == 1
    assert stats["m.inner"]["calls"] == 1
    assert tracer.spans[1][tracing.PARENT] == 0
    assert stats["m.outer"]["self_s"] == pytest.approx(2.0)
    assert stats["m.boom"]["raised"] == 1
    assert stats["m.outer"]["raised"] == 0


def test_wrappers_bind_under_caller_names_and_missing_functions_are_absent():
    tracer = tracing.Tracer()
    original = ptgram.linalg.eigendecompose
    tracer.prepare("ptgram", ["linalg.eigendecompose", "biortho.pair_left_right", "linalg.gone"])
    assert tracer.absent == ["linalg.gone"]
    tracer.install()
    try:
        assert ptgram.biortho.eigendecompose is not original
        assert ptgram.eigendecompose is ptgram.biortho.eigendecompose
        tracer.call_id = "c"
        h, _ = ptgram.two_level(1.0, 2.0)
        ptgram.verify.pair_left_right(h)
    finally:
        tracer.uninstall()
    assert ptgram.biortho.eigendecompose is original
    stats = tracing.aggregate(tracer.spans, ["c"])
    assert stats["biortho.pair_left_right"]["calls"] == 1
    assert stats["linalg.eigendecompose"]["calls"] == 2
    parents = {tracer.spans[s[tracing.PARENT]][tracing.NAME]
               for s in tracer.spans if s[tracing.NAME] == "linalg.eigendecompose"}
    assert parents == {"biortho.pair_left_right"}


@pytest.fixture
def chain_case(tmp_path):
    h, parity = ptgram.lattice_chain(16, 0.3, 1.0)
    path = tmp_path / "chain.json"
    ptgram.io.write_matrix_pair(path, h, parity)
    return workloads.Case("chain", h, parity, "unbroken", path, tmp_path / "chain.report.json")


def _loop_failures(case, result):
    loop = worker.Loop(workloads, [case])
    loop.account(case, result)
    return loop.failed


def test_cli_report_passes_its_checks(chain_case):
    code = workloads.call(chain_case)
    assert code == 0
    assert _loop_failures(chain_case, code) == 0


def test_corrupted_cli_report_is_an_error(chain_case):
    code = workloads.call(chain_case)
    report = json.loads(chain_case.output.read_text())
    report["relations"][0]["status"] = "fail"
    chain_case.output.write_text(json.dumps(report))
    assert _loop_failures(chain_case, code) == 1


def test_wrong_exit_code_is_an_error(chain_case):
    workloads.call(chain_case)
    assert _loop_failures(chain_case, 1) == 1


def _with_relation(report, rid, **changes):
    relations = tuple(dataclasses.replace(r, **changes) if r.id == rid else r
                      for r in report.relations)
    return dataclasses.replace(report, relations=relations)


@pytest.fixture(scope="module")
def pins():
    return workloads.load_pins()


def test_corrupted_api_report_is_an_error(pins):
    case = workloads.pinned_case(12, 5, pins)
    report = workloads.call(case)
    assert _loop_failures(case, report) == 0
    assert _loop_failures(case, _with_relation(report, "Eq5", status="fail")) == 1


def test_api_verdict_outside_its_pin_is_an_error(pins):
    case = workloads.pinned_case(12, 5, pins)
    report = workloads.call(case)
    tolerance = report.relations[0].tolerance
    failing = _with_relation(report, "Eq3", residual=2 * tolerance, status="fail")
    skipped = report
    for rid in workloads.SIGN_DEPENDENT:
        skipped = _with_relation(skipped, rid, residual=None, tolerance=None, status="not-applicable")
    anomalous = dataclasses.replace(skipped, anomalies=("signature: state 0 is not invariant",))
    failed = dataclasses.replace(report, failure="gram: singular")
    for bad in (failing, skipped, anomalous, failed):
        assert _loop_failures(case, bad) == 1


def test_pinned_threshold_failure_is_not_an_error_nor_is_its_fix(pins):
    case = workloads.pinned_case(27, 11, pins)
    assert case.expect["fail"] == ["diag-equality"]
    report = workloads.call(case)
    assert _loop_failures(case, report) == 0
    fixed = _with_relation(report, "diag-equality", tolerance=1.0, status="pass")
    assert _loop_failures(case, fixed) == 0


def test_input_that_differs_from_its_pin_is_an_error(pins):
    case = workloads.pinned_case(12, 5, pins)
    report = workloads.call(case)
    case.expect = None
    assert _loop_failures(case, report) == 1


def test_input_digest_follows_the_seed():
    first = workloads.input_digest(workloads.make_cases("ensemble-small", 3))
    again = workloads.input_digest(workloads.make_cases("ensemble-small", 3))
    other = workloads.input_digest(workloads.make_cases("ensemble-small", 4))
    assert first == again
    assert first != other
    for seed in (3, 4):
        assert all(case.expect is not None for case in workloads.make_cases("ensemble-small", seed))


def test_raised_call_is_an_error(chain_case):
    assert _loop_failures(chain_case, RuntimeError("boom")) == 1

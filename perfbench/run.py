"""Benchmark of the ptgram verification chain.

    python3 perfbench/run.py --workload ensemble-small --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and uses the package under its ``src``.
Each workload runs in fresh worker processes (``worker.py``): set-up is done
three to nine times, each in its own process, and reported as a median; the
last worker also runs the timed closed loop.  With ``--trace 0`` the result holds
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` (one
set-up) its per-layer metrics.  The last line of standard output is the result; the line
before it holds the details (input digest, environment, sample counts, the
metrics the result leaves out).  Exits with a non-zero code, printing no
result, when the package or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".perfbench_out"
# Set-ups per run: at least SETUPS_MIN, more while the set-up-only workers
# have taken less than SETUP_BUDGET_S, at most SETUPS_MAX.
SETUPS_MIN = 3
SETUPS_MAX = 9
SETUP_BUDGET_S = 6.0
DEADLINE_S = 170.0


class BenchmarkError(Exception):
    pass


def run_worker(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {args} ran out of time") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(spec: dict, setups: list[float], result: dict) -> dict:
    values = dict(result, setup_s=statistics.median(setups))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def per_layer(spec: dict, result: dict) -> dict:
    layers = result["trace"]["layers"]
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
    if missing:
        raise BenchmarkError(f"traced run did not produce {missing}")
    return {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ptgram verification-chain benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchmarkError(f"unknown workload {args.workload!r}")
        if not (ROOT / "src" / "ptgram" / "__init__.py").is_file():
            raise BenchmarkError(f"no package at {ROOT / 'src' / 'ptgram'}")
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        setups = []
        # a traced run reports no set-up time, so it sets up only once
        while not args.trace and (
            len(setups) < SETUPS_MIN - 1
            or (len(setups) < SETUPS_MAX - 1 and sum(s["setup_s"] for s in setups) < SETUP_BUDGET_S)
        ):
            setups.append(run_worker(common + ["--setup-only"], deadline))
        result = run_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
        setups.append(result)
        digests = {s["input_sha256"] for s in setups}
        if len(digests) != 1:
            result["failed"] += 1
            result["problems"].append(f"set-ups of one seed made different inputs: {sorted(digests)}")
        setup_times = [s["setup_s"] for s in setups]
        if args.trace:
            metrics = per_layer(spec, result)
        else:
            metrics = end_to_end(spec, setup_times, result)
    except (BenchmarkError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    p90 = result["latency_p90_s"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        # every named end-to-end metric, including those BENCHMARK.json does
        # not gate: error_rate is 0 at a good commit, p90 needs 100 calls
        "end_to_end": {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s",
                        "samples": setup_times},
            "latency_p50_s": {"value": result["latency_p50_s"], "unit": "s",
                              "samples": result["samples"]},
            "latency_p90_s": {"value": p90, "unit": "s", "samples": result["samples"]}
            if p90 is not None else {"omitted": "fewer than 100 timed calls"},
            "throughput_per_s": {"value": result["throughput_per_s"], "unit": "1/s"},
            "latency_p50_ref": {"value": result["latency_p50_ref"], "unit": "ref",
                                "reference_s": result["reference_s"],
                                "reference_samples": result["reference_samples"]},
            "throughput_per_ref": {"value": result["throughput_per_ref"], "unit": "1/ref"},
            "error_rate": {"value": result["failed"] / result["attempted"], "unit": "fraction",
                           "failed": result["failed"], "attempted": result["attempted"]},
            "relations_pass_frac": {"value": result["relations_pass_frac"], "unit": "fraction",
                                    **result["relations"]},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        },
        **{k: v for k, v in result.items() if k in (
            "input_sha256", "problems", "inputs", "passes", "window_s", "environment", "trace")},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

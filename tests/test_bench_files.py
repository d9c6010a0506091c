"""The committed ``BENCH_*.json`` files: each is a ``ptgram bench`` payload
of the current schema whose stages are today's, so a renamed or added
stage shows up as a stale file.  Regenerate each with

    OPENBLAS_NUM_THREADS=1 ptgram bench --dims 64,128,256,512,1024 --reps 5 --seed 0 --output BENCH_pipeline.json
    OPENBLAS_NUM_THREADS=2 ptgram bench --dims 64,128,256,512,1024 --reps 5 --seed 0 --output BENCH_pipeline_2threads.json
"""

import json
from pathlib import Path

import pytest

from ptgram import full_verification, random_unbroken_pt
from ptgram.io import BENCH_SCHEMA

ROOT = Path(__file__).resolve().parents[1]
FILES = {"BENCH_pipeline.json": "1", "BENCH_pipeline_2threads.json": "2"}


@pytest.mark.parametrize("name, threads", FILES.items())
def test_committed_bench_file(name, threads):
    payload = json.loads((ROOT / name).read_text(encoding="utf-8"))
    assert payload["schema"] == BENCH_SCHEMA
    environment = payload["environment"]
    assert {"python", "numpy", "scipy", "blas", "OPENBLAS_NUM_THREADS"} <= set(environment)
    assert environment["OPENBLAS_NUM_THREADS"] == threads
    rows = payload["rows"]
    assert [(row["dim"], row["seed"]) for row in rows] == [(64, 0), (128, 1), (256, 2), (512, 3), (1024, 4)]
    # the timing keys of an unbroken run, in its order
    stages = ["total", *full_verification(*random_unbroken_pt(8, seed=0)).timings]
    for row in rows:
        assert list(row["stages"]) == stages, row["dim"]
        for t in row["stages"].values():
            assert 0 < t["min"] <= t["median"]
        assert float(row["discrepancy"]) < 1e-8

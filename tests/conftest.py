"""Shared fixtures: seeded random ensembles, built once per session."""

import os

# one BLAS thread unless the caller sets one: on the suite's small matrices a
# second thread costs more than it saves (the ensemble fixture ran ~3.6x
# slower at two); it must be set before numpy is imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import time
from dataclasses import dataclass

import numpy as np
import pytest

import ptgram

ENSEMBLE_SEED = 20260809
ENSEMBLE_SIZE = 500
ENSEMBLE_MAX_DIM = 64

SMALL_SEED = 4711
SMALL_SIZE = 40


@dataclass
class Ensemble:
    artifacts: list
    build_seconds: float

    def __iter__(self):
        return iter(self.artifacts)

    def __len__(self):
        return len(self.artifacts)


def _build_ensemble(seed: int, size: int, max_dim: int) -> Ensemble:
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    dims = rng.integers(2, max_dim + 1, size=size)
    out = []
    for k, dim in enumerate(dims):
        h, parity = ptgram.random_unbroken_pt(int(dim), seed=seed + k)
        art = ptgram.run_pipeline(h, parity)
        assert art.failure is None, f"instance {k} (dim {dim}) failed: {art.failure}"
        assert art.signature is not None and art.signature.valid
        out.append(art)
    return Ensemble(artifacts=out, build_seconds=time.perf_counter() - start)


@pytest.fixture(scope="session")
def theorem_ensemble():
    """The 500-instance unbroken ensemble (dims 2..64), whose eigenvector
    condition is at most e^4 by construction."""
    return _build_ensemble(ENSEMBLE_SEED, ENSEMBLE_SIZE, ENSEMBLE_MAX_DIM)


@pytest.fixture(scope="session")
def small_ensemble():
    """A light 40-instance ensemble for per-module property tests."""
    return _build_ensemble(SMALL_SEED, SMALL_SIZE, ENSEMBLE_MAX_DIM).artifacts

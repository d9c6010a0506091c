"""Tolerance bundle threaded through the analysis pipeline.

All tolerances are dimensionless; residuals they gate are either relative
(scaled by a norm of the input) or taken on unit-normalized quantities, as
documented at each point of use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

__all__ = ["Tolerances", "DEFAULT_TOLERANCES"]


@dataclass(frozen=True)
class Tolerances:
    """The numerical thresholds of one run, each finite and positive.

    Every stage that reads a threshold takes the run's bundle whole as
    ``tol`` and reads its own fields, so each default is written once, here.

    eig          relative eigen-residual accepted from the dense solver
    solve        relative residual accepted from linear solves and the Gram inverse
    pair         ambiguity window for matching left to right eigenvalues
    dup          absolute eigenvalue distance that defines a degenerate cluster
    real         relative imaginary part below which an eigenvalue counts as real
    phase        accepted defect of parity-conjugation invariance per state
    signature    accepted 2-norm residual of the dual-vs-reflected-state relation
    signature_zero  parity expectation magnitude below which the sign is undefined
    relation     generic pass threshold for the verification checklist residuals
    diagonal     pass threshold for the Gram-vs-inverse diagonal comparison
    symmetry     pass threshold (relative) for the two symmetry residuals
    duality_fail duality defect above which biorthonormalization is rejected
    cond_limit   eigenvector condition number that flags an exceptional point
    """

    eig: float = 1e-10
    solve: float = 1e-12
    pair: float = 1e-8
    dup: float = 1e-8
    real: float = 1e-8
    phase: float = 1e-8
    signature: float = 1e-8
    signature_zero: float = 1e-12
    relation: float = 1e-8
    diagonal: float = 1e-10
    symmetry: float = 1e-10
    duality_fail: float = 1e-6
    cond_limit: float = 1e8

    def __post_init__(self):
        for item in fields(self):
            value = getattr(self, item.name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"tolerance {item.name!r} must be finite and positive, got {value!r}")

    def override(self, **kwargs: float) -> "Tolerances":
        """Return a copy with the given fields replaced (a None value keeps
        the field); rejects values that are not finite and positive."""
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})


DEFAULT_TOLERANCES = Tolerances()

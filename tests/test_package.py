"""Package-wide checks: exported names and the one source of threshold defaults."""

import importlib
import inspect
import math
import pkgutil

import pytest

import ptgram
from ptgram import DEFAULT_TOLERANCES, Tolerances

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(ptgram.__path__))


@pytest.mark.parametrize("module", [None, *SUBMODULES])
def test_every_exported_name_resolves(module):
    # the benchmark's tracer wraps the functions each module's __all__ names
    mod = ptgram if module is None else importlib.import_module(f"ptgram.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


# (module, function, parameter) -> the Tolerances field its default reads
DEFAULTS = [
    ("linalg", "eigendecompose", "tol_eig", "eig"),
    ("linalg", "solve", "tol_solve", "solve"),
    ("biortho", "pair_left_right", "tol_pair", "pair"),
    ("biortho", "pair_left_right", "tol_eig", "eig"),
    ("biortho", "biorthonormalize", "tol_dup", "dup"),
    ("biortho", "biorthonormalize", "tol_fail", "duality_fail"),
    ("symmetry", "classify_spectrum", "tol_real", "real"),
    ("symmetry", "fix_pt_phase", "tol_phase", "phase"),
    ("symmetry", "extract_signature", "tol_signature", "signature"),
    ("symmetry", "extract_signature", "tol_zero", "signature_zero"),
    ("gram", "gram_matrix", "tol_positivity", "positivity"),
    ("models", "random_unbroken_pt", "cond_limit", "cond_limit"),
]


@pytest.mark.parametrize("module, function, parameter, field", DEFAULTS)
def test_parameter_default_is_its_tolerance(module, function, parameter, field):
    fn = getattr(importlib.import_module(f"ptgram.{module}"), function)
    default = inspect.signature(fn).parameters[parameter].default
    assert default == getattr(DEFAULT_TOLERANCES, field)


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_override_rejects_values_not_finite_and_positive(value):
    with pytest.raises(ValueError):
        Tolerances().override(eig=value)

"""Package-wide checks: exported names and the one source of thresholds."""

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


# the modules whose public names the package re-exports
EXPORTING = ("biortho", "config", "errors", "gram", "linalg", "models", "symmetry", "verify")


def test_package_exports_each_module_name_once():
    # each public name is declared once, in its module's __all__
    modules = [importlib.import_module(f"ptgram.{name}") for name in EXPORTING]
    assert ptgram.__all__ == [name for mod in modules for name in mod.__all__]
    assert len(set(ptgram.__all__)) == len(ptgram.__all__)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(ptgram, name) is getattr(mod, name), (mod.__name__, name)


# removed parameters that held a threshold or an option outside the bundle
THRESHOLD_NAMES = ("cond_limit", "gain_sites")


@pytest.mark.parametrize("module", SUBMODULES)
def test_thresholds_come_from_the_bundle(module):
    # every threshold has one default, in Tolerances: a public function takes
    # the bundle whole as `tol`, never a threshold of its own
    mod = importlib.import_module(f"ptgram.{module}")
    for name in getattr(mod, "__all__", ()):
        fn = getattr(mod, name)
        if not inspect.isfunction(fn):
            continue
        for parameter in inspect.signature(fn).parameters.values():
            assert not parameter.name.startswith("tol_"), (name, parameter.name)
            assert parameter.name not in THRESHOLD_NAMES, (name, parameter.name)
            if parameter.name == "tol":
                assert parameter.default is DEFAULT_TOLERANCES, name


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_override_rejects_values_not_finite_and_positive(value):
    # the constructor checks too, so no way of building a bundle skips it
    for build in (Tolerances().override, Tolerances):
        with pytest.raises(ValueError):
            build(eig=value)

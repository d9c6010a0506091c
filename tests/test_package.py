"""Package-wide checks: exported names, the one source of thresholds, and
no unused imports."""

import ast
import importlib
import inspect
import math
import pkgutil
from pathlib import Path

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


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, those in its ``__all__`` aside
    (a re-export is a use); star and ``__future__`` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                exported = {ast.literal_eval(element) for element in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read and name not in exported)


def test_unused_import_guard_catches_one():
    source = "from .gram import TheoremCheck, gram_matrix\nfrom functools import cached_property\n"
    assert unused_imports(source + "gram_matrix()\n") == [
        "TheoremCheck (line 1)", "cached_property (line 2)"]
    assert unused_imports(source + "__all__ = ['TheoremCheck', 'cached_property', 'gram_matrix']\n") == []


@pytest.mark.parametrize("module", ["__init__", *SUBMODULES])
def test_no_unused_imports(module):
    # no linter runs on the package, so this walk stands in for one
    path = Path(ptgram.__file__).with_name(f"{module}.py")
    assert unused_imports(path.read_text(encoding="utf-8")) == []

"""In-memory span tracer for the benchmark's traced run.

The tracer replaces a function of the package with a wrapper under every
name the package binds it to (module attributes and module-level dispatch
dicts), so a call made through ``ptgram.verify.pair_left_right`` and one made
through ``ptgram.biortho.pair_left_right`` are both recorded.  Nothing on
disk changes; ``uninstall`` puts the original objects back.

A span is ``[id, name, start, end, parent_id, call_id, raised]``.  Spans stay
in a list until the run ends; ``self_times`` and ``aggregate`` turn them into
per-function totals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

ID, NAME, START, END, PARENT, CALL, RAISED = range(7)


class Tracer:
    """Records nested spans; one instance per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.call_id = None
        self.counters: dict[object, dict[str, float]] = {}
        self.absent: list[str] = []
        self._package = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, object]] = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, self.clock(), None, parent, self.call_id, False])
        self._stack.append(sid)
        return sid

    def end(self, sid: int, raised: bool = False) -> None:
        span = self.spans[sid]
        span[END] = self.clock()
        span[RAISED] = raised
        self._stack.pop()

    def count(self, key: str, value: float) -> None:
        """Add ``value`` to counter ``key`` of the current call id."""
        per_call = self.counters.setdefault(self.call_id, {})
        per_call[key] = per_call.get(key, 0) + value

    def wrap(self, name: str, fn):
        """A wrapper that records one span per call of ``fn``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(sid, raised=True)
                raise
            self.end(sid)
            return result

        return traced

    # -- installing wrappers under every bound name ------------------------

    def prepare(self, package: str, targets) -> None:
        """Build wrappers for ``targets`` (``"module.function"`` names under
        ``package``).  A target that no longer exists is listed in
        ``absent`` instead of failing the run."""
        self._package = package
        self._wrappers = []
        self.absent = []
        for target in targets:
            module_name, _, func_name = target.rpartition(".")
            try:
                module = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                self.absent.append(target)
                continue
            fn = getattr(module, func_name, None)
            if not inspect.isfunction(fn):
                self.absent.append(target)
                continue
            self._wrappers.append((fn, self.wrap(target, fn)))

    def install(self) -> None:
        """Bind every prepared wrapper wherever the package binds the
        original function."""
        if self._patches:
            return
        originals = {id(fn): wrapper for fn, wrapper in self._wrappers}
        prefix = self._package + "."
        for name, module in list(sys.modules.items()):
            if module is None or not (name == self._package or name.startswith(prefix)):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if id(value) in originals:
                    self._patches.append((namespace, attr, value))
                    namespace[attr] = originals[id(value)]
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if id(item) in originals:
                            self._patches.append((value, key, item))
                            value[key] = originals[id(item)]

    def uninstall(self) -> None:
        for mapping, key, original in reversed(self._patches):
            mapping[key] = original
        self._patches = []


# -- analysis ---------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its child spans (overlapping children count once)."""
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append(span)
    out = []
    for span in spans:
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for child in sorted(children.get(span[ID], ()), key=lambda s: s[START]):
            lo = max(child[START], reach)
            hi = min(child[END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def aggregate(spans, call_ids) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_s``, ``self_s`` and ``raised``,
    summed over the spans whose call id is in ``call_ids``."""
    wanted = set(call_ids)
    selves = self_times(spans)
    stats: dict[str, dict[str, float]] = {}
    for span, self_s in zip(spans, selves):
        if span[CALL] not in wanted:
            continue
        entry = stats.setdefault(
            span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raised": 0}
        )
        entry["calls"] += 1
        entry["total_s"] += span[END] - span[START]
        entry["self_s"] += self_s
        entry["raised"] += int(span[RAISED])
    return stats

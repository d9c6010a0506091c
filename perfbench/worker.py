"""One workload in one process: timed set-up, a closed loop of verification
calls with one caller, output checks, and in a traced run the per-layer
statistics.  Prints its result as one JSON line.

    python3 perfbench/worker.py --workload dense-512 --seed 1 --seconds 20 --trace 0
    python3 perfbench/worker.py --workload dense-512 --seed 1 --setup-only

BLAS is pinned to one thread before numpy is imported: this module imports
neither numpy nor the package at the top.
"""

import argparse
import gc
import importlib
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
clock = time.perf_counter

# Timed calls between two samples of the reference job.
REFERENCE_EVERY_S = 0.5
# Modules whose public functions the traced run wraps.
TRACED_MODULES = ("linalg", "biortho", "symmetry", "gram", "verify", "io", "cli", "models")
FUNCTION_STATS = (".self_s", ".calls", ".raised")


def named_functions() -> tuple[list[str], set[str]]:
    """The functions BENCHMARK.json names in its per-layer metrics, and
    those of them that run in set-up (unit ``s/setup``).  Named functions
    are wrapped even if a module stops exporting them, so that their
    absence is reported."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    named, setup = [], set()
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name.endswith(FUNCTION_STATS):
            function = name.rsplit(".", 1)[0]
            if function not in named:
                named.append(function)
            if metric["unit"] == "s/setup":
                setup.add(function)
    return named, setup


def import_package():
    """Import the package from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    workloads = importlib.import_module("workloads")
    origin = Path(workloads.ptgram.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"ptgram was imported from {origin}, not from {SRC}")
    return workloads


def traced_targets(named: list[str]) -> list[str]:
    """Every public function of the traced modules, plus the named ones."""
    targets = list(named)
    for name in TRACED_MODULES:
        try:
            module = importlib.import_module(f"ptgram.{name}")
        except ImportError:
            continue
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr, None)
            target = f"{name}.{attr}"
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and target not in targets:
                targets.append(target)
    return targets


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


class Reference:
    """A fixed job, independent of the package, timed between calls, that
    resembles the workload's dominant work: JSON parsing and a small
    eigensolve for the interpreter-bound ``ensemble-small`` and
    ``cli-models``, one dense 512x512 complex eigensolve for ``dense-512``.

    On a shared two-vCPU virtual machine (Intel Xeon, OpenBLAS 0.3.31) the
    speed of Python code drifted by 10-30% over minutes.  Dividing call
    times by the small job's time in the same run cut the quartile spread
    of 20 s runs over ten seeds from ~20% to ~3% on ``ensemble-small`` and
    from 6-23% to 4-9% on ``cli-models``.  On ``dense-512`` the small job
    made it worse (11-19% against 8-17% raw, five to ten seeds); the dense
    eigensolve, which shares the calls' memory traffic, cut it to ~9% on
    five seeds where the raw spread was 17%.
    """

    def __init__(self, np, workload: str):
        rng = np.random.default_rng(0)
        self.eig = np.linalg.eig
        self.samples: list[float] = []
        if workload == "dense-512":
            self.repeats = 1
            self.text = None
            self.matrix = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
        else:
            self.repeats = 5
            self.text = json.dumps(rng.standard_normal((60, 60, 2)).tolist())
            self.matrix = rng.standard_normal((48, 48))

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # the package's heap must not change the reference
        try:
            for _ in range(self.repeats):
                start = clock()
                if self.text is not None:
                    json.loads(self.text)
                self.eig(self.matrix)
                self.samples.append(clock() - start)
        finally:
            if enabled:
                gc.enable()


def safe_call(workloads, case):
    """The call's result, or the exception it raised."""
    try:
        return workloads.call(case)
    except Exception as exc:  # a raising call is a failed call, not a crash
        return exc


class Loop:
    """Closed loop over the cases, with the output check of every call."""

    def __init__(self, workloads, cases, reference=None):
        self.workloads = workloads
        self.cases = cases
        self.reference = reference
        self.since_reference = REFERENCE_EVERY_S
        self.durations: list[float] = []
        self.references = {}
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_call(self, case, tracer=None, call_id=None) -> float:
        """One call, checked; returns its wall time."""
        sid = None
        if tracer is not None:
            tracer.call_id = call_id
            sid = tracer.begin("call")
        start = clock()
        result = safe_call(self.workloads, case)
        elapsed = clock() - start
        if sid is not None:
            tracer.end(sid, raised=isinstance(result, Exception))
            if case.path is not None and not isinstance(result, Exception):
                # the CLI reads the matrix file once and writes one report
                tracer.count("io.bytes_read", case.path.stat().st_size)
                tracer.count("io.bytes_written", case.output.stat().st_size)
        self.account(case, result)
        return elapsed

    def account(self, case, result):
        """Count one attempted call and check its output (a raised
        exception is a failed call)."""
        self.attempted += 1
        if isinstance(result, Exception):
            self._fail(case, f"raised {result!r}")
            return
        reference = None
        if case.path is None:
            if case.name not in self.references:
                self.references[case.name] = self.workloads.np.linalg.eigvals(case.h)
            reference = self.references[case.name]
        outcome = self.workloads.check(case, result, reference)
        first = self.first.setdefault(case.name, outcome)
        if outcome.anomalies != first.anomalies:
            outcome.problems.append("anomalies differ from an earlier call")
        if outcome.verdict != first.verdict:
            outcome.problems.append(f"verdict {outcome.verdict} differs from an earlier call")
        if outcome.problems:
            self._fail(case, "; ".join(outcome.problems))

    def _fail(self, case, message):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"{case.name}: {message}")

    def timed_pass(self, tracer=None, pass_id=0) -> float:
        """One call per input, in order.  Durations of traced calls are not
        end-to-end samples and are not kept."""
        total = 0.0
        for index, case in enumerate(self.cases):
            if self.reference is not None and self.since_reference >= REFERENCE_EVERY_S:
                self.reference.sample()
                self.since_reference = 0.0
            elapsed = self.run_call(case, tracer, f"{pass_id}:{index}")
            if tracer is None:
                self.durations.append(elapsed)
            self.since_reference += elapsed
            total += elapsed
        return total

    def relations(self):
        passing = sum(o.counts[0] for o in self.first.values())
        applicable = sum(o.counts[1] for o in self.first.values())
        failing = {
            name: [rid for rid, status in zip(self.workloads.RELATION_IDS, o.verdict) if status == "fail"]
            for name, o in self.first.items()
        }
        return {
            "passing": passing,
            "applicable": applicable,
            "failing": {k: v for k, v in failing.items() if v},
            "anomalies": {k: list(o.anomalies) for k, o in self.first.items() if o.anomalies},
            "failures": {k: o.failure for k, o in self.first.items() if o.failure},
        }


def latency_metrics(durations: list[float], reference: list[float]) -> dict:
    """Median call time, its sample count, the 90th percentile where there
    are at least 100 calls (ten or more beyond it), and throughput; the
    ``_ref`` forms are in units of the mean reference-job time."""
    ref = statistics.fmean(reference)
    median = statistics.median(durations)
    throughput = len(durations) / sum(durations)
    return {
        "latency_p50_s": median,
        "samples": len(durations),
        "latency_p90_s": statistics.quantiles(durations, n=10)[-1] if len(durations) >= 100 else None,
        "throughput_per_s": throughput,
        "reference_s": ref,
        "reference_samples": len(reference),
        "latency_p50_ref": median / ref,
        "throughput_per_ref": throughput * ref,
    }


def layer_metrics(tracer, traced_calls: list[str], named: list[str], setup: set[str]) -> dict:
    """Per-function statistics per verification call (set-up functions: per
    set-up), plus the derived ratios."""
    per_call = tracing.aggregate(tracer.spans, traced_calls)
    per_setup = tracing.aggregate(tracer.spans, ["setup"])
    n = max(1, len(traced_calls))
    out = {}
    for name in sorted(set(per_call) | set(per_setup) | set(named)):
        if name in ("call", "setup"):
            continue
        if name in setup:
            stats, div = per_setup.get(name), 1
        else:
            stats, div = per_call.get(name), n
        stats = stats or {"calls": 0, "self_s": 0.0, "raised": 0, "total_s": 0.0}
        for key in ("self_s", "calls", "raised"):
            out[f"{name}.{key}"] = stats[key] / div
    for key in ("io.bytes_read", "io.bytes_written"):
        out[key] = sum(tracer.counters.get(cid, {}).get(key, 0) for cid in traced_calls) / n
    signature = out["gram.dual_via_signature.self_s"]
    out["gram.dual_route_ratio"] = (
        out["gram.dual_via_inversion.self_s"] / signature if signature > 0 else 0.0
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"

    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    # -- set-up: import, inputs, one untimed warm-up call ------------------
    start = clock()
    workloads = import_package()
    tracer = None
    if args.trace:
        named, setup_functions = named_functions()
        tracer = tracing.Tracer()
        tracer.prepare("ptgram", traced_targets(named))
        tracer.install()
        tracer.call_id = "setup"
        setup_span = tracer.begin("setup")
    cases = workloads.make_cases(args.workload, args.seed, workdir)
    if tracer is not None:
        tracer.end(setup_span)
        tracer.call_id = "warmup"
    warmup_result = safe_call(workloads, cases[0])
    setup_s = clock() - start

    result = {"setup_s": setup_s, "input_sha256": workloads.input_digest(cases)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    loop = Loop(workloads, cases, Reference(workloads.np, args.workload))
    loop.account(cases[0], warmup_result)

    # -- the closed loop: whole passes over the inputs, ending at the pass
    # boundary nearest to --seconds of timed calls.  A traced run alternates
    # untraced and traced passes and ends after a whole pair.
    unit = 1 if tracer is None else 2
    passes = 0
    timed = {"plain": 0.0, "traced": 0.0}
    traced_calls: list[str] = []
    window_start = clock()
    while True:
        traced = tracer is not None and passes % 2 == 1
        if tracer is not None:
            (tracer.install if traced else tracer.uninstall)()
        elapsed = loop.timed_pass(tracer if traced else None, passes)
        if traced:
            traced_calls.extend(f"{passes}:{i}" for i in range(len(cases)))
        timed["traced" if traced else "plain"] += elapsed
        passes += 1
        total = timed["plain"] + timed["traced"]
        if passes % unit == 0 and total >= args.seconds - 0.5 * total * unit / passes:
            break
    window_s = clock() - window_start
    loop.reference.sample()
    if tracer is not None:
        tracer.uninstall()

    relations = loop.relations()
    result.update(latency_metrics(loop.durations, loop.reference.samples))
    result.update({
        "window_s": window_s,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "problems": loop.problems,
        "relations_pass_frac": relations["passing"] / max(1, relations["applicable"]),
        "relations": relations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "inputs": [case.name for case in cases],
        "passes": passes,
        "environment": environment(),
    })
    if tracer is not None:
        layers = layer_metrics(tracer, traced_calls, named, setup_functions)
        layers["trace.overhead_frac"] = timed["traced"] / timed["plain"] - 1.0
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["id", "name", "start", "end", "parent", "call", "raised"],
                       "spans": tracer.spans}, fh)
        result["trace"] = {
            "layers": layers,
            "absent": tracer.absent,
            "traced_calls": len(traced_calls),
            "dual_route_bases_s": {
                "inversion": layers["gram.dual_via_inversion.self_s"],
                "signature": layers["gram.dual_via_signature.self_s"],
            },
            "spans_file": str(spans_path.relative_to(ROOT)),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

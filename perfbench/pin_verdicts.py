"""Pin the verdict of every pooled random instance into ``verdicts.json``.

    python3 perfbench/pin_verdicts.py

Run it from the root of a checkout at a commit whose verdicts are known to
be right, and again whenever ``ptgram.models.random_unbroken_pt`` changes its
output (the benchmark then reports every changed instance as an error).
Each instance of the pools of ``ensemble-small`` and ``dense-512`` is
verified once.  An instance is pinned strict (no failure, no anomaly, every
relation passing) unless it has a failure or an anomaly, or a relation
whose residual is above half its threshold; such an instance is pinned
with what it showed, and those relations may fail, so that a verdict that
sits on a threshold does not flip into an error between machines.  An instance that fails the benchmark's other checks is not
pinned: the script stops.
"""

import json
import os
import sys

import worker

MARGIN = 0.5


def verdict(report) -> dict:
    near = [r.id for r in report.relations
            if r.residual is not None and r.residual > MARGIN * r.tolerance]
    return {"fail": near, "anomaly": bool(report.anomalies), "failure": report.failure is not None}


def main() -> int:
    for var in worker.THREAD_VARS:
        os.environ[var] = "1"
    workloads = worker.import_package()
    pool = [(dim, k) for dim in workloads.ENSEMBLE_DIMS for k in range(workloads.ENSEMBLE_POOL)]
    pool += [(workloads.DENSE_DIM, k) for k in range(workloads.DENSE_INSTANCES)]
    instances, exceptions = {}, {}
    for dim, k in pool:
        key = f"{dim}:{k}"
        case = workloads.pinned_case(dim, k, {"instances": {}, "exceptions": {}})
        report = workloads.call(case)
        case.expect = verdict(report)
        outcome = workloads.check_api(report, case, workloads.np.linalg.eigvals(case.h))
        if outcome.problems:
            print(f"{key}: {outcome.problems}", file=sys.stderr)
            return 1
        instances[key] = workloads.instance_digest(case.h, case.parity)
        if case.expect != workloads.STRICT:
            exceptions[key] = case.expect
            print(key, case.expect, report.anomalies, report.failure, flush=True)
    pins = {
        "about": "random_unbroken_pt(dim, seed=k) as 'dim:k': sha256 prefix of (H, P) "
                 "and, where not strict, the pinned verdict; made by pin_verdicts.py",
        "margin": MARGIN,
        "environment": worker.environment(),
        "exceptions": exceptions,
        "instances": instances,
    }
    workloads.VERDICTS.write_text(json.dumps(pins, indent=0) + "\n", encoding="utf-8")
    print(f"pinned {len(instances)} instances, {len(exceptions)} not strict")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Check every pinned instance of perfbench/verdicts.json the way the
benchmark checks it, without writing anything.

    python .github/scripts/check_pins.py

Run it from anywhere in a checkout.  Each pinned instance
random_unbroken_pt(dim, seed=k) is rebuilt by perfbench's own
``workloads.pinned_case``, verified once by ``full_verification`` with BLAS
on one thread (as when the pins were made), and checked against its pin by
``workloads.check_api``.  The script prints every instance that fails that
check, then the largest residual/threshold ratio among the relations the
pins require to pass, and each such ratio above the pins' margin: those are
the verdicts nearest to flipping.  Last comes the largest such ratio of every
relation id, one line each in checklist order, so that the output of two
checkouts can be diffed line by line.  It exits 1 if any instance fails.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "perfbench"))

import worker  # noqa: E402  (it imports neither numpy nor the package)


def main() -> int:
    for var in worker.THREAD_VARS:
        os.environ[var] = "1"
    workloads = worker.import_package()
    pins = workloads.load_pins()
    failed, ratios = 0, []
    for key in pins["instances"]:
        dim, k = (int(part) for part in key.split(":"))
        case = workloads.pinned_case(dim, k, pins)
        report = workloads.call(case)
        outcome = workloads.check_api(report, case, workloads.np.linalg.eigvals(case.h))
        if outcome.problems:
            failed += 1
            print(f"{key}: {'; '.join(outcome.problems)}", flush=True)
        allowed = (case.expect or workloads.STRICT)["fail"]
        ratios += [(entry.residual / entry.tolerance, key, entry.id) for entry in report.relations
                   if entry.residual is not None and entry.id not in allowed]
    ratios.sort(reverse=True)
    print(f"{len(pins['instances'])} pinned instances, {failed} failing their pin")
    ratio, key, relation = ratios[0]
    print(f"largest residual/threshold of a relation pinned to pass: {key} {relation} {ratio:.3f}")
    for ratio, key, relation in ratios:
        if ratio <= pins["margin"]:
            break
        print(f"  above the pin margin {pins['margin']}: {key} {relation} {ratio:.3f}")
    largest = {}
    for ratio, key, relation in ratios:  # in descending order: the first of each relation is its largest
        largest.setdefault(relation, (ratio, key))
    for relation in workloads.RELATION_IDS:
        if relation in largest:
            ratio, key = largest[relation]
            print(f"  largest for {relation}: {key} {ratio:.3g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Print a digest of the reports of a fixed pool of inputs, one line each.

    python .github/scripts/report_digest.py

Run it from anywhere in a checkout; it imports that checkout's package and
leaves the BLAS thread count to the caller (``OPENBLAS_NUM_THREADS``).  Each
input of the pool is verified once by ``full_verification``, and its line
holds:

- its name;
- its relation statuses in checklist order, one letter each: ``p`` pass,
  ``f`` fail, ``-`` not-applicable;
- ``verdict=``, a sha256 prefix of its statuses, its failure and anomaly
  strings with every number masked, and its signs;
- ``report=``, a sha256 prefix of its report JSON, and ``analysis=`` one of
  its analysis JSON for dims up to 64 (``-`` above), both written by
  ``ptgram.io.dumps`` without their timings.

The last line is a sha256 over every line before it.  Diffed line by line,
the output of two checkouts shows which inputs a change moved, and whether
a verdict moved with them: a refactor keeps every line, a numerical change
moves ``report=`` and ``analysis=`` but should keep ``verdict=``.  The pool
holds random unbroken and broken draws at n = 2..62 (seeds 0-3) and at
n = 256 and 512, lattice chains, the sweeps of lattice_chain(16 and 17,
gamma_c - d) for d = 1e-1 .. 1e-8 and the gamma = 1 - 1e-16 chains, the
oscillator and ix^3, the two-level model, a non-PT input and a parity with
imaginary entries.  It exits 0 whatever the digest.
"""

import hashlib
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import numpy as np  # noqa: E402

import ptgram  # noqa: E402
from ptgram import io as ptio  # noqa: E402

ANALYSIS_MAX_DIM = 64
STATUS_LETTERS = {"pass": "p", "fail": "f", "not-applicable": "-"}


def _gamma_c(n):
    """The exceptional point of lattice_chain(n, gamma, 1)."""
    return 1.0 if n % 2 == 0 else float(np.sqrt((n + 1) / (n - 1)))


def _imaginary_parity():
    """A PT-symmetric 2 x 2 under P = sigma_y, a parity with imaginary entries."""
    parity = ptgram.make_parity("explicit", 2, matrix=np.array([[0.0, -1j], [1j, 0.0]]))
    a = np.array([[1.0 + 2.0j, 3.0 - 1.0j], [0.5 + 1.0j, -2.0 + 0.25j]])
    p = parity.matrix
    return 0.5 * (a + p @ a.conj() @ p), parity


def pool():
    """(name, builder of (H, P)) of every input, in print order."""
    for n in range(2, 63, 4):
        for seed in range(4):
            yield f"random_unbroken_pt({n},{seed})", lambda n=n, s=seed: ptgram.random_unbroken_pt(n, s)
            yield f"random_pt({n},{seed})", lambda n=n, s=seed: ptgram.random_pt(n, s)
    for n in (256, 512):
        yield f"random_unbroken_pt({n},0)", lambda n=n: ptgram.random_unbroken_pt(n, 0)
        yield f"random_pt({n},0)", lambda n=n: ptgram.random_pt(n, 0)
    for n in (8, 16, 17, 64, 256):
        for gamma in (0.3, 1.5):
            yield f"lattice_chain({n},{gamma})", lambda n=n, g=gamma: ptgram.lattice_chain(n, g, 1.0)
    for n in (16, 17):
        for k in range(1, 9):
            gamma = _gamma_c(n) - 10.0**-k
            yield f"lattice_chain({n},gamma_c-1e-{k})", lambda n=n, g=gamma: ptgram.lattice_chain(n, g, 1.0)
    for n in (4, 6, 12, 30):
        yield f"lattice_chain({n},1-1e-16)", lambda n=n: ptgram.lattice_chain(n, 1.0 - 1e-16, 1.0)
    for n, length, epsilon in ((64, 5.0, 0.0), (64, 5.0, 1.0), (256, 5.0, 0.0), (256, 7.0, 1.0)):
        yield (f"discretized_schrodinger({n},{length},{epsilon})",
               lambda n=n, a=length, e=epsilon: ptgram.discretized_schrodinger(n, a, e))
    for b, g in ((1.0, 2.0), (2.0, 1.0), (1.0, 1.0)):
        yield f"two_level({b},{g})", lambda b=b, g=g: ptgram.two_level(b, g)
    yield "non_pt_swap", lambda: (np.array([[1j, 2.0], [2.0, 1j]]), ptgram.make_parity("swap-pairs", 2))
    yield "sigma_y_parity", _imaginary_parity


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _untimed_dump(payload):
    del payload["timings"]
    return ptio.dumps(payload)


def _masked(text):
    return re.sub(r"[-+]?\d+(\.\d+)?(e[-+]?\d+)?", "#", text)


def line(name, h, parity):
    art = ptgram.full_verification(h, parity)
    statuses = "".join(STATUS_LETTERS[entry.status] for entry in art.relations)
    verdict = json.dumps([
        statuses,
        None if art.failure is None else _masked(art.failure),
        [_masked(anomaly) for anomaly in art.anomalies],
        None if art.signature is None else art.signature.values.tolist(),
    ])
    report = _sha(_untimed_dump(ptio.report_to_dict(art)))
    analysis = "-"
    if h.shape[0] <= ANALYSIS_MAX_DIM:
        analysis = _sha(_untimed_dump(ptio.analysis_to_dict(art)))[:16]
    return f"{name} {statuses} verdict={_sha(verdict)[:12]} report={report[:16]} analysis={analysis}"


def main() -> int:
    overall = hashlib.sha256()
    count = 0
    for name, build in pool():
        text = line(name, *build())
        overall.update(text.encode("utf-8") + b"\n")
        count += 1
        print(text, flush=True)
    print(f"{count} inputs, digest {overall.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

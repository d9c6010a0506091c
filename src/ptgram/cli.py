"""Command-line front end.

Subcommands: ``analyze`` (spectrum, signs, Gram matrix, dual basis),
``verify`` (relation checklist with pass/fail exit code), ``bench`` (dual
construction route timings), and ``generate`` (write a model instance in the
matrix interchange format).

Exit codes: 0 success / all applicable relations pass, 1 verification
failure, 2 usage, parse or allocation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import io as ptio
from .config import DEFAULT_TOLERANCES
from .errors import (
    InputFormatError,
    InvalidGrid,
    InvalidParity,
    NumericalError,
    PtGramError,
)
from .models import discretized_schrodinger, lattice_chain, random_pt, two_level
from .verify import bench_dual_routes, run_pipeline

__all__ = ["MODELS", "main", "cmd_analyze", "cmd_verify", "cmd_bench", "cmd_generate"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# Model family -> builder of its (H, P) pair from the parsed flags.
MODELS = {
    "two-level": lambda args: two_level(args.g, args.b),
    "lattice-chain": lambda args: lattice_chain(args.n, args.gamma, args.t),
    "discretized-schrodinger": lambda args: discretized_schrodinger(args.n, args.L, args.epsilon),
    "random-pt": lambda args: random_pt(args.n, args.seed),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptgram",
        description=(
            "Analyze gain/loss-symmetric Hamiltonians: bi-orthonormal dual bases, "
            "sign structure, Gram matrices, and inversion-free dual construction."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--model", choices=tuple(MODELS), help="model family to build")
    source.add_argument("--g", type=float, default=1.0, help="gain/loss strength (two-level)")
    source.add_argument("--b", type=float, default=2.0, help="coupling (two-level)")
    source.add_argument("--n", type=int, default=16, help="dimension / number of sites")
    source.add_argument("--gamma", type=float, default=0.5, help="gain/loss strength (lattice-chain)")
    source.add_argument("--t", type=float, default=1.0, help="hopping (lattice-chain)")
    source.add_argument("--epsilon", type=float, default=1.0, help="potential deformation exponent")
    source.add_argument("--L", type=float, default=5.0, help="grid half-width")
    source.add_argument("--seed", type=int, default=0, help="random seed")
    source.add_argument("--input", help="matrix interchange JSON file instead of a model")

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--output", help="output path (default: stdout)")
    # report options: only the commands that run the pipeline take them
    report = argparse.ArgumentParser(add_help=False, parents=[out])
    report.add_argument("--format", choices=("json", "text-table"), default="json", dest="fmt")
    report.add_argument("--tol-eig", type=float, default=None, help="eigen-residual tolerance")
    report.add_argument("--tol-sig", type=float, default=None, help="signature-residual tolerance")

    sub.add_parser("analyze", parents=[source, report],
                   help="spectrum, classification, signs, Gram matrix, dual basis")
    sub.add_parser("verify", parents=[source, report],
                   help="run the relation checklist; exit 0 only if all applicable pass")
    bench = sub.add_parser("bench", parents=[report],
                           help="time dual construction with vs without Gram inversion")
    bench.add_argument("--dims", required=True,
                       help="comma-separated dimensions, e.g. 64,128,256")
    bench.add_argument("--reps", type=int, default=5, help="timing repetitions per dimension")
    bench.add_argument("--seed", type=int, default=0, help="random seed")
    sub.add_parser("generate", parents=[source, out],
                   help="write the model instance in the matrix interchange format")
    return parser


def _parse_dims(text: str) -> list[int]:
    try:
        dims = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"--dims must be comma-separated integers, got {text!r}") from exc
    if not dims:
        raise ValueError("--dims must name at least one dimension")
    return dims


def _validate(args: argparse.Namespace) -> None:
    """Usage checks argparse cannot make; raises ValueError.  Stores the
    tolerances of the pipeline commands as ``args.tolerances`` and, for
    bench, the parsed dims."""
    if args.command != "generate":
        args.tolerances = DEFAULT_TOLERANCES.override(eig=args.tol_eig, signature=args.tol_sig)
    if args.command == "bench":
        args.dims = _parse_dims(args.dims)
        if args.reps < 0:
            raise ValueError(f"--reps must be >= 0, got {args.reps}")
        return
    if (args.model is None) == (args.input is None):
        raise ValueError("exactly one of --model or --input is required")
    if args.command == "generate" and args.input is not None:
        raise ValueError("generate needs --model, not --input")


def _run(args: argparse.Namespace):
    """The scored run of the pair of ``--model`` or ``--input``; its
    ``timings`` start with ``input``, the time that pair took to build or read."""
    t0 = time.perf_counter()
    if args.model is not None:
        h, parity = MODELS[args.model](args)
    else:
        h, parity = ptio.load_matrix_pair(args.input)
    input_s = time.perf_counter() - t0
    art = run_pipeline(h, parity, args.tolerances)
    art.timings = {"input": input_s, **art.timings}
    return art


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write(args: argparse.Namespace, result, to_dict, render) -> None:
    """Write ``result``'s payload as indented JSON or as a text table."""
    payload = to_dict(result)
    _emit(ptio.dumps(payload) if args.fmt == "json" else render(payload), args.output)


def cmd_analyze(args: argparse.Namespace) -> int:
    art = _run(args)
    _write(args, art, ptio.analysis_to_dict, ptio.render_analysis_text)
    if art.failure is not None:
        print(f"numerical failure: {art.failure}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    report = _run(args)
    _write(args, report, ptio.report_to_dict, ptio.render_report_text)
    if report.failure is not None:
        print(f"numerical failure: {report.failure}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK if report.all_applicable_pass else EXIT_VERIFY_FAIL


def cmd_bench(args: argparse.Namespace) -> int:
    rows = bench_dual_routes(args.dims, args.reps, seed=args.seed, tol=args.tolerances)
    _write(args, rows, ptio.bench_to_dict, ptio.render_bench_text)
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    h, parity = MODELS[args.model](args)
    _emit(ptio.dump_matrix_pair(h, parity), args.output)
    return EXIT_OK


_COMMANDS = {
    "analyze": cmd_analyze,
    "verify": cmd_verify,
    "bench": cmd_bench,
    "generate": cmd_generate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        return _COMMANDS[args.command](args)
    except InputFormatError as exc:
        where = f" (field: {exc.field})" if exc.field else ""
        print(f"error: {exc}{where}", file=sys.stderr)
        return EXIT_USAGE
    except (InvalidParity, InvalidGrid, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PtGramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

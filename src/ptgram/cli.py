"""Command-line front end.

Subcommands: ``analyze`` (spectrum, signs, Gram matrix, dual basis),
``verify`` (relation checklist with pass/fail exit code), ``bench`` (dual
construction route timings), and ``generate`` (write a model instance in the
matrix interchange format).

Exit codes: 0 success / all applicable relations pass, 1 verification
failure, 2 usage or parse error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import io as ptio
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    InputFormatError,
    InvalidGrid,
    InvalidParity,
    NumericalError,
    PtGramError,
)
from .models import FAMILIES, REQUIRED_PARAMETERS, ModelSpec
from .verify import bench_dual_routes, full_verification, run_pipeline

__all__ = ["RunConfig", "main", "cmd_analyze", "cmd_verify", "cmd_bench", "cmd_generate"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


@dataclass
class RunConfig:
    """Validated invocation: exactly one matrix source, positive tolerances."""

    command: str
    model: ModelSpec | None = None
    input_path: str | None = None
    output: str | None = None
    fmt: str = "json"
    tolerances: Tolerances = field(default_factory=lambda: DEFAULT_TOLERANCES)
    dims: list[int] = field(default_factory=list)
    reps: int = 5
    seed: int = 0


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
    source.add_argument("--model", choices=FAMILIES, help="model family to build")
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
    out.add_argument("--format", choices=("json", "text-table"), default="json", dest="fmt")
    out.add_argument("--tol-eig", type=float, default=None, help="eigen-residual tolerance")
    out.add_argument("--tol-sig", type=float, default=None, help="signature-residual tolerance")

    sub.add_parser("analyze", parents=[source, out],
                   help="spectrum, classification, signs, Gram matrix, dual basis")
    sub.add_parser("verify", parents=[source, out],
                   help="run the relation checklist; exit 0 only if all applicable pass")
    bench = sub.add_parser("bench", parents=[out],
                           help="time dual construction with vs without Gram inversion")
    bench.add_argument("--dims", required=True,
                       help="comma-separated dimensions, e.g. 64,128,256")
    bench.add_argument("--reps", type=int, default=5, help="timing repetitions per dimension")
    bench.add_argument("--seed", type=int, default=0, help="random seed")
    sub.add_parser("generate", parents=[source, out],
                   help="write the model instance in the matrix interchange format")
    return parser


def _model_from_args(args: argparse.Namespace) -> ModelSpec:
    family = args.model
    parameters = {name: getattr(args, name) for name in REQUIRED_PARAMETERS[family]}
    dim = 2 if family == "two-level" else args.n
    return ModelSpec(family, parameters, dim=dim, seed=args.seed)


def _parse_dims(text: str) -> list[int]:
    try:
        dims = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"--dims must be comma-separated integers, got {text!r}") from exc
    if not dims:
        raise ValueError("--dims must name at least one dimension")
    return dims


def config_from_args(args: argparse.Namespace) -> RunConfig:
    tol = DEFAULT_TOLERANCES.override(eig=args.tol_eig, signature=args.tol_sig)
    config = RunConfig(command=args.command, output=args.output, fmt=args.fmt, tolerances=tol)
    if args.command == "bench":
        config.dims = _parse_dims(args.dims)
        if args.reps < 0:
            raise ValueError(f"--reps must be >= 0, got {args.reps}")
        config.reps = args.reps
        config.seed = args.seed
        return config

    has_model = args.model is not None
    has_input = args.input is not None
    if has_model == has_input:
        raise ValueError("exactly one of --model or --input is required")
    if args.command == "generate" and has_input:
        raise ValueError("generate needs --model, not --input")
    if has_model:
        config.model = _model_from_args(args)
    else:
        config.input_path = args.input
    return config


def _matrix_pair(config: RunConfig):
    if config.model is not None:
        return config.model.build()
    return ptio.load_matrix_pair(config.input_path)


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_analyze(config: RunConfig) -> int:
    h, parity = _matrix_pair(config)
    art = run_pipeline(h, parity, config.tolerances)
    if config.fmt == "json":
        _emit(json.dumps(ptio.analysis_to_dict(art), indent=2) + "\n", config.output)
    else:
        _emit(ptio.render_analysis_text(art), config.output)
    if art.failure is not None:
        print(f"numerical failure: {art.failure}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    h, parity = _matrix_pair(config)
    report = full_verification(h, parity, config.tolerances)
    if config.fmt == "json":
        _emit(json.dumps(ptio.report_to_dict(report), indent=2) + "\n", config.output)
    else:
        _emit(ptio.render_report_text(report), config.output)
    if report.failure is not None:
        print(f"numerical failure: {report.failure}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK if report.all_applicable_pass else EXIT_VERIFY_FAIL


def cmd_bench(config: RunConfig) -> int:
    rows = bench_dual_routes(config.dims, config.reps, seed=config.seed, tol=config.tolerances)
    if config.fmt == "json":
        _emit(json.dumps(ptio.bench_to_dict(rows), indent=2) + "\n", config.output)
    else:
        _emit(ptio.render_bench_text(rows), config.output)
    return EXIT_OK


def cmd_generate(config: RunConfig) -> int:
    h, parity = config.model.build()
    _emit(ptio.dump_matrix_pair(h, parity), config.output)
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
        config = config_from_args(args)
        return _COMMANDS[config.command](config)
    except InputFormatError as exc:
        where = f" (field: {exc.field})" if exc.field else ""
        print(f"error: {exc}{where}", file=sys.stderr)
        return EXIT_USAGE
    except (InvalidParity, InvalidGrid, ValueError, OSError) as exc:
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

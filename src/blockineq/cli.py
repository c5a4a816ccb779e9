"""Command-line interface: ``blockineq verify | choi | gen``.

Exit codes: 0 all checks passed; 1 at least one inequality check failed;
2 usage or parse error (including an output path that cannot be written,
a standard output closed before the output is written, and an input,
explicit or seeded, outside its check's hypothesis at the run's
``--tol``); 3 numerical failure (eigensolver did not converge or
rejected its input: not Hermitian, or a norm that overflows; or a broken
consistency chain); 4 internal error (an unexpected exception, a defect of
the program); 5 out of memory (the run needed more memory than the process
may use).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import (
    BlockineqError,
    ConvergenceError,
    HermiticityError,
    NormOverflowError,
    ParseError,
    PreconditionError,
    SelfCheckError,
    UsageError,
    ValidationError,
)
from .maps import (
    BUILTIN_MAPS,
    LinearMapRep,
    builtin_map,
    certify_completely_copositive,
    certify_completely_positive,
    choi_matrix,
    co_choi_matrix,
)
from .densemat import DEFAULT_TOL
from .matio import block_to_doc, load, save, to_doc, write_text
from .randgen import GEN_KINDS, GenSpec, generate
from .suites import (
    DEFAULT_DIMS,
    DEFAULT_SHAPES,
    DEFAULT_TRIALS,
    SUITE_NAMES,
    SuiteConfig,
    run_files,
    run_suite,
)

# don't flood the working directory if a run produces mass failures
_MAX_COUNTEREXAMPLE_FILES = 100


def _shape_list(text: str):
    shapes = []
    for token in text.split(","):
        token = token.strip().lower()
        parts = token.split("x")
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise argparse.ArgumentTypeError(
                f"bad shape {token!r}: expected MxN, e.g. --shapes 2x2,2x3"
            )
        shapes.append((int(parts[0]), int(parts[1])))
    return tuple(shapes)


def _dim_list(text: str):
    dims = []
    for token in text.split(","):
        token = token.strip()
        if not token.isdigit():
            raise argparse.ArgumentTypeError(f"bad dimension {token!r}: expected e.g. --dims 4,5")
        dims.append(int(token))
    return tuple(dims)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockineq",
        description="Verify block-matrix trace/determinant inequalities and map positivity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify",
        help="run seeded inequality suites, or check explicit matrix files",
    )
    verify.add_argument(
        "--suite",
        action="append",
        choices=("all",) + SUITE_NAMES,
        help="suite to run (repeatable; default: all)",
    )
    verify.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    verify.add_argument(
        "--shapes",
        type=_shape_list,
        default=DEFAULT_SHAPES,
        help="block shapes for the block suites, e.g. 2x2,2x3 (default: 2x2,2x3,3x2,3x3)",
    )
    verify.add_argument(
        "--dims",
        type=_dim_list,
        default=DEFAULT_DIMS,
        help="matrix dimensions for the submatrix suites, e.g. 4,5",
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--tol", type=float, default=DEFAULT_TOL)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--out", help="write the report here instead of stdout")
    verify.add_argument(
        "files",
        nargs="*",
        help="matrix documents to check instead of seeded random inputs",
    )

    choi = sub.add_parser(
        "choi",
        help="print the Choi and co-Choi matrices of a map and certify it",
    )
    choi.add_argument("--map", choices=BUILTIN_MAPS, help="builtin map name")
    choi.add_argument("--n", type=int, default=2, help="domain dimension for a builtin map")
    choi.add_argument("--map-file", help="JSON document of a linear map")
    choi.add_argument("--tol", type=float, default=DEFAULT_TOL)
    choi.add_argument("--format", choices=("text", "json"), default="text")
    choi.add_argument("--out", help="write the result here instead of stdout")

    gen = sub.add_parser("gen", help="emit one random matrix of a named class")
    gen.add_argument("--kind", choices=GEN_KINDS, required=True)
    gen.add_argument("--m", type=int, required=True, help="outer block count")
    gen.add_argument("--n", type=int, required=True, help="inner block dimension")
    gen.add_argument(
        "--rank-or-terms",
        type=int,
        default=None,
        help="rank for PSD kinds / term count for separable (default: kind-specific)",
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", help="write the matrix here instead of stdout")

    return parser


# Built once per process: a call of main only parses. Parsing keeps no state
# in the parser, so each call's namespace is its own.
_PARSER = _build_parser()


def _emit(text: str, out: str | None) -> None:
    if out:
        write_text(out, text)
    else:
        print(text, flush=True)  # a closed stdout shows here, not at the interpreter's exit


def _write_counterexamples(report, out: str | None) -> None:
    if not report.counterexamples:
        return
    directory = Path(out).resolve().parent if out else Path.cwd()
    written = 0
    for idx, ce in enumerate(report.counterexamples):
        if written >= _MAX_COUNTEREXAMPLE_FILES:
            print(
                f"note: {len(report.counterexamples) - written} further counterexamples "
                "not written to files (still present in the report)",
                file=sys.stderr,
            )
            break
        path = directory / f"counterexample-{ce.suite}-{idx:03d}.json"
        write_text(path, json.dumps(ce.to_doc(), allow_nan=False, indent=2))
        written += 1
    if written:
        print(f"wrote {written} counterexample file(s) to {directory}", file=sys.stderr)


def _cmd_verify(args) -> int:
    config = SuiteConfig(
        suites=tuple(args.suite) if args.suite else ("all",),
        trials=args.trials,
        shapes=args.shapes,
        dims=args.dims,
        seed=args.seed,
        tol=args.tol,
        output_format=args.format,
    )
    report = run_files(config, args.files) if args.files else run_suite(config)
    _emit(report.to_json() if args.format == "json" else report.to_text(), args.out)
    _write_counterexamples(report, args.out)
    return 0 if report.passed else 1


def _cmd_choi(args) -> int:
    if (args.map is None) == (args.map_file is None):
        raise UsageError("exactly one of --map or --map-file is required")
    if args.map is not None:
        if args.n < 1:
            raise UsageError(f"--n must be positive, got {args.n}")
        phi = builtin_map(args.map, args.n)
        source = f"builtin:{args.map}"
    else:
        phi = load(args.map_file)
        if not isinstance(phi, LinearMapRep):
            raise UsageError(f"{args.map_file}: expected a linear-map document")
        source = f"file:{args.map_file}"
    choi = choi_matrix(phi)
    co_choi = co_choi_matrix(phi)
    cp, min_choi = certify_completely_positive(phi, args.tol)
    ccp, min_co = certify_completely_copositive(phi, args.tol)
    if args.format == "json":
        doc = {
            "map": {"source": source, "n": phi.n, "k": phi.k},
            "choi": block_to_doc(choi),
            "co_choi": block_to_doc(co_choi),
            "completely_positive": {"certified": cp, "min_eig": min_choi},
            "completely_copositive": {"certified": ccp, "min_eig": min_co},
        }
        _emit(json.dumps(doc, allow_nan=False, indent=2), args.out)
    else:
        lines = [
            f"map: {source} (M_{phi.n} -> M_{phi.k})",
            f"choi matrix: {choi.dim}x{choi.dim}, block shape ({choi.m}, {choi.n})",
            f"completely positive: {'yes' if cp else 'no'} (choi min eigenvalue {min_choi:.6e})",
            f"completely copositive: {'yes' if ccp else 'no'} "
            f"(co-choi min eigenvalue {min_co:.6e})",
            f"completely PPT: {'yes' if cp and ccp else 'no'}",
        ]
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_gen(args) -> int:
    spec = GenSpec(
        kind=args.kind, m=args.m, n=args.n, seed=args.seed, rank_or_terms=args.rank_or_terms
    )
    block = generate(spec)
    if args.out:
        save(args.out, block)
    else:
        _emit(json.dumps(to_doc(block), allow_nan=False, indent=2), None)
    return 0


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "choi":
            return _cmd_choi(args)
        return _cmd_gen(args)
    except (UsageError, ParseError, ValidationError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, HermiticityError, NormOverflowError, SelfCheckError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except BlockineqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader of stdout went away: an output that cannot be written
        # the interpreter flushes stdout again at exit; send that to devnull, not to a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed before the output was written", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a resource limit, not a defect: no traceback
        print(f"out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 5
    except Exception as exc:  # a defect, not a verdict: keep it apart from exit 1
        import traceback  # only on this path: the module costs start-up time and memory

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 guard refusal.
Exit 2 covers `graphs.InputError` (bad graph6, corpus, kind or size) and
unreadable or unwritable files; any other exception is a fault and surfaces.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import graphs
from .polyring import poly_str
from .profiles import (
    SizeGuardError,
    determinantal_ideals,
    multivariate_ideals,
    profile_json,
)
from .smith import cokernel, snf_integer, snf_poly_q
from .suites import SUITES, run_suite
from .survey import (
    CSV_HEADER,
    LARGE_CORPUS_THRESHOLD,
    MODES,
    run_survey,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_GUARD = 3


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _identifier(text: str) -> str:
    if not text.isidentifier():
        raise argparse.ArgumentTypeError(f"expected a variable name (an identifier), got {text!r}")
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detideals",
        description="Exact determinantal ideals, Smith normal forms and "
        "codeterminantal graph surveys.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit all connected graphs on n vertices as graph6")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("ideals", help="determinantal ideal profile of one graph matrix")
    source = p.add_mutually_exclusive_group()
    source.add_argument("graph6", nargs="?", help="inline graph6 string")
    source.add_argument("--input", help="graph6 file, or - for stdin")
    p.add_argument("--matrix", choices=graphs.MATRIX_KINDS, default="adjacency")
    p.add_argument("--ring", choices=("Zx", "Qx", "ZX"), default="Zx")
    p.add_argument("--var", type=_identifier, default="x",
                   help="variable name of the Zx and Qx profiles in text and JSON output "
                   "(an identifier); ZX profiles always use x0..x{n-1}")
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.add_argument("--force", action="store_true",
                   help="override the multivariate size guard")

    p = sub.add_parser("snf", help="Smith normal form of a graph matrix")
    source = p.add_mutually_exclusive_group()
    source.add_argument("graph6", nargs="?", help="inline graph6 string")
    source.add_argument("--input", help="graph6 file, or - for stdin")
    p.add_argument("--matrix", choices=graphs.MATRIX_KINDS, default="adjacency")
    p.add_argument("--ring", choices=("Z", "Qx"), default="Z")
    p.add_argument("--output", choices=("text", "json"), default="text")

    p = sub.add_parser("survey", help="classify a corpus by an invariant key")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--n", type=int, help="use the built-in connected-graph corpus")
    source.add_argument("--input", help="graph6 corpus file, or - for stdin")
    p.add_argument("--matrix", choices=graphs.MATRIX_KINDS, required=True)
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--output", choices=("csv", "json", "text"), default="csv")
    p.add_argument("--out", help="write the report to this file instead of stdout")
    p.add_argument("--workers", type=_positive_int, default=None)
    p.add_argument("--allow-large", action="store_true",
                   help="permit corpora at the n=9 scale")
    p.add_argument("--checkpoint", help="write per-graph key records to this JSONL file")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--max-n", type=_positive_int, default=None)
    p.add_argument("--workers", type=_positive_int, default=None)

    return parser


def _read_graphs(args) -> list[graphs.Graph]:
    if getattr(args, "graph6", None):
        return [graphs.parse_graph6(args.graph6)]
    if not getattr(args, "input", None):
        raise graphs.InputError("no graph input given (inline graph6 or --input)")
    try:
        if args.input == "-":
            corpus = list(graphs.read_graph6_lines(sys.stdin))
        else:
            with open(args.input, "r", encoding="ascii") as fh:
                corpus = list(graphs.read_graph6_lines(fh))
    except UnicodeDecodeError as exc:
        raise graphs.Graph6Error(f"graph6 input {args.input} is not ASCII") from exc
    if not corpus:
        raise graphs.Graph6Error(f"no graph in input {args.input}")
    return corpus


def _cmd_gen(args) -> int:
    for g in graphs.enumerate_connected(args.n):
        print(graphs.write_graph6(g))
    return EXIT_OK


def _cmd_ideals(args) -> int:
    out = []
    for g in _read_graphs(args):
        if args.ring == "ZX":
            profile = multivariate_ideals(g, args.matrix, force=args.force)
        else:
            profile = determinantal_ideals(g, args.matrix, args.ring)
        out.append(profile)
    if args.output == "json":
        docs = [profile_json(p, var=args.var) for p in out]
        print(json.dumps(docs[0] if len(docs) == 1 else docs, indent=2))
        return EXIT_OK
    for profile in out:
        print(f"graph {profile.graph6} matrix {profile.kind} ring "
              f"{profile.ring.kind} corank {profile.corank}")
        for k, ideal in enumerate(profile.ideals, start=1):
            print(f"  k={k}: [{', '.join(ideal.basis_strings(var=args.var))}]")
    return EXIT_OK


def _cmd_snf(args) -> int:
    docs = []
    lines = []
    for g in _read_graphs(args):
        g6 = graphs.write_graph6(g)
        if args.ring == "Z":
            snf = snf_integer(graphs.build_matrix(g, args.matrix))
            docs.append({"graph": g6, **snf.to_json()})
            diag = ",".join(str(f) for f in snf.diagonal())
            lines.append(f"graph {g6} matrix {args.matrix} ring Z")
            lines.append(f"  invariant factors: {diag}")
            lines.append(f"  cokernel: {cokernel(snf)}")
        else:
            snf = snf_poly_q(graphs.build_matrix(g, args.matrix))
            docs.append({"graph": g6, **snf.to_json()})
            lines.append(f"graph {g6} matrix {args.matrix} ring Qx")
            for k, f in enumerate(snf.diagonal(), start=1):
                lines.append(f"  f_{k} = {poly_str(f)}")
    if args.output == "json":
        print(json.dumps(docs[0] if len(docs) == 1 else docs, indent=2))
    else:
        print("\n".join(lines))
    return EXIT_OK


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file: one existing file (under any link),
    or one path to a file that does not exist yet."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)


@contextlib.contextmanager
def _report_file(path: str):
    """`path` opened to append before any key is computed; a file made here is
    removed again if the survey fails (the caller empties it for the report)."""
    try:
        fh, made = open(path, "x", encoding="utf-8"), True
    except FileExistsError:
        fh, made = open(path, "a", encoding="utf-8"), False
    with fh:
        try:
            yield fh
        except BaseException:
            if made:
                os.unlink(path)
            raise


def _cmd_survey(args) -> int:
    if args.out and args.checkpoint and _same_file(args.out, args.checkpoint):
        raise graphs.InputError("--out and --checkpoint name the same file")
    for flag, path in (("--out", args.out), ("--checkpoint", args.checkpoint)):
        if args.input and args.input != "-" and path and _same_file(args.input, path):
            raise graphs.InputError(f"--input and {flag} name the same file")
    if args.n is not None:
        corpus = graphs.enumerate_connected(args.n)
    elif args.input:
        corpus = _read_graphs(args)
    else:
        raise graphs.InputError("survey needs --n or --input")
    if len(corpus) >= LARGE_CORPUS_THRESHOLD and not args.allow_large:
        raise SizeGuardError(
            f"corpus of {len(corpus)} graphs requires --allow-large")
    with _report_file(args.out) if args.out else contextlib.nullcontext(sys.stdout) as fh:
        report = run_survey(corpus, args.matrix, args.mode, workers=args.workers,
                            checkpoint_path=args.checkpoint)
        # two labellings of one graph share every key, so they meet in a bucket
        for _, members in report.buckets if args.input else ():
            forms: dict = {}
            for g6 in members:
                other = forms.setdefault(graphs.canonical_columns(graphs.parse_graph6(g6)), g6)
                if other != g6:
                    raise graphs.InputError(f"{other} and {g6} are one graph in two labellings")
        if args.output == "csv":
            text = CSV_HEADER + "\n" + report.csv_row() + "\n"
        elif args.output == "json":
            text = json.dumps(report.to_json(), indent=2) + "\n"
        else:
            text = (f"n={report.n} matrix={report.kind} mode={report.mode} "
                    f"total={report.total} with_mate={report.with_mate}\n")
            for key, members in report.buckets:
                text += f"  [{len(members)}] {' '.join(members)}\n"
        if args.out:
            fh.truncate(0)
        fh.write(text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; available: {', '.join(sorted(SUITES))}",
              file=sys.stderr)
        return EXIT_INPUT_ERROR
    results = run_suite(args.suite, max_n=args.max_n, workers=args.workers)
    if not results:
        print(f"error: suite {args.suite} ran no checks at --max-n {args.max_n}",
              file=sys.stderr)
        return EXIT_INPUT_ERROR
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        print(f"{status}: {r.name}{detail}")
        ok = ok and r.passed
    print(f"suite {args.suite}: {'all checks passed' if ok else 'FAILURES PRESENT'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "ideals":
            return _cmd_ideals(args)
        if args.command == "snf":
            return _cmd_snf(args)
        if args.command == "survey":
            return _cmd_survey(args)
        if args.command == "verify":
            return _cmd_verify(args)
        raise AssertionError("unreachable")
    except SizeGuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (graphs.InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

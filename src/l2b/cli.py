"""Command-line interface: verify, dualize, gen, catalog.

Exit codes: 0 verification passed (or command succeeded), 1 verification
failed, 2 input or usage error.  Reports and documents go to stdout (or
``--out``); diagnostics go to stderr.  Every command is a pure function of
its inputs, flags and seed, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import sys

from . import catalog
from .documents import (
    DocumentError,
    DUALIZATIONS,
    METHODS,
    UnsupportedMethod,
    dualize_document,
    parse_document,
    run_verifier,
    serialize_document,
    serialize_report,
)


def _emit(data: bytes, out_path: str | None):
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode("utf-8"))


def _read_document(path: str):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise DocumentError("", f"cannot read {path}: {e.strerror}") from e
    return parse_document(data)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l2b",
        description="exact verification kernel for two-term Lie theory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify an instance document")
    p_verify.add_argument("file")
    p_verify.add_argument("--method", choices=METHODS, default="auto")
    p_verify.add_argument("--out")

    p_dual = sub.add_parser("dualize", help="emit the dual document")
    p_dual.add_argument("file")
    p_dual.add_argument("--which", required=True, choices=DUALIZATIONS)
    p_dual.add_argument("--out")

    p_gen = sub.add_parser("gen", help="generate a seeded instance document")
    p_gen.add_argument("--family", required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--perturbed", action="store_true")
    p_gen.add_argument("--out")

    p_cat = sub.add_parser("catalog", help="list or show built-in instances")
    cat_sub = p_cat.add_subparsers(dest="catalog_command", required=True)
    cat_sub.add_parser("list")
    p_show = cat_sub.add_parser("show")
    p_show.add_argument("name")

    return parser


def _cmd_verify(args) -> int:
    doc = _read_document(args.file)
    report = run_verifier(doc, args.method)
    _emit(serialize_report(doc, args.method, report), args.out)
    return 0 if report.passed else 1


def _cmd_dualize(args) -> int:
    doc = _read_document(args.file)
    _emit(serialize_document(dualize_document(doc, args.which)), args.out)
    return 0


def _cmd_gen(args) -> int:
    doc = catalog.gen_document(args.family, args.seed, args.perturbed)
    _emit(serialize_document(doc), args.out)
    return 0


def _cmd_catalog(args) -> int:
    if args.catalog_command == "list":
        for entry in catalog.entries():
            flag = "valid" if entry.valid else "invalid"
            sys.stdout.write(
                f"{entry.name:28s} {entry.kind:16s} {flag:8s} {entry.description}\n"
            )
        return 0
    try:
        entry = catalog.get(args.name)
    except KeyError:
        raise UnsupportedMethod(f"unknown catalog instance {args.name!r}")
    _emit(serialize_document(entry.document), None)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    handlers = {
        "verify": _cmd_verify,
        "dualize": _cmd_dualize,
        "gen": _cmd_gen,
        "catalog": _cmd_catalog,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, catalog.RetryExhaustion) as e:
        # DocumentError, UnsupportedMethod, dimension and construction-invariant
        # failures are all ValueError subclasses: every one of them is an input
        # problem, exit code 2
        sys.stderr.write(f"error: {e}\n")
        return 2
    except OSError as e:
        # an output path that cannot be written, or a closed stdout
        sys.stderr.write(f"error: cannot write output: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

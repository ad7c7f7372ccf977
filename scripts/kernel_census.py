#!/usr/bin/env python3
"""List the kernel functions that no CLI run enters.

The CLI runs in process, under a ``sys.setprofile`` hook, over every
catalog entry and every `gen` family at seeds 0 to N - 1, plain and
perturbed: each document is written by ``catalog show`` or ``gen`` and
then read back by ``verify`` under every ``--method`` and by ``dualize``
under every ``--which``.  ``verify`` also reads one malformed document per
refusal path (`refusals`), each of which must exit 2, so that the code
that refuses a document counts as entered.  The hook records every Python
function entered.
The script then prints each named function of ``src/l2b`` that was never
entered, with its line count, in source order.  Tests, the benchmark and
the other scripts are not run, so a listed function is one that only they
reach, or nothing does.

Usage: PYTHONPATH=src python3 scripts/kernel_census.py [--seeds N]
"""

import argparse
import contextlib
import importlib
import inspect
import io
import os
import pkgutil
import sys
import tempfile
import time
import types


def code_key(code) -> tuple:
    """The key of a code object, the same for the walk and the profile hook."""
    return (code.co_filename, code.co_firstlineno, code.co_name)


def kernel_functions():
    """``(module, qualname, lines, key)`` of every named function in ``l2b``.

    Nested functions are included; lambdas and comprehensions are not.
    ``key`` identifies the function's code object.  Each qualname is built
    while walking (code objects carry one only from Python 3.11 on): a
    function's ``__qualname__``, then ``.<locals>.`` and the name per
    nesting level.
    """
    import l2b

    found = {}

    def visit(module, code, qualname):
        if code.co_filename != module.__file__:
            return  # generated by dataclasses, or defined elsewhere
        if not code.co_name.startswith("<"):
            lines = len(inspect.getsourcelines(code)[0])
            found[code_key(code)] = (module.__name__, qualname, lines)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                visit(module, const, f"{qualname}.<locals>.{const.co_name}")

    def visit_object(module, obj):
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        if isinstance(obj, property):
            obj = obj.fget
        if isinstance(obj, types.FunctionType):
            visit(module, obj.__code__, obj.__qualname__)

    for info in pkgutil.iter_modules(l2b.__path__):
        if info.name == "__main__":
            continue  # running it would run the CLI
        module = importlib.import_module(f"l2b.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                for member in vars(obj).values():
                    visit_object(module, member)
            else:
                visit_object(module, obj)
    return sorted(
        ((mod, qual, lines, key) for key, (mod, qual, lines) in found.items()),
        key=lambda row: (row[0], row[3][1]),
    )


def refusals() -> dict[str, bytes]:
    """One malformed document per refusal path, by name."""
    # one digit more than int() reads from text; with the limit off, a dim
    # above `MAX_DIM`
    long_int = "1" + "0" * max(sys.get_int_max_str_digits(), 3)

    def lie(dim: str, bracket: str) -> bytes:
        return ('{"kind": "lie_algebra", "spaces": {"g": {"dim": %s}}, '
                '"blocks": {"bracket": %s}}' % (dim, bracket)).encode()

    return {
        "not-utf8": b'{"kind": "\xff"}',
        "syntax": b'{"kind": ',
        "top-level": b"[]",
        "unknown-kind": b'{"kind": "sheaf"}',
        "unknown-field": b'{"kind": "lie_algebra", "extra": 1}',
        "missing-space": b'{"kind": "lie_algebra", "spaces": {}}',
        "long-int": lie(long_int, "[]"),
        "dim": lie("-1", "[]"),
        "not-a-pair": lie("2", '[[[0, 1, 1]]]'),
        "out-of-range": lie("2", '[[[0, 1, 2], "1"]]'),
        "duplicate": lie("2", '[[[0, 1, 1], "1"], [[0, 1, 1], "1"]]'),
        "literal": lie("2", '[[[0, 1, 1], "1/0"]]'),
        "not-antisymmetric": lie("2", '[[[0, 1, 1], "1"]]'),
        # the first bracket is not antisymmetric, the second is
        "repeated-key": lie("2", '[[[0, 1, 1], "1"], [[1, 0, 1], "1"]], '
                                 '"bracket": [[[0, 1, 1], "1"], [[1, 0, 1], "-1"]]'),
    }


def run_cli(seeds: int) -> int:
    """Run every CLI command of the census; return the number of documents."""
    from l2b import catalog, cli
    from l2b.documents import DUALIZATIONS, METHODS

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        out = os.path.join(tmp, "out")
        docs = []
        cli.main(["catalog", "list"])
        for entry in catalog.entries():
            path = os.path.join(tmp, f"{entry.name}.json")
            shown = io.StringIO()
            with contextlib.redirect_stdout(shown):
                cli.main(["catalog", "show", entry.name])
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(shown.getvalue())
            docs.append(path)
        for family in catalog.FAMILIES:
            for seed in range(seeds):
                for flag in ([], ["--perturbed"]):
                    path = os.path.join(tmp, f"{family.replace(':', '-')}-{seed}{''.join(flag)}.json")
                    if cli.main(["gen", "--family", family, "--seed", str(seed), *flag,
                                 "--out", path]) == 0:
                        docs.append(path)
        for path in docs:
            for method in METHODS:
                cli.main(["verify", path, "--method", method, "--out", out])
            for which in DUALIZATIONS:
                cli.main(["dualize", path, "--which", which, "--out", out])
        for name, data in refusals().items():
            path = os.path.join(tmp, f"refusal-{name}.json")
            with open(path, "wb") as fh:
                fh.write(data)
            code = cli.main(["verify", path, "--out", out])
            if code != 2:
                raise RuntimeError(f"refusal document {name!r} exited {code}, not 2")
    return len(docs)


def census(seeds: int):
    """The never-entered kernel functions, the number of documents run and
    the number of kernel functions.  The hook is on before ``l2b`` is
    imported, so that what an import runs counts as entered."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(code_key(frame.f_code))

    sys.setprofile(hook)
    try:
        count = run_cli(seeds)
    finally:
        sys.setprofile(None)
    functions = kernel_functions()
    return [row for row in functions if row[3] not in entered], count, len(functions)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5, help="gen seeds 0..N-1 (default 5)")
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    missed, docs, total = census(args.seeds)
    dt = time.perf_counter() - t0
    print(f"{docs} documents, seeds 0-{args.seeds - 1}, in {dt:.1f}s: "
          f"{len(missed)} of {total} kernel functions never entered")
    for module, qualname, lines, _ in missed:
        print(f"  {module.removeprefix('l2b.')}.{qualname}  {lines}")
    print(f"never entered: {sum(row[2] for row in missed)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's tracer patches l2b functions and classes by name.

`bench/tracing.py` lists them in ``TIMED`` and ``COUNTED``; a renamed or
deleted kernel name makes ``Tracer.install`` fail, so every listed name
must still resolve in its module.
"""

import importlib
import importlib.util
from pathlib import Path

import l2b.documents  # noqa: F401  (imports every kernel module)


def _tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _tracing()
    for stem, (module, names) in tracing.TIMED.items():
        home = importlib.import_module(f"l2b.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), (stem, name)
    for stem, (module, cls_name) in tracing.COUNTED.items():
        cls = getattr(importlib.import_module(f"l2b.{module}"), cls_name, None)
        assert cls is not None and "__post_init__" in cls.__dict__, stem


def test_tracer_installs_and_restores():
    tracing = _tracing()
    home = importlib.import_module("l2b.bicross")
    original = home.cross_check
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert home.cross_check is not original
    finally:
        tracer.uninstall()
    assert home.cross_check is original

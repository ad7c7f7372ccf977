"""Spans and construction counts around l2b's public functions.

`Tracer.install` replaces each listed function by a timing wrapper in every
l2b module that binds it (``from .liecore import verify_lie`` gives
``twoterm`` its own binding), and wraps ``__post_init__`` of the counted
classes.  Spans are kept in memory as ``[name, start, end, parent]`` and
written out at the end; a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

# metric stem -> (module, functions); self time and calls are reported per stem
TIMED = {
    "documents.parse": ("documents", ("parse_document",)),
    "documents.build": (
        "documents",
        ("build_lie_algebra", "build_bialgebra", "build_crossed_module", "build_weak_lie2",
         "build_lie2_bialgebra", "build_dvb", "build_matched_pair"),
    ),
    "documents.run_verifier": ("documents", ("run_verifier",)),
    "documents.serialize": ("documents", ("serialize_report", "serialize_document")),
    "bicross.cross_check": ("bicross", ("cross_check",)),
    "bicross.def": ("bicross", ("verify_l2b_def",)),
    "bicross.matched": ("bicross", ("verify_l2b_matched",)),
    "bicross.weil": ("bicross", ("verify_l2b_weil",)),
    "bicross.matched_pair": ("bicross", ("verify_matched_pair",)),
    "bicross.induced_cobracket": ("bicross", ("induced_cobracket",)),
    "weil.gerst_axioms": ("weil", ("check_gerst_axioms",)),
    "weil.derivation": ("weil", ("check_derivation_of_bracket",)),
    "weil.square_zero": ("weil", ("check_square_zero",)),
    "weil.commutator": ("weil", ("graded_commutator",)),
    "weil.weak_lie2": ("weil", ("verify_weak_lie2",)),
    "twoterm.verify_cm": ("twoterm", ("verify_cm",)),
    "twoterm.gamma_total": ("twoterm", ("gamma_total",)),
    "liecore.verify_lie": ("liecore", ("verify_lie",)),
    "liecore.verify_rep": ("liecore", ("verify_rep",)),
    "liecore.verify_cocycle": ("liecore", ("verify_cocycle",)),
    "catalog.gen": ("catalog", ("gen_document",)),
    "catalog.perturb": ("catalog", ("perturb_document",)),
    "catalog.transform": ("catalog", ("transform_lie", "transform_cm", "transform_l2b")),
}
COUNTED = {
    "weil.element_count": ("weil", "WeilElement"),
    "exact.tensor_count": ("exact", "SparseTensor"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.paused = False
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # --- recording -----------------------------------------------------------

    @contextlib.contextmanager
    def record(self, name: str):
        """Record one span around the block."""
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            with self.record(name):
                return fn(*args, **kwargs)

        return traced

    def _counter(self, name: str, post_init):
        counts = self.counts

        def counted(obj):
            if not self.paused:
                counts[name] += 1
            post_init(obj)

        return counted

    # --- patching ------------------------------------------------------------

    def install(self):
        mods = [m for key, m in sys.modules.items() if key == "l2b" or key.startswith("l2b.")]
        for stem, (module, names) in TIMED.items():
            home = sys.modules[f"l2b.{module}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(stem, original)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        for name, (module, cls_name) in COUNTED.items():
            cls = getattr(sys.modules[f"l2b.{module}"], cls_name)
            original = cls.__dict__["__post_init__"]
            self._patches.append((cls, "__post_init__", original))
            cls.__post_init__ = self._counter(name, original)

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # --- results -------------------------------------------------------------

    def self_times(self, first: int, last: int) -> tuple[dict, dict]:
        """Self time and call count per span name, over spans[first:last]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans[first:last]:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for pos in range(first, last):
            name, start, end, _ = self.spans[pos]
            total[name] += end - start - child[pos]
            calls[name] += 1
        return total, calls

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


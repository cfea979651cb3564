"""Span tracing of fbmbt's public functions, from outside the package.

``Tracer`` wraps the public functions of each package module and records a
span per call: run id, span id, parent span id, name, start and end.  Spans
are kept in memory; ``summary`` turns them into per-name call counts, total
and self time, where self time is a span's duration minus the durations of
its child spans (calls are single-threaded, so children never overlap).

Wrapping replaces every binding of a target in the loaded ``fbmbt``
modules, so the names that ``calculus`` and ``scaling`` import with
``from .fgn import ...`` are traced at their call sites, not only in the
defining module.  Private helpers (``_scan_crossings``,
``_sample_fgn_embedding``, ...) are never wrapped: they are expected to be
replaced, and the benchmark must keep working when they are.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

MB = float(2**20)


def _arguments(sig, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_fbm(tracer, result, arguments):
    counters = tracer.counters
    counters["fgn.sample_fbm.increments"] += 2 * result.half_extent
    counters["fgn.sample_fbm.mb_computed"] += (2 * result.half_extent + 1) * 8 / MB
    if result.hurst.value == 0.5:
        counters["fgn.wiener.calls"] += 1
    if result.method == "cholesky":
        counters["fgn.cholesky_fallbacks"] += 1


def _count_skeleton(tracer, result, arguments):
    counters = tracer.counters
    counters["skeleton.path_samples"] += len(arguments()["path"].values)
    counters["skeleton.steps_built"] += result.n_steps
    counters["skeleton.steps_needed"] += \
        math.floor(2.0**result.level * tracer.t + 1e-9)


def _count_direct_terms(tracer, result, arguments):
    tracer.counters["variations.symmetric_direct.terms"] += \
        len(arguments()["z_values"]) - 1


def _count_power_terms(tracer, result, arguments):
    args = arguments()
    tracer.counters["scaling.power_variation.terms"] += \
        math.floor(2.0**args["level"] * args["t"] + 1e-9)


# (module, attribute, span name, counter) for module-level functions.  A
# counter gets the tracer, the call's result and a function returning the
# call's arguments by parameter name.
FUNCTIONS = [
    ("fbmbt.fgn", "sample_fbm_two_sided", "fgn.sample_fbm", _count_fbm),
    ("fbmbt.fgn", "sample_bm", "fgn.sample_bm", None),
    ("fbmbt.fgn", "extend_bm", "fgn.extend_bm", None),
    ("fbmbt.skeleton", "build_skeleton", "skeleton.build", _count_skeleton),
    ("fbmbt.variations", "symmetric_variation_direct",
     "variations.symmetric_direct", _count_direct_terms),
    ("fbmbt.scaling", "power_variation", "scaling.power_variation",
     _count_power_terms),
    ("fbmbt.calculus", "sample_joint", "calculus.sample_joint", None),
    ("fbmbt.stats", "ks_two_sample", "stats.ks", None),
    ("fbmbt.stats", "ks_one_sample_normal", "stats.ks", None),
    ("fbmbt.stats", "fit_log2_slope", "stats.summary", None),
]

# (module, class, attribute, span name) for methods, wrapped on the class.
METHODS = [
    ("fbmbt.streams", "SeedRecord", "generator", "streams.generator"),
    ("fbmbt.stats", "SampleSummary", "from_samples", "stats.summary"),
]


class Tracer:
    """Installs span-recording wrappers; use as a context manager.

    ``t`` is the workload horizon, needed to count the skeleton steps a
    level-n build must provide (``floor(2^n t)``).
    """

    def __init__(self, t: float):
        self.t = t
        self.spans = []  # (run_id, span_id, parent_id, name, start, end)
        self.counters = defaultdict(float)
        self.unwrapped = []  # targets absent from the package
        self.run_id = 0
        self._stack = []
        self._next_id = 0
        self._patches = []  # (owner, attribute, original value)

    # -- spans ------------------------------------------------------------

    def _begin(self) -> tuple:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _end(self, sid: int, parent, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((self.run_id, sid, parent, name, start, end))

    @contextmanager
    def span(self, name: str):
        sid, parent = self._begin()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._end(sid, parent, name, start)

    def wrap(self, fn, name: str, counter=None):
        sig = inspect.signature(fn)

        # The span is opened inline rather than through span(): wrappers run
        # ~40k times per subcritical call, and a generator-based context
        # manager costs more per call.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._begin()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(sid, parent, name, start)
            if counter is not None:
                counter(self, result, lambda: _arguments(sig, args, kwargs))
            return result

        traced.__perfbench_original__ = fn
        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        self.unwrapped = []
        modules = {n: importlib.import_module(n)
                   for n, *_ in FUNCTIONS + METHODS}
        packages = [m for n, m in sorted(sys.modules.items())
                    if n == "fbmbt" or n.startswith("fbmbt.")]
        for mod_name, attr, name, counter in FUNCTIONS:
            original = getattr(modules[mod_name], attr, None)
            if original is None:
                self.unwrapped.append(f"{mod_name}.{attr}")
                continue
            wrapper = self.wrap(original, name, counter)
            for module in packages:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, binding, original))
                        setattr(module, binding, wrapper)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(modules[mod_name], cls_name)
            descriptor = vars(cls).get(attr)
            if descriptor is None:
                self.unwrapped.append(f"{mod_name}.{cls_name}.{attr}")
                continue
            self._patches.append((cls, attr, descriptor))
            if isinstance(descriptor, classmethod):
                setattr(cls, attr, classmethod(self.wrap(descriptor.__func__, name)))
            else:
                setattr(cls, attr, self.wrap(descriptor, name))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        child_time = defaultdict(float)
        for _run, _sid, parent, _name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for _run, sid, _parent, name, start, end in self.spans:
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        return dict(out)

    def write(self, file) -> None:
        """Write every span as one JSON line."""
        with open(file, "w", encoding="utf-8") as fh:
            for run, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"run": run, "span": sid, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")


def is_wrapped(fn) -> bool:
    """True when ``fn`` is a tracing wrapper."""
    return hasattr(getattr(fn, "__func__", fn), "__perfbench_original__")

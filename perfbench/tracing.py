"""Per-layer tracing from outside the library.

The traced run replaces quatype entry points, under the names their callers
look them up by, with wrappers that record a span per call: its kind, its
parent span, and its start and end.  Spans stay in memory and are written
out when the run ends.  Per-layer metrics are aggregated from the spans as
they close:

* ``*_calls`` and the other counts are exact and repeat run to run;
* ``*_self_s`` is a span's duration minus the time its child spans cover,
  including the wrappers' own bookkeeping, so self times add up;
* the other ``*_s`` metrics are inclusive durations.

A target that no longer exists fails loudly (:class:`MissingTarget`), so a
later refactor shows up as a benchmark to update, never as a layer that
silently reads zero.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

INT64_UNSAFE = 1 << 62  # a product whose coefficient bound reaches this may overflow int64


class MissingTarget(RuntimeError):
    """A wrapped entry point is gone from the library."""


class _Frame:
    __slots__ = ("kind", "index", "covered", "dense")

    def __init__(self, kind: str, index: int):
        self.kind = kind
        self.index = index
        self.covered = 0.0
        self.dense = None


class Tracer:
    def __init__(self):
        self.kinds: list[str] = []
        self._kind_ids: dict[str, int] = {}
        self.stack: list[_Frame] = []
        self.reset()

    def reset(self) -> None:
        """Drop the spans and counters of the previous pass."""
        self.span_kind = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, int] = {}
        self.times: dict[str, float] = {}
        self.series_depth = 0

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def add_time(self, key: str, dt: float) -> None:
        self.times[key] = self.times.get(key, 0.0) + dt

    def wrap(self, kind: str, fn, fold: bool = False, before=None, after=None):
        """A wrapper recording a ``kind`` span around each call of ``fn``.

        With ``fold``, a call made while a span of the same kind is open is
        part of that span (recursion, ``a - b`` calling ``-b`` and ``+``).
        ``before(frame, args)`` runs ahead of the call and ``after(frame,
        args, result, error)`` after it, both outside the measured interval.
        """
        if kind not in self._kind_ids:
            self._kind_ids[kind] = len(self.kinds)
            self.kinds.append(kind)
        kind_id = self._kind_ids[kind]
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if fold and stack and stack[-1].kind == kind:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            frame = _Frame(kind, len(tracer.span_kind))
            parent = stack[-1].index if stack else -1
            if before is not None:
                before(frame, args)
            stack.append(frame)
            error = None
            t1 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                t2 = perf_counter()
                stack.pop()
                tracer.span_kind.append(kind_id)
                tracer.span_parent.append(parent)
                tracer.span_start.append(t1)
                tracer.span_end.append(t2)
                tracer.count(kind + ".calls")
                tracer.add_time(kind + ".total", t2 - t1)
                tracer.add_time(kind + ".self", t2 - t1 - frame.covered)
                if after is not None:
                    after(frame, args, None if error else result, error)
                if stack:
                    stack[-1].covered += perf_counter() - t0
            return result

        return wrapper

    def write(self, path) -> None:
        """Write the last pass's spans as JSON: kinds plus one row per span."""
        rows = [
            [self.kinds[k], p, round(s, 9), round(e, 9)]
            for k, p, s, e in zip(self.span_kind, self.span_parent, self.span_start, self.span_end)
        ]
        with open(path, "w") as fh:
            json.dump({"columns": ["kind", "parent", "start_s", "end_s"], "spans": rows}, fh)


# ---------------------------------------------------------------------------
# what gets wrapped


def _product_hooks(tracer: Tracer, exact_cls):
    def before(frame, args):
        a, b = args
        if tracer.series_depth:
            tracer.count("powers.series_products")
        tracer.count("algebra.blade_pairs", len(a) * len(b))
        if isinstance(a, exact_cls) and len(a) and len(b):
            if a.max_abs() * b.max_abs() * min(len(a), len(b)) >= INT64_UNSAFE:
                tracer.count("algebra.int64_unsafe_products")

    def after(frame, args, result, error):
        path = "sparse" if frame.dense is None else "dense_int" if frame.dense == "int64" else "dense_float"
        tracer.count(f"algebra.{path}_products")

    return before, after


def _kernel_hooks(tracer: Tracer):
    def before(frame, args):
        ia, va, ib = args[0], args[1], args[2]
        tracer.stack[-1].dense = str(va.dtype) if tracer.stack else None
        tracer.count("accel.kernel_pairs", len(ia) * len(ib))

    def after(frame, args, result, error):
        if result is not None:
            tracer.count("accel.output_nonzero", int(np.count_nonzero(result)))
            tracer.count("accel.output_slots", len(result))

    return before, after


def _series_hooks(tracer: Tracer):
    def before(frame, args):
        tracer.series_depth += 1

    def after(frame, args, result, error):
        tracer.series_depth -= 1
        if error is not None:
            tracer.count("powers.series_errors")

    return before, after


def _sample_after(tracer: Tracer):
    def after(frame, args, result, error):
        if result is not None:
            tracer.count("qtypes.sample_terms", len(result))

    return after


def _defining_class(cls, name: str):
    for klass in cls.__mro__:
        if name in vars(klass):
            return None if klass is object else klass
    return None


@contextmanager
def installed(tracer: Tracer):
    """Wrap the library's entry points for the duration of the block."""
    import quatype._accel as accel
    import quatype.dsl as dsl
    from quatype.algebra import ApproxMultivector, Multivector

    module_targets = {
        "dsl.parse": (dsl, "parse", {"fold": True}),
        "dsl.infer": (dsl, "infer", {"fold": True}),
        "dsl.check": (dsl, "check", {}),
        "qtypes.sample": [(dsl, "random_of_type", {}), (dsl, "random_of_rank", {})],
        "qtypes.classify": [(dsl, "qtype_of", {}), (dsl, "qtype_of_approx", {})],
        "brackets.kfold": (dsl, "kfold", {}),
        "powers.series": (dsl, "series_fn", {}),
        "powers.ext": [(dsl, "ext_series_fn", {}), (dsl, "ext_power", {})],
        "accel.kernel": (accel, "product_dense", {}),
    }
    product_before, product_after = _product_hooks(tracer, Multivector)
    kernel_before, kernel_after = _kernel_hooks(tracer)
    series_before, series_after = _series_hooks(tracer)
    hooks = {
        "qtypes.sample": {"after": _sample_after(tracer)},
        "powers.series": {"before": series_before, "after": series_after},
        "accel.kernel": {"before": kernel_before, "after": kernel_after},
    }

    patches = []  # (owner, attribute, replacement)
    for kind, entries in module_targets.items():
        for owner, name, opts in entries if isinstance(entries, list) else [entries]:
            if not hasattr(owner, name):
                raise MissingTarget(f"{owner.__name__}.{name} is gone; update perfbench/tracing.py")
            patches.append((owner, name, tracer.wrap(kind, getattr(owner, name), **opts, **hooks.get(kind, {}))))

    multivector_targets = {
        "__init__": ("algebra.construct", {"fold": True}),
        "__mul__": ("algebra.product", {}),
        "__xor__": ("algebra.product", {}),
        "__add__": ("algebra.addsub", {"fold": True}),
        "__sub__": ("algebra.addsub", {"fold": True}),
        "__neg__": ("algebra.addsub", {"fold": True}),
    }
    mv_classes = (Multivector, ApproxMultivector)
    seen = set()
    for cls in mv_classes:
        for name, (kind, opts) in multivector_targets.items():
            owner = _defining_class(cls, name)
            if owner is None:
                raise MissingTarget(f"{cls.__name__}.{name} is gone; update perfbench/tracing.py")
            if (owner, name) in seen:
                continue
            seen.add((owner, name))
            original = vars(owner)[name]
            if name == "__mul__":
                # a product when the other operand is a multivector, else a scaling
                product = tracer.wrap(kind, original, before=product_before, after=product_after)
                scale = tracer.wrap("algebra.scale", original)

                def dispatch(self, other, _product=product, _scale=scale):
                    return (_product if isinstance(other, mv_classes) else _scale)(self, other)

                patches.append((owner, name, dispatch))
            elif kind == "algebra.product":
                patches.append((owner, name, tracer.wrap(kind, original, before=product_before, after=product_after)))
            else:
                patches.append((owner, name, tracer.wrap(kind, original, **opts)))

    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield tracer
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of the last pass, by BENCHMARK.json name."""
    c = tracer.counts.get
    t = tracer.times.get
    slots = c("accel.output_slots", 0)
    return {
        "dsl.parse_calls": c("dsl.parse.calls", 0),
        "dsl.parse_s": t("dsl.parse.total", 0.0),
        "dsl.infer_calls": c("dsl.infer.calls", 0),
        "dsl.infer_s": t("dsl.infer.total", 0.0),
        "dsl.check_calls": c("dsl.check.calls", 0),
        "dsl.check_self_s": t("dsl.check.self", 0.0),
        "qtypes.sample_calls": c("qtypes.sample.calls", 0),
        "qtypes.sample_s": t("qtypes.sample.total", 0.0),
        "qtypes.sample_terms": c("qtypes.sample_terms", 0),
        "qtypes.classify_calls": c("qtypes.classify.calls", 0),
        "qtypes.classify_s": t("qtypes.classify.total", 0.0),
        "algebra.construct_calls": c("algebra.construct.calls", 0),
        "algebra.construct_s": t("algebra.construct.total", 0.0),
        "algebra.products": c("algebra.product.calls", 0),
        "algebra.product_self_s": t("algebra.product.self", 0.0),
        "algebra.blade_pairs": c("algebra.blade_pairs", 0),
        "algebra.sparse_products": c("algebra.sparse_products", 0),
        "algebra.dense_int_products": c("algebra.dense_int_products", 0),
        "algebra.dense_float_products": c("algebra.dense_float_products", 0),
        "algebra.int64_unsafe_products": c("algebra.int64_unsafe_products", 0),
        "algebra.addsub_calls": c("algebra.addsub.calls", 0),
        "algebra.addsub_s": t("algebra.addsub.total", 0.0),
        "accel.kernel_calls": c("accel.kernel.calls", 0),
        "accel.kernel_s": t("accel.kernel.total", 0.0),
        "accel.kernel_pairs": c("accel.kernel_pairs", 0),
        "accel.output_fill": c("accel.output_nonzero", 0) / slots if slots else 0.0,
        "brackets.kfold_calls": c("brackets.kfold.calls", 0),
        "brackets.kfold_self_s": t("brackets.kfold.self", 0.0),
        "powers.series_calls": c("powers.series.calls", 0),
        "powers.series_self_s": t("powers.series.self", 0.0),
        "powers.series_products": c("powers.series_products", 0),
        "powers.series_errors": c("powers.series_errors", 0),
        "powers.ext_calls": c("powers.ext.calls", 0),
        "powers.ext_self_s": t("powers.ext.self", 0.0),
    }

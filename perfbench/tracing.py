"""Spans around the public functions of each nevlab module, from outside.

The traced run patches nevlab's module attributes and class methods with
thin wrappers that open a span (name, start, end, parent, op index), keep it
in memory and fold it into per-name call counts and self time (a span's
duration minus the time its child spans cover).  A function that nevlab no
longer defines is reported as absent, never as 0.  `restore()` puts every
original back, so an untraced pass can run in the same process.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

SPAN_CAP = 100_000  # spans kept for the trace file; aggregates see all


class Tracer:
    """Span stack plus per-name aggregates; single-threaded by design."""

    def __init__(self, span_cap: int = SPAN_CAP):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.counters: Dict[str, int] = {}
        self.op = -1
        self.view_depth = 0
        self._stack: List[list] = []  # [name id, start, child time, span]
        self.span_cap = span_cap
        self.dropped = 0
        self._sp_name, self._sp_parent, self._sp_op = \
            array("i"), array("i"), array("i")
        self._sp_start, self._sp_end = array("d"), array("d")

    def name_id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return sid

    def count(self, name: str, k: int = 1):
        self.counters[name] = self.counters.get(name, 0) + k

    def enter(self, sid: int):
        span = -1
        if len(self._sp_name) < self.span_cap:
            span = len(self._sp_name)
            self._sp_name.append(sid)
            self._sp_parent.append(self._stack[-1][3] if self._stack else -1)
            self._sp_op.append(self.op)
            self._sp_start.append(0.0)
            self._sp_end.append(0.0)
        else:
            self.dropped += 1
        t = time.perf_counter()
        if span >= 0:
            self._sp_start[span] = t
        self._stack.append([sid, t, 0.0, span])

    def exit(self):
        t = time.perf_counter()
        sid, start, child, span = self._stack.pop()
        dur = t - start
        self.calls[sid] += 1
        self.self_s[sid] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if span >= 0:
            self._sp_end[span] = t

    def span_count(self) -> int:
        return len(self._sp_name) + self.dropped

    def write(self, path: str, extra: dict):
        """Write the kept spans (columnar) and the aggregates as JSON."""
        body = {"names": self.names,
                "spans": {"name": self._sp_name.tolist(),
                          "parent": self._sp_parent.tolist(),
                          "op": self._sp_op.tolist(),
                          "start": self._sp_start.tolist(),
                          "end": self._sp_end.tolist()},
                "dropped": self.dropped,
                "aggregates": {n: {"calls": self.calls[i],
                                   "self_s": self.self_s[i]}
                               for i, n in enumerate(self.names)},
                "counters": self.counters, **extra}
        with open(path, "w") as fh:
            json.dump(body, fh)


# ---------------------------------------------------------------------------
# what is wrapped
# ---------------------------------------------------------------------------

# (span name, module, owner attribute or None, function attribute, hook)
# owner None: a module-level function, patched in every nevlab module that
# imported it by name (qops imports slicing._scaled_slogdet that way).
VIEW_CLASSES = ("ConstantLineView", "RationalLineView", "PochhammerLineView",
                "ProductLineView", "QuotientLineView",
                "FormCompositionLineView", "MonomialDeterminantLineView",
                "DeterminantLineView")
SLICE_CLASSES = ("RationalSlice", "ProductEntireSlice", "ProductSlice",
                 "QuotientSlice", "CompositionSlice")
ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
         "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__")
HARNESSES = ("verify_cartan_smt", "verify_hsmt_weil",
             "verify_hypersurface_smt", "gundersen_hayman_identity")

TARGETS: List[Tuple[str, str, Optional[str], str, str]] = (
    [(f"slicing.{c}.log_values", "slicing", c, "log_values", "view")
     for c in VIEW_CLASSES]
    + [("slicing.scaled_slogdet", "slicing", None, "_scaled_slogdet",
        "matrices"),
       ("slicing.tropical_slogdet", "slicing", None, "_tropical_slogdet", "")]
    + [(f"nevcore.{f}", "nevcore", None, f, "")
       for f in ("counting", "proximity", "characteristic",
                 "characteristic_function", "circle_mean_log")]
    + [("funcspace.line_view", "funcspace", c, "line_view", "")
       for c in SLICE_CLASSES]
    + [(f"funcspace.{f}", "funcspace", None, f, "")
       for f in ("check_general_position", "quotient_dim")]
    + [("roots.univariate_roots", "roots", None, "univariate_roots", "")]
    + [(f"qops.{f}", "qops", None, f, "")
       for f in ("casorati", "casorati_monomials", "linear_nondegeneracy",
                 "algebraic_nondegeneracy")]
    + [(f"filtration.{f}", "filtration", None, f, "")
       for f in ("build_filtration", "hilbert_stabilization")]
    + [("linalg.SparseEchelon.add", "linalg", "SparseEchelon", "add",
        "rank")]
    + [(f"polynomials.{f}", "polynomials", None, f, "")
       for f in ("poly_gcd", "try_divide")]
    + [("polynomials.RationalFunction.arith", "polynomials",
        "RationalFunction", a, "") for a in ARITH]
    + [("polynomials.Polynomial.restrict_numeric", "polynomials",
        "Polynomial", "restrict_numeric", "")]
    + [(f"verifier.{f}", "verifier", None, f, "") for f in HARNESSES]
    + [("serialize.load_run_config", "serialize", None, "load_run_config",
        ""),
       ("cli.main", "cli", None, "main", "")])

# counted in their own pass: millions of calls per op would swamp the
# self time of every other layer
COUNT_ONLY = [("rationals.GaussianRational.arith", "rationals",
               "GaussianRational", a) for a in ARITH]


def _nevlab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "nevlab"
                                  or name.startswith("nevlab."))]


def _span_wrapper(tracer: Tracer, sid: int, fn: Callable, hook: str):
    enter, exit_ = tracer.enter, tracer.exit
    if hook == "view":
        def wrapped(self, u, *args, **kwargs):
            if tracer.view_depth == 0:
                tracer.count("nevcore.nodes", int(np.size(u)))
            tracer.view_depth += 1
            enter(sid)
            try:
                return fn(self, u, *args, **kwargs)
            finally:
                exit_()
                tracer.view_depth -= 1
    elif hook == "matrices":
        def wrapped(logm, *args, **kwargs):
            shape = np.shape(logm)
            tracer.count("slicing.scaled_slogdet.matrices",
                         int(np.prod(shape[:-2], dtype=np.int64)))
            enter(sid)
            try:
                return fn(logm, *args, **kwargs)
            finally:
                exit_()
    elif hook == "rank":
        def wrapped(*args, **kwargs):
            enter(sid)
            try:
                grew = fn(*args, **kwargs)
            finally:
                exit_()
            if grew:
                tracer.count("linalg.SparseEchelon.add.rank_increases")
            return grew
    else:
        def wrapped(*args, **kwargs):
            enter(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
    wrapped.__wrapped__ = fn
    return wrapped


def _count_wrapper(tracer: Tracer, name: str, fn: Callable):
    counters = tracer.counters
    counters.setdefault(name, 0)

    def wrapped(*args, **kwargs):
        counters[name] += 1
        return fn(*args, **kwargs)
    wrapped.__wrapped__ = fn
    return wrapped


class Instrumentation:
    """The wrappers for one tracer, resolved once; `install()` patches them
    in and `restore()` puts back exactly what `install()` replaced."""

    def __init__(self, tracer: Tracer, count_only: bool = False):
        self._patches: List[Tuple[object, str, Callable]] = []
        self._undo: List[Tuple[object, str, object]] = []
        modules = {}
        for mod in {t[1] for t in TARGETS + COUNT_ONLY}:
            try:  # the CLI imports some modules only for ops that use them
                modules[mod] = importlib.import_module("nevlab." + mod)
            except ImportError:
                pass  # a module nevlab no longer has: its targets are absent
        found = set()
        for name, mod, owner, attr, hook in (
                [t + ("count",) for t in COUNT_ONLY] if count_only
                else TARGETS):
            module = modules.get(mod)
            if owner is None:
                fn = getattr(module, attr, None)
                holders = [(m, k) for m in _nevlab_modules()
                           for k, v in vars(m).items() if v is fn] \
                    if fn is not None else []
            else:
                cls = getattr(module, owner, None)
                fn = cls.__dict__.get(attr) if cls is not None else None
                holders = [(cls, attr)] if fn is not None else []
            if not holders:
                continue
            found.add(name)
            wrapped = _count_wrapper(tracer, name, fn) if count_only else \
                _span_wrapper(tracer, tracer.name_id(name), fn, hook)
            self._patches += [(obj, key, wrapped) for obj, key in holders]
        names = {t[0] for t in (COUNT_ONLY if count_only else TARGETS)}
        self.absent = sorted(names - found)

    def install(self):
        for obj, key, wrapped in self._patches:
            self._undo.append((obj, key, getattr(obj, key)))
            setattr(obj, key, wrapped)

    def restore(self):
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def per_layer_values(spec: List[Tuple[str, str]], tracer: Tracer,
                     absent: List[str], n_ops: int,
                     extra: Dict[str, float]) -> Tuple[dict, List[str]]:
    """Values of the (name, unit) metrics in `spec`, plus the names left out
    as absent.  Calls, counts and self time are per op; ratios are over the
    pass.  A name no wrapper or counter here produces is absent."""
    agg = {n: (tracer.calls[i], tracer.self_s[i])
           for i, n in enumerate(tracer.names)}
    ctr = tracer.counters
    out: Dict[str, dict] = {}
    missing: List[str] = []
    spans = {t[0] for t in TARGETS}
    for name, unit in spec:
        span, _, field = name.rpartition(".")
        value = None
        if name in extra:
            value = extra[name]
        elif name == "slicing.tropical_fallback_ratio":
            if not {"slicing.tropical_slogdet",
                    "slicing.scaled_slogdet"} & set(absent):
                mats = ctr.get("slicing.scaled_slogdet.matrices", 0)
                value = agg.get("slicing.tropical_slogdet", (0, 0))[0] \
                    / mats if mats else 0.0
        elif name == "linalg.SparseEchelon.add.useful_ratio":
            if "linalg.SparseEchelon.add" not in absent:
                adds = agg.get("linalg.SparseEchelon.add", (0, 0))[0]
                value = ctr.get("linalg.SparseEchelon.add.rank_increases",
                                0) / adds if adds else 0.0
        elif name == "nevcore.nodes":
            if not all(f"slicing.{c}.log_values" in absent
                       for c in VIEW_CLASSES):
                value = ctr.get(name, 0) / n_ops
        elif name == "slicing.scaled_slogdet.matrices":
            if "slicing.scaled_slogdet" not in absent:
                value = ctr.get(name, 0) / n_ops
        elif name == "rationals.GaussianRational.arith.calls":
            pass  # counted in its own pass; present only via `extra`
        elif span in spans and span not in absent \
                and field in ("calls", "self_s"):
            calls, self_s = agg.get(span, (0, 0.0))
            value = (calls if field == "calls" else self_s) / n_ops
        if value is None:
            missing.append(name)
        else:
            out[name] = {"value": value, "unit": unit}
    return out, missing

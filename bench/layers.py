"""Outside-in per-layer tracing of casphere.

Each layer of casphere is represented by the entry functions that code
in other layers calls.  ``Tracer.install`` wraps each entry function and
rebinds every module-level name bound to it in the ``casphere.*``
modules, ``from``-imported copies included, so production code reaches
the wrapper without any change to casphere.  Where production calls a
private name (``_gradient_stack``), that is the name wrapped.

A wrapper records a span (layer, start, end, parent) per call into its
layer.  A call made from inside the same layer (``riccati_ik`` calling
``mod_sph_bessel``) is part of the enclosing span, not a new one.  Hot
leaves, layers with more than about 1e4 calls per op and no traced
callee, are aggregated per parent span into a call count and a total
time instead.  Spans stay in memory until ``dump``.

Self time of a span is its duration minus the time its child spans and
aggregated leaves cover.  Distinct-argument counts are taken per op
(``Tracer.op``), so ``distinct / calls`` measures repeated work inside
one public call.

If a wrapped name no longer exists, its layer is reported as missing and
none of its metrics are emitted, so a refactor never reads as zero work.
"""

import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy

LINALG_NAMES = ("inv", "solve", "eigvals", "eig", "slogdet", "det")


# ------------------------------------------------------------- arg keys

def _freeze(value):
    if isinstance(value, numpy.ndarray):
        return ("ndarray", value.shape, value.dtype.str, value.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


def raw_key(fn, args, kwargs):
    """specfun.*: the raw arguments."""
    return (fn.__name__, _freeze(args), _freeze(kwargs))


@lru_cache(maxsize=None)
def _signature(fn):
    return inspect.signature(fn)


def _bound(fn, args, kwargs):
    return _signature(fn).bind(*args, **kwargs).arguments


def translation_key(fn, args, kwargs):
    """translation.*: (l_max, kind, kappa, d up to the sign of d)."""
    a = _bound(fn, args, kwargs)
    d = [float(x) + 0.0 for x in a["displacement"]]
    lead = next((x for x in d if x != 0.0), 0.0)
    if lead < 0.0:
        d = [0.0 - x for x in d]
    return (a["basis"].l_max, a["kind"], float(a["kappa"]), tuple(d))


def mie_key(fn, args, kwargs):
    """mie.diag: (x, eps_rel, l_max)."""
    a = _bound(fn, args, kwargs)
    return (float(a["x"]), float(a["eps_rel"]), a["basis"].l_max)


# --------------------------------------------------------------- layers

@dataclass(frozen=True)
class Layer:
    name: str
    module: str
    entries: tuple
    metrics: tuple = ("calls", "self_s")
    hot: bool = False
    key: object = None


LAYERS = (
    Layer("cli", "casphere.cli", ("main",), metrics=("self_s",)),
    Layer("spectral.quadrature", "casphere.spectral",
          ("integrate_zero_t", "matsubara_sum")),
    Layer("scattering.integrand", "casphere.scattering",
          ("force_integrand", "energy_integrand")),
    Layer("scattering.linalg", "casphere.scattering", LINALG_NAMES),
    Layer("translation.value", "casphere.translation",
          ("translation_matrix",),
          metrics=("calls", "self_s", "distinct_ratio"), key=translation_key),
    Layer("translation.gradient", "casphere.translation",
          ("_gradient_stack",),
          metrics=("calls", "self_s", "distinct_ratio"), key=translation_key),
    Layer("rotation.block", "casphere.rotation", ("rotate_block",)),
    Layer("basis.to_real", "casphere.basis", ("to_real_basis",)),
    Layer("mie.diag", "casphere.mie", ("mie_diag",),
          metrics=("calls", "self_s", "distinct_ratio"), key=mie_key),
    Layer("specfun.radial", "casphere.specfun",
          ("mod_sph_bessel", "riccati_ik"),
          metrics=("calls", "self_s", "distinct_ratio"), hot=True,
          key=raw_key),
    Layer("specfun.harmonic", "casphere.specfun", ("sph_harm",),
          metrics=("calls", "self_s", "distinct_ratio"), hot=True,
          key=raw_key),
)


def metric_names(layers=LAYERS):
    """Per-layer metric names in report order, with their units."""
    units = {"calls": "count", "self_s": "s", "distinct_ratio": "1"}
    out = [(f"{layer.name}.{m}", units[m])
           for layer in layers for m in layer.metrics]
    return out + [("trace.overhead_frac", "1")]


def replace_bindings(original, replacement, prefix="casphere"):
    """Rebind every module-level name bound to ``original`` in the
    ``prefix`` package and its submodules; returns the undo list."""
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == prefix
                                  or name.startswith(prefix + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


class _Proxy:
    """Module stand-in: chosen attributes replaced, the rest delegated."""

    def __init__(self, target, replaced):
        self._target = target
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._target, name)


# --------------------------------------------------------------- tracer

class Tracer:
    """Span recorder; see the module docstring."""

    def __init__(self, layers=LAYERS, clock=time.perf_counter):
        self.layers = layers
        self.clock = clock
        self.spans = []         # [layer, start, end, parent span or -1]
        self.hot_time = {}      # (layer, parent span) -> seconds
        self.frames = []        # (layer, span index) of active calls
        self.calls = {layer.name: 0 for layer in layers}
        self.distinct = {layer.name: 0 for layer in layers if layer.key}
        self._op_keys = {name: set() for name in self.distinct}
        self.n_ops = 0
        self.installed = []
        self.missing = []
        self._undo = []

    # ---- wrapping

    def wrap(self, layer, fn):
        """Traced stand-in for ``fn``, an entry function of ``layer``."""
        name, key, frames, clock = layer.name, layer.key, self.frames, self.clock
        calls, spans, hot_time, op_keys = (self.calls, self.spans,
                                           self.hot_time, self._op_keys)

        def traced(*args, **kwargs):
            if frames and frames[-1][0] == name:
                return fn(*args, **kwargs)
            calls[name] += 1
            if key is not None:
                op_keys[name].add(key(fn, args, kwargs))
            parent = frames[-1][1] if frames else -1
            if layer.hot:
                frames.append((name, parent))
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    frames.pop()
                    slot = (name, parent)
                    hot_time[slot] = hot_time.get(slot, 0.0) + dt
            span = [name, 0.0, 0.0, parent]
            frames.append((name, len(spans)))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                frames.pop()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _install_linalg(self, layer, module):
        wrapped = {n: self.wrap(layer, getattr(numpy.linalg, n))
                   for n in LINALG_NAMES}
        linalg = _Proxy(numpy.linalg, wrapped)
        undo = []
        for attr, value in list(vars(module).items()):
            if value is numpy:
                replacement = _Proxy(numpy, {"linalg": linalg})
            elif value is numpy.linalg:
                replacement = linalg
            elif any(value is getattr(numpy.linalg, n) for n in LINALG_NAMES):
                replacement = wrapped[value.__name__]
            else:
                continue
            setattr(module, attr, replacement)
            undo.append((module, attr, value))
        return undo

    def install(self):
        for layer in self.layers:
            try:
                module = importlib.import_module(layer.module)
            except ModuleNotFoundError:
                self.missing.append(layer.name)
                continue
            if layer.name == "scattering.linalg":
                undo = self._install_linalg(layer, module)
                if not undo:
                    self.missing.append(layer.name)
                    continue
                self._undo += undo
            else:
                fns = [getattr(module, e, None) for e in layer.entries]
                if not all(callable(fn) for fn in fns):
                    self.missing.append(layer.name)
                    continue
                for fn in fns:
                    self._undo += replace_bindings(fn, self.wrap(layer, fn))
            self.installed.append(layer)

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo = []

    @contextmanager
    def op(self):
        """Delimit one op: distinct arguments are counted within it."""
        for keys in self._op_keys.values():
            keys.clear()
        try:
            yield
        finally:
            for name, keys in self._op_keys.items():
                self.distinct[name] += len(keys)
            self.n_ops += 1

    # ---- results

    def self_times(self):
        """{layer: total self seconds} over every recorded call."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (_, parent), seconds in self.hot_time.items():
            if parent >= 0:
                covered[parent] += seconds
        out = {layer.name: 0.0 for layer in self.layers}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - covered[i]
        for (name, _), seconds in self.hot_time.items():
            out[name] += seconds
        return out

    def summary(self):
        """Totals per installed layer, plus the op count and missing layers."""
        self_s = self.self_times()
        return {"ops": self.n_ops, "missing": list(self.missing),
                "layers": {layer.name: {"calls": self.calls[layer.name],
                                        "self_s": self_s[layer.name],
                                        "distinct": self.distinct.get(
                                            layer.name)}
                           for layer in self.installed}}

    def dump(self, path):
        """Write the recorded spans and leaf aggregates as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans,
                       "leaves": [[n, p, s] for (n, p), s
                                  in self.hot_time.items()]}, fh)


def layer_metrics(summaries, overhead_frac, layers=LAYERS):
    """Per-op metrics from one or more ``Tracer.summary`` results.

    A layer missing from any summary is left out entirely.
    """
    ops = sum(s["ops"] for s in summaries)
    missing = {m for s in summaries for m in s["missing"]}
    out = {}
    for layer in layers:
        if layer.name in missing:
            continue
        calls = sum(s["layers"][layer.name]["calls"] for s in summaries)
        self_s = sum(s["layers"][layer.name]["self_s"] for s in summaries)
        values = {"calls": calls / ops, "self_s": self_s / ops}
        if layer.key is not None:
            distinct = sum(s["layers"][layer.name]["distinct"]
                           for s in summaries)
            values["distinct_ratio"] = distinct / calls if calls else 0.0
        for m in layer.metrics:
            out[f"{layer.name}.{m}"] = values[m]
    out["trace.overhead_frac"] = overhead_frac
    return out, sorted(missing)

"""In-memory span recorder for the benchmark's traced runs.

A :class:`Tracer` wraps public functions of the program from outside —
nothing under ``src/`` is edited — so every call records one span: its
name (``<layer>.<function>``), start, end, the span that caused it and
the id of the request or iteration it belongs to. Spans live in typed
arrays (30 bytes each, one set per thread) until the run ends; :meth:`Tracer.dump` writes
them out and :func:`summarize` turns them into per-layer self times.

A layer's *self time* is its spans' durations minus the part covered by
their child spans, so the self times of all layers plus the root
spans' own remainder add up to the traced wall time exactly.

Calls that nest inside a span of the same layer (``require_positive``
calling ``require_finite``, a device model calling another) are counted
but not recorded as spans of their own when the layer is marked
``collapse``: the outer span already covers their time, and the count of
spans stays proportional to layer boundaries crossed.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from array import array

import numpy as np


class Tracer:
    """Records spans from any thread.

    Each thread appends to buffers of its own (registered once, under
    a lock), so recording a span takes no lock; span ids come from one
    shared counter.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers = []
        self.counts = {}
        self.t0_ns = time.perf_counter_ns()

    # -- recording -----------------------------------------------------

    def name_id(self, name):
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def add_count(self, key, value):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def wrap(self, name, func, collapse=False, counter=None):
        """``func`` wrapped in a span named ``name``.

        ``counter(args, kwargs)`` (optional) returns ``{key: amount}``
        added to :attr:`counts` on every call, collapsed or not.
        """
        nid = self.name_id(name)
        layer = name.split(".", 1)[0]
        perf = time.perf_counter_ns
        ids = self._ids
        buffer = self._buffer
        t0 = self.t0_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if counter is not None:
                for key, value in counter(args, kwargs).items():
                    self.add_count(key, value)
            buf = buffer()
            stack = buf.stack
            calls = buf.calls
            calls[nid] = calls.get(nid, 0) + 1
            if collapse and stack and stack[-1][2] == layer:
                return func(*args, **kwargs)
            sid = next(ids)
            if stack:
                parent, req = stack[-1][0], stack[-1][1]
            else:
                parent, req = 0, sid
            stack.append((sid, req, layer))
            start = perf()
            try:
                return func(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                buf.record(sid, parent, nid, req, start - t0, end - t0)

        traced.__wrapped_by_tracer__ = func
        return traced

    def span(self, name):
        """Context manager recording one span (benchmark-side roots)."""
        return _Span(self, self.name_id(name))

    # -- output --------------------------------------------------------

    @property
    def calls(self):
        """Calls per span name, collapsed calls included."""
        total = dict.fromkeys(self.names, 0)
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            for nid, n in list(buf.calls.items()):
                total[self.names[nid]] += n
        return total

    def arrays(self):
        """Every recorded span as numpy columns."""
        with self._lock:
            buffers = list(self._buffers)
        columns = zip(*(buf.rows for buf in buffers))
        keys = ("id", "parent", "name", "req", "start_ns", "end_ns")
        out = {}
        for key, parts, code in zip(keys, columns, _TYPECODES):
            arrays = [np.frombuffer(part, dtype=part.typecode)
                      for part in parts if len(part)]
            out[key] = (np.concatenate(arrays) if arrays
                        else np.zeros(0, dtype=array(code).typecode))
        return out

    def dump(self, path):
        """Write every span, the name table, the call counts per name
        and the extra counts to ``path`` (.npz)."""
        calls = self.calls
        with self._lock:
            counts = dict(self.counts)
        np.savez_compressed(
            path, names=np.array(self.names),
            calls=np.array([calls[name] for name in self.names]),
            count_keys=np.array(list(counts), dtype=str),
            count_values=np.array(list(counts.values()), dtype=float),
            **self.arrays())


_TYPECODES = ("i", "i", "h", "i", "q", "q")


class _Buffer:
    """One thread's span stack, call counts and span columns."""

    __slots__ = ("stack", "calls", "rows")

    def __init__(self):
        self.stack = []
        self.calls = {}
        self.rows = tuple(array(code) for code in _TYPECODES)

    def record(self, *row):
        for column, value in zip(self.rows, row):
            column.append(value)


class _Span:
    __slots__ = ("tracer", "nid", "sid", "parent", "req", "start")

    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        buf = self.tracer._buffer()
        self.sid = next(self.tracer._ids)
        if buf.stack:
            self.parent, self.req = buf.stack[-1][0], buf.stack[-1][1]
        else:
            self.parent, self.req = 0, self.sid
        layer = self.tracer.names[self.nid].split(".", 1)[0]
        buf.stack.append((self.sid, self.req, layer))
        buf.calls[self.nid] = buf.calls.get(self.nid, 0) + 1
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info):
        end = time.perf_counter_ns()
        buf = self.tracer._buffer()
        buf.stack.pop()
        t0 = self.tracer.t0_ns
        buf.record(self.sid, self.parent, self.nid, self.req,
                   self.start - t0, end - t0)
        return False


# -- installing wrappers ------------------------------------------------


def _replace_everywhere(original, replacement):
    """Rebind ``original`` in every loaded ``repro`` module namespace
    (covers ``from .x import f`` copies as well as the defining
    module)."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def _own_classes(cls):
    """``cls`` and every loaded subclass, depth first."""
    seen = [cls]
    for sub in cls.__subclasses__():
        for klass in _own_classes(sub):
            if klass not in seen:
                seen.append(klass)
    return seen


def _methods(klass, method):
    """``(name, attribute)`` of the functions ``klass`` itself defines
    under ``method`` (``"*"``: every public one)."""
    for attr, value in vars(klass).items():
        if method == "*" and attr.startswith("_"):
            continue
        if method not in ("*", attr):
            continue
        if isinstance(value, (staticmethod, classmethod)) or hasattr(
                value, "__code__"):
            yield attr, value


def install(tracer, spec):
    """Wrap every target of ``spec`` (see :mod:`layers`).

    Each entry is ``(layer, module, targets, options)``; a target is a
    function name, ``Class.method``, ``Class.*`` (every public method
    the class or a loaded subclass defines) or ``prefix*`` (module
    functions starting with ``prefix``). ``options`` may set ``name``
    (the span name of a single function), ``collapse`` and ``counter``
    (see :meth:`Tracer.wrap`).
    """
    for layer, module_name, targets, options in spec:
        module = importlib.import_module(module_name)
        wrap_options = dict(collapse=options.get("collapse", False),
                            counter=options.get("counter"))
        for target in targets:
            if "." in target:
                cls_name, method = target.split(".", 1)
                for klass in _own_classes(getattr(module, cls_name)):
                    for attr, value in list(_methods(klass, method)):
                        _wrap_method(tracer, f"{layer}.{klass.__name__}."
                                     f"{attr}", klass, attr, value,
                                     wrap_options)
                continue
            if target.endswith("*"):
                names = [n for n, v in vars(module).items()
                         if n.startswith(target[:-1]) and callable(v)
                         and getattr(v, "__module__", None)
                         == module.__name__]
            else:
                names = [target]
            for fname in names:
                original = getattr(module, fname)
                if hasattr(original, "__wrapped_by_tracer__"):
                    continue
                label = options.get("name", f"{layer}.{fname}")
                _replace_everywhere(
                    original, tracer.wrap(label, original, **wrap_options))


def _wrap_method(tracer, label, klass, attr, value, wrap_options):
    descriptor = type(value) if isinstance(
        value, (staticmethod, classmethod)) else None
    func = value.__func__ if descriptor else value
    if hasattr(func, "__wrapped_by_tracer__"):
        return
    replacement = tracer.wrap(label, func, **wrap_options)
    setattr(klass, attr,
            descriptor(replacement) if descriptor else replacement)


# -- summarizing --------------------------------------------------------


def summarize(data, names, with_child=()):
    """Per-layer and per-name totals of one span dump.

    Returns ``{"layers": {layer: {"self_s", "busy_s", "spans"}},
    "names": {name: {"busy_s", "self_s", "spans", "durations_s"}},
    "with_child": {(layer, child_layer): seconds}, "spans": n}``.
    ``busy_s`` counts only spans whose parent lies in another layer, so
    it is the layer's inclusive time without double counting; each
    ``with_child`` pair sums the durations of ``layer`` spans that have
    at least one direct child span in ``child_layer``.
    """
    ids = data["id"].astype(np.int64)
    parent = data["parent"].astype(np.int64)
    name = data["name"].astype(np.int64)
    dur = (data["end_ns"] - data["start_ns"]).astype(np.float64) * 1e-9
    n = len(ids)
    layers = [nm.split(".", 1)[0] for nm in names]
    layer_names = sorted(set(layers))
    layer_index = np.array([layer_names.index(lay) for lay in layers],
                           dtype=np.int64)
    out = {"layers": {}, "names": {}, "spans": int(n),
           "with_child": {pair: 0.0 for pair in with_child}}
    if n == 0:
        return out
    pos = np.full(int(ids.max()) + 1, -1, dtype=np.int64)
    pos[ids] = np.arange(n)
    parent_pos = np.where(parent > 0, pos[np.clip(parent, 0, None)], -1)
    has_parent = parent_pos >= 0
    child = np.bincount(parent_pos[has_parent], weights=dur[has_parent],
                        minlength=n)
    self_t = dur - child
    span_layer = layer_index[name]
    parent_layer = np.where(has_parent,
                            span_layer[np.clip(parent_pos, 0, None)], -1)
    outer = parent_layer != span_layer
    for li, lay in enumerate(layer_names):
        mask = span_layer == li
        out["layers"][lay] = {
            "self_s": float(self_t[mask].sum()),
            "busy_s": float(dur[mask & outer].sum()),
            "spans": int(mask.sum()),
        }
    for lay, child_lay in with_child:
        if lay not in layer_names or child_lay not in layer_names:
            continue
        is_child = has_parent & (span_layer
                                 == layer_names.index(child_lay))
        hit = np.bincount(parent_pos[is_child], minlength=n) > 0
        mask = hit & (span_layer == layer_names.index(lay))
        out["with_child"][(lay, child_lay)] = float(dur[mask].sum())
    for ni, nm in enumerate(names):
        mask = name == ni
        out["names"][nm] = {
            "busy_s": float(dur[mask].sum()),
            "self_s": float(self_t[mask].sum()),
            "spans": int(mask.sum()),
            "durations_s": dur[mask],
        }
    return out

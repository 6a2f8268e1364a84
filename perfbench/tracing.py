"""Outside-in tracing of the spherevar modules.

The tracer wraps every public function of every ``spherevar.*`` module and
rebinds the wrapper under each name that bound the original in any
``spherevar`` namespace, because the modules import each other with
``from .x import y``. ``scipy.sparse.linalg.eigsh`` is wrapped as well and
its span is named after the module of the enclosing span, so that the
Lanczos time of ``operators`` and of ``secondvar`` show apart. Spans
(name, start, end, parent) are kept in memory; nothing is written until the
caller asks for it. ``uninstall`` restores every rebinding. ``span_cost``
times what the wrapper adds to one call, to estimate the tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import time

import scipy.sparse.linalg as spla


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_time", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.child_time = 0.0
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start


def _csr_bytes(A):
    return int(A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


def _record_index_count(span, args, kwargs, result):
    """Pencil size and Lanczos usefulness for one negative_index_count call."""
    form = args[0] if args else kwargs["form"]
    span.attrs.update(
        kind=form.kind,
        dim=int(form.Q.shape[0]),
        nnz=int(form.Q.nnz + form.M.nnz),
        bytes_computed=_csr_bytes(form.Q.tocsr()) + _csr_bytes(form.M.tocsr()),
        delta=float(result.delta),
        needed=int(result.count + result.near_zero.size),
    )


def _record_eigsh_values(span, args, kwargs, result):
    """Keep the computed eigenvalues on the span that called eigsh."""
    vals = result[0] if isinstance(result, tuple) else result
    if span.parent is not None:
        span.parent.attrs.setdefault("eigsh_vals", []).extend(float(v) for v in vals)


def _eigsh_span_name(parent):
    return f"{parent.name.split('.', 1)[0] if parent is not None else 'scipy'}.eigsh"


HOOKS = {"secondvar.negative_index_count": _record_index_count}


class Tracer:
    """Span recorder that patches spherevar in place while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _current(self):
        return self._stack[-1] if self._stack else None

    def _open(self, name):
        span = Span(name, time.perf_counter(), self._current())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.duration

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a call into a layer."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def reset(self):
        self.spans = []

    # -- patching ----------------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        """``name`` is the span name, or a function of the parent span giving it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name(self._current()) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return wrapper

    def install(self, package):
        """Wrap the public functions of every module of ``package``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {package.__name__: package}
        for info in pkgutil.iter_modules(package.__path__):
            name = f"{package.__name__}.{info.name}"
            modules[name] = importlib.import_module(name)
        wrappers = {}
        for modname, module in modules.items():
            short = modname.rsplit(".", 1)[-1]
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == modname):
                    name = f"{short}.{attr}"
                    wrappers[value] = self._wrap(name, value, HOOKS.get(name))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        self._patches.append((spla, "eigsh", spla.eigsh))
        spla.eigsh = self._wrap(_eigsh_span_name, spla.eigsh, _record_eigsh_values)

    def uninstall(self):
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches = []


def span_cost(calls=20000, repeats=5):
    """Seconds the wrapper adds to one call: wrapped minus bare no-op, best of repeats."""
    def noop():
        return None

    wrapped = Tracer()._wrap("probe.noop", noop)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, (t2 - t1) - (t1 - t0))
    return max(best, 0.0) / calls


# -- aggregation -------------------------------------------------------------

def _has_ancestor_named(span):
    p = span.parent
    while p is not None:
        if p.name == span.name:
            return True
        p = p.parent
    return False


def layer_totals(spans):
    """Per span name: calls, busy seconds (outermost spans only), self seconds."""
    totals = {}
    for s in spans:
        t = totals.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += s.duration - s.child_time
        if not _has_ancestor_named(s):
            t["busy_s"] += s.duration
    return totals


def index_totals(spans):
    """Pencil and Lanczos-usefulness figures over all negative_index_count spans."""
    out = {"busy_by_kind": {}, "needed": 0, "computed": 0, "margin": None,
           "dim": 0, "nnz": 0, "bytes_computed": 0}
    for s in spans:
        if s.name != "secondvar.negative_index_count" or "kind" not in s.attrs:
            continue
        a = s.attrs
        if not _has_ancestor_named(s):
            out["busy_by_kind"][a["kind"]] = out["busy_by_kind"].get(a["kind"], 0.0) + s.duration
        vals = a.get("eigsh_vals", [])
        out["needed"] += a["needed"]
        out["computed"] += len(vals)
        for v in vals:
            m = min(abs(v - a["delta"]), abs(v + a["delta"]))
            out["margin"] = m if out["margin"] is None else min(out["margin"], m)
        if a["dim"] > out["dim"]:
            out["dim"], out["nnz"], out["bytes_computed"] = a["dim"], a["nnz"], a["bytes_computed"]
    return out


def task_counts(spans, names):
    """Calls of each of ``names`` under every ``task.*`` root span."""
    counts = {}
    for s in spans:
        if s.name not in names:
            continue
        root = s
        while root.parent is not None:
            root = root.parent
        if root.name.startswith("task."):
            per = counts.setdefault(root.name[len("task."):], {n: 0 for n in names})
            per[s.name] += 1
    return counts


def spans_as_records(spans):
    """(name, start, end, parent index) with times relative to the first span."""
    index = {id(s): i for i, s in enumerate(spans)}
    t0 = spans[0].start if spans else 0.0
    return [
        {"name": s.name, "start": s.start - t0, "end": s.end - t0,
         "parent": index.get(id(s.parent)) if s.parent is not None else None}
        for s in spans
    ]

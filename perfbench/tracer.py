"""Outside-in tracer for the ceformality modules.

While installed, it replaces every public function of each ceformality module
(in every ``ceformality.*`` namespace that bound it, aliases included) and the
public methods of every public class with a wrapper that records a span.  A
span is (name, start, end, parent span, op id); spans and counters live in
memory, and ``write`` saves them to a JSON file.  Probes attached to a few names
add counters, such as matrix widths entering ``rref``.  Probe work runs in
its own ``trace.probe`` span, so it is not charged to any layer.

Nothing under ``src/`` is touched: ``remove`` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import weakref
from array import array
from collections import Counter

LAYERS = ("problems", "cli", "dgla", "graded", "linalg", "cecomplex", "linf",
          "specseq", "formality", "mc")

OP_SPAN = "bench.op"
PROBE_SPAN = "trace.probe"
SPAN_COLUMNS = ("name", "parent", "op", "start", "end")


def layer_of(name):
    return name.split(".", 1)[0]


class Tracer:
    """Spans and counters of one run; a context manager that installs the
    wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = Counter()
        self.op_id = -1
        self._stack = []
        self._patches = []
        self._cells_read = weakref.WeakKeyDictionary()

    # -- recording -------------------------------------------------------

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start[i] = time.perf_counter()
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def span(self, name):
        """Context manager recording one span (used for op root spans)."""
        return _Span(self, self.name_id(name))

    def wrap(self, fn, name, probe=None):
        """``fn`` inside a span; ``probe`` is (before, after) or None."""
        nid = self.name_id(name)
        probe_nid = self.name_id(PROBE_SPAN)
        before, after = probe or (None, None)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                j = tracer.open(probe_nid)
                try:
                    before(tracer, args)
                finally:
                    tracer.close(j)
            i = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                j = tracer.open(probe_nid)
                try:
                    after(tracer, args, result)
                finally:
                    tracer.close(j)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(f"ceformality.{m}") for m in LAYERS]
        originals = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    originals[id(obj)] = (obj, self.wrap(
                        obj, name, PROBES.get(name)))
                elif inspect.isclass(obj) and \
                        not issubclass(obj, BaseException):
                    self._patch_class(obj, f"{layer}.{attr}")
        # rebind every namespace that imported a wrapped function by name
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def _patch_class(self, cls, prefix):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(obj):
                self._set(cls, attr, self.wrap(obj, name, PROBES.get(name)))
            elif isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(self.wrap(
                    obj.__func__, name, PROBES.get(name))))

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- output ----------------------------------------------------------

    def write(self, prefix, extra=None):
        """Save names, counters, ``extra`` and, under ``spans``, one list
        per span column to ``<prefix>.json``.  The columns are written one
        at a time, so only one is ever held as a list."""
        head = {"names": self.names, "counters": dict(self.counters)}
        head.update(extra or {})
        with open(f"{prefix}.json", "w") as fh:
            fh.write(json.dumps(head)[:-1] + ', "spans": {')
            for k, col in enumerate(SPAN_COLUMNS):
                fh.write(f'{", " if k else ""}"{col}": ')
                json.dump(getattr(self, col).tolist(), fh)
            fh.write("}}")


class _Span:
    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.i = self.tracer.open(self.nid)

    def __exit__(self, *exc):
        self.tracer.close(self.i)
        return False


# -- derived metrics ------------------------------------------------------

def self_times(names, name, parent, start, end):
    """Self time per span name: span duration minus its children's."""
    child = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    out = Counter()
    for i, nid in enumerate(name):
        out[names[nid]] += end[i] - start[i] - child[i]
    return out


def layer_self_times(names, name, parent, start, end):
    out = Counter()
    for n, t in self_times(names, name, parent, start, end).items():
        out[layer_of(n)] += t
    return out


def outermost_inclusive(names, name, parent, start, end, target):
    """Inclusive time of spans named ``target`` not nested in another one."""
    tid = names.index(target) if target in names else -1
    total = 0.0
    for i, nid in enumerate(name):
        if nid != tid:
            continue
        p = parent[i]
        while p >= 0 and name[p] != tid:
            p = parent[p]
        if p < 0:
            total += end[i] - start[i]
    return total


def call_counts(names, name):
    counts = Counter(name)
    return {names[nid]: c for nid, c in counts.items()}


# -- probes ---------------------------------------------------------------

def _rref(tr, args, result):
    a = args[0]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    c = tr.counters
    c["linalg.rref.entries"] += rows * cols
    c["linalg.rref.max_cols"] = max(c["linalg.rref.max_cols"], cols)
    c["linalg.float_entries"] += sum(type(x) is float for row in a for x in row)


def _intersect(tr, args, result):
    if result.basis in (args[0].basis, args[1].basis):
        tr.counters["linalg.intersect.noop"] += 1


def _quotient(tr, args, result):
    q = args[0]
    tr.counters["linalg.quotient.reps"] += len(q.reps)
    tr.counters["linalg.quotient.candidates"] += len(q.z.basis)


def _page(tr, args, result):
    tr.counters["specseq.cells.built"] += len(args[0].cells)


def _page_read(tr, args, result):
    pg, p, q = args[0], args[1], args[2]
    if (p, q) in pg.cells:
        seen = tr._cells_read.setdefault(pg, set())
        if (p, q) not in seen:
            seen.add((p, q))
            tr.counters["specseq.cells.read"] += 1


def _cycle_space(tr, args):
    """cycle_space memoizes on the complex; a hit is a key already cached."""
    ftc, p, n, r = args
    if (p, n, r) in ftc.__dict__.get("_cycle_cache", {}):
        tr.counters["specseq.cycle_space.hits"] += 1


def _bicomplex(tr, args, result):
    tr.counters["cecomplex.total_dim"] += args[0].total.space.dim


def _linf_ce(tr, args, result):
    tr.counters["linf.ce_complex.total_dim"] += args[0].total.space.dim


def _power_basis(tr, args, result):
    tr.counters["graded.power_basis.elements"] += len(args[0].elements)


PROBES = {
    "linalg.rref": (None, _rref),
    "linalg.Subspace.intersect": (None, _intersect),
    "linalg.Quotient.__init__": (None, _quotient),
    "specseq.cycle_space": (_cycle_space, None),
    "specseq.SpectralPage.__init__": (None, _page),
    "cecomplex.CeBicomplex.__init__": (None, _bicomplex),
    "linf.LinfCeComplex.__init__": (None, _linf_ce),
    "graded.PowerBasis.__init__": (None, _power_basis),
}
for _m in ("dim", "differential", "representatives", "coordinates",
           "is_zero_class", "differential_is_zero"):
    PROBES[f"specseq.SpectralPage.{_m}"] = (None, _page_read)

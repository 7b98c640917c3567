"""Outside-in tracer for flagalg.

`Tracer.install()` replaces every public function of each flagalg module,
every alias of it that another module imported with `from ... import`,
and a few named methods, with a wrapper that records one span per call:
name, start, end, parent span and operation id.  The library's source is
not touched; `uninstall()` puts the originals back.

Spans are kept in memory in flat arrays and written out once, at the end
of the run (`save`).  Per-name call counts and self time (span time minus
the time covered by child spans) are accumulated as the spans close, as
are a few size and ratio counters that the wrappers read off the
arguments and results.
"""

import functools
import importlib
import json
from array import array
from time import perf_counter

import numpy as np

# module name in flagalg -> layer label (metric names start with a letter)
LAYERS = {
    "coxeter": "coxeter", "deodhar": "deodhar", "phimod": "phimod",
    "soergel": "soergel", "galgebra": "galgebra", "gradedO": "gradedO",
    "formality": "formality", "cli": "cli", "_linalg": "linalg",
}
METHODS = {
    ("galgebra", "GradedAlgebra"): ("mul_vec", "generators", "check"),
    ("formality", "BigradedDgAlgebra"): ("check", "mul_vec"),
    ("_linalg", "_Echelon"): ("reduce",),
}
ELIMINATIONS = ("linalg.mod_rref", "linalg.mod_nullspace", "linalg.mod_solve")
END_ASSEMBLY = ("soergel.endomorphism_algebra", "soergel.wall_algebra")


class _CountingJson:
    """Stands in for the `json` module inside `flagalg.cli` and counts
    the bytes of cache files it loads and dumps."""

    def __init__(self, real, tracer):
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def load(self, fh, **kw):
        self._tracer.cache_loads += 1
        out = self._real.load(fh, **kw)
        self._tracer.counters["cli.cache.bytes_read"] += fh.tell()
        return out

    def dump(self, obj, fh, **kw):
        self._real.dump(obj, fh, **kw)
        self._tracer.counters["cli.cache.bytes_written"] += fh.tell()


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.calls = []
        self.self_s = []
        self.total_s = []
        self.counters = {k: 0 for k in (
            "linalg.elim.cells", "linalg.elim.max_cells",
            "soergel.graded_hom_basis.unknowns", "compose.calls",
            "compose.nonzero", "presentation.calls", "presentation.hits",
            "cli.cache.hit", "cli.cache.miss", "cli.cache.corrupt",
            "cli.cache.bytes_read", "cli.cache.bytes_written")}
        self.cache_loads = 0
        self.op_id = -1
        self._stack = []
        self._child = []
        self._patches = []

    # -- spans ---------------------------------------------------------

    def _name_id(self, label):
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return self._ids[label]

    def parent_label(self):
        """Name of the innermost open span, or None."""
        if not self._stack:
            return None
        return self.names[self.span_name[self._stack[-1]]]

    def _wrap(self, label, fn):
        tr = self
        nid = self._name_id(label)
        before, after = self._hooks(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = before(args) if before else None
            idx = len(tr.span_start)
            tr.span_name.append(nid)
            tr.span_parent.append(tr._stack[-1] if tr._stack else -1)
            tr.span_op.append(tr.op_id)
            tr.span_end.append(0.0)
            tr._stack.append(idx)
            tr._child.append(0.0)
            t0 = perf_counter()
            tr.span_start.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr.span_end[idx] = t1
                tr._stack.pop()
                dur = t1 - t0
                tr.self_s[nid] += dur - tr._child.pop()
                tr.total_s[nid] += dur
                tr.calls[nid] += 1
                if tr._child:
                    tr._child[-1] += dur
            if after:
                after(ctx, args, out)
            return out

        return wrapper

    # -- counters read at the layer boundaries ---------------------------

    def _hooks(self, label):
        c = self.counters
        if label in ELIMINATIONS:
            def before(args):
                if self.parent_label() in ELIMINATIONS:
                    return None      # nested: counted by the outer call
                shape = np.shape(args[0])
                cells = int(np.prod(shape)) if len(shape) == 2 else 0
                c["linalg.elim.cells"] += cells
                c["linalg.elim.max_cells"] = max(c["linalg.elim.max_cells"],
                                                 cells)
            return before, None
        if label == "linalg.mod_matmul":
            def before(args):
                return self.parent_label() in END_ASSEMBLY

            def after(in_assembly, args, out):
                if in_assembly:
                    c["compose.calls"] += 1
                    c["compose.nonzero"] += bool(np.any(out))
            return before, after
        if label == "soergel.graded_hom_basis":
            def before(args):
                # one unknown per entry of a dim(N) x dim(M) matrix
                c["soergel.graded_hom_basis.unknowns"] += \
                    len(args[1].degrees) * len(args[2].degrees)
            return before, None
        if label == "galgebra.module_presentation":
            def before(args):
                c["presentation.calls"] += 1
                c["presentation.hits"] += \
                    getattr(args[0], "_presentation", None) is not None
            return before, None
        if label == "cli.cmd_endalg":
            def before(args):
                return (self.cache_loads,
                        self.calls[self._name_id(
                            "soergel.endomorphism_algebra")])

            def after(ctx, args, out):
                loaded = self.cache_loads > ctx[0]
                computed = self.calls[self._name_id(
                    "soergel.endomorphism_algebra")] > ctx[1]
                if loaded and not computed:
                    c["cli.cache.hit"] += 1
                elif loaded:
                    c["cli.cache.corrupt"] += 1
                else:
                    c["cli.cache.miss"] += 1
            return before, after
        return None, None

    # -- install / uninstall -------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        mods = {m: importlib.import_module(f"flagalg.{m}") for m in LAYERS}
        wrapped = {}    # by id: module attributes include unhashable values
        for m, mod in mods.items():
            for attr, val in vars(mod).items():
                if attr.startswith("_") or not callable(val) or \
                        isinstance(val, type) or \
                        getattr(val, "__module__", None) != mod.__name__:
                    continue
                wrapped[id(val)] = self._wrap(f"{LAYERS[m]}.{attr}", val)
        for (m, cls_name), methods in METHODS.items():
            cls = getattr(mods[m], cls_name)
            label = cls_name.lstrip("_")
            for meth in methods:
                self._patch(cls, meth, self._wrap(
                    f"{LAYERS[m]}.{label}.{meth}", vars(cls)[meth]))
        # every module attribute bound to a wrapped function: the
        # definition itself and each `from ... import` alias of it
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped:
                    self._patch(mod, attr, wrapped[id(val)])
        self._patch(mods["cli"], "json", _CountingJson(mods["cli"].json,
                                                       self))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results ---------------------------------------------------------

    def metrics(self):
        """Every per-name and per-layer figure, flat."""
        out = {}
        layer_self = {}
        for nid, label in enumerate(self.names):
            out[f"{label}.calls"] = self.calls[nid]
            out[f"{label}.self_s"] = self.self_s[nid]
            out[f"{label}.total_s"] = self.total_s[nid]
            layer = label.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + self.self_s[nid]
        for layer in LAYERS.values():
            out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
        c = self.counters
        for k in ("linalg.elim.cells", "linalg.elim.max_cells",
                  "soergel.graded_hom_basis.unknowns", "cli.cache.hit",
                  "cli.cache.miss", "cli.cache.corrupt",
                  "cli.cache.bytes_read", "cli.cache.bytes_written"):
            out[k] = c[k]
        out["soergel.compose.useful_ratio"] = \
            c["compose.nonzero"] / c["compose.calls"] \
            if c["compose.calls"] else 0.0
        out["galgebra.module_presentation.hit_ratio"] = \
            c["presentation.hits"] / c["presentation.calls"] \
            if c["presentation.calls"] else 0.0
        out["trace.spans"] = len(self.span_start)
        return out

    def save(self, path_stem, extra):
        """Write the spans (npz) and the full metric table (json)."""
        np.savez_compressed(
            f"{path_stem}.npz", names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64))
        with open(f"{path_stem}.json", "w") as fh:
            json.dump({**self.metrics(), **extra}, fh, sort_keys=True,
                      indent=1)

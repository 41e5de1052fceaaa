"""Layer spans for posetlab, recorded from outside the package.

`Tracer.install()` replaces the public functions and methods of each layer's
modules (and the few private ones where a work count is taken) with wrappers
that open a span per call, and rebinds every reference the package and the
benchmark hold to them.  `uninstall()` puts the originals back.  Nothing
under `src/` changes.

A call opens a span when it crosses into its layer from another one (or
from the benchmark); a call made from inside its own layer only counts, since
its time already falls in that layer's span.  The audit layer opens a span for
every call, so each check's time is reported.  Spans are aggregated into a
call tree keyed by the path of span names, so memory stays bounded however
many calls a pass makes; spans up to `RAW_DEPTH` levels deep are also kept
whole as (id, parent id, name, start, end).  A layer's self time is its span
time minus the time of its child spans.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
import types
from contextlib import contextmanager

LAYERS = {
    "generators": ("posetlab.generators",),
    "poset": ("posetlab.poset",),
    "complexes": ("posetlab.complexes",),
    "homology": ("posetlab.homology",),
    "linalg": ("posetlab.linalg", "posetlab._kernels"),
    # intpoly is reached only through hvectors, whose spans cover it; its
    # methods run hundreds of thousands of times per pass, so they get none.
    "hvectors": ("posetlab.hvectors",),
    "audit": ("posetlab.audit",),
    "cli": ("posetlab.cli",),
}

# Constant-time accessors called from inner loops: a span each would cost
# more than the call, so their time stays in the caller's span.
SKIP = {"FinitePoset.index", "FinitePoset.leq", "FinitePoset.lt", "ChainComplexRep.size"}

# Private names wrapped because a work count is taken there.
PRIVATE = {
    "posetlab.homology": ("_induced_report",),
    "posetlab.audit": ("_InstanceData",),
    "posetlab.cli": ("_emit",),
}

RAW_DEPTH = 3

SPAN_EVERY_CALL = {"audit"}

COUNTS = (
    "complexes.links",
    "complexes.contrastars",
    "complexes.vertex_deletions",
    "complexes.faces_listed",
    "homology.chain_complexes",
    "homology.induced_maps",
    "homology.boundary_cells",
    "linalg.eliminations",
    "linalg.cells",
    "linalg.max_cells",
    "cli.json_bytes_out",
)


def _calibration_target():
    return None


class Node:
    __slots__ = ("name", "layer", "calls", "total", "self_time", "counts", "children")

    def __init__(self, name, layer):
        self.name = name
        self.layer = layer
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counts = {}
        self.children = {}

    def to_dict(self):
        return {
            "name": self.name,
            "layer": self.layer,
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_time,
            "counts": self.counts,
            "children": [c.to_dict() for c in self.children.values()],
        }

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()


def _count(tracer, name, amount=1):
    tracer.counts[name] += amount
    node = tracer._stack[-1][0]
    node.counts[name] = node.counts.get(name, 0) + amount


# Work counts, keyed by qualified name: (before(args) -> state,
# after(tracer, args, result, state)).  `before` runs ahead of the call so it
# can tell whether a cached value is about to be built.
def _faces_before(args):
    return args[0]._faces is None


def _faces_after(tracer, args, result, fresh):
    if fresh:
        _count(tracer, "complexes.faces_listed", len(result))


def _boundary_before(args):
    return args[1] not in args[0]._boundary


def _boundary_after(tracer, args, result, fresh):
    if fresh:
        _count(tracer, "homology.boundary_cells", int(result.size))


def _rref_after(tracer, args, result, state):
    cells = int(args[0].size)
    _count(tracer, "linalg.eliminations")
    _count(tracer, "linalg.cells", cells)
    if cells > tracer.counts["linalg.max_cells"]:
        tracer.counts["linalg.max_cells"] = cells


def _simple(name):
    return None, lambda tracer, args, result, state: _count(tracer, name)


HOOKS = {
    "complexes.SimplicialComplex.link": _simple("complexes.links"),
    "complexes.SimplicialComplex.contrastar": _simple("complexes.contrastars"),
    "complexes.SimplicialComplex.delete_vertices": _simple("complexes.vertex_deletions"),
    "complexes.SimplicialComplex.faces": (_faces_before, _faces_after),
    "homology.chain_complex": _simple("homology.chain_complexes"),
    "homology.relative_chain_complex": _simple("homology.chain_complexes"),
    "homology._induced_report": _simple("homology.induced_maps"),
    "homology.ChainComplexRep.boundary": (_boundary_before, _boundary_after),
    "_kernels.rref_inplace": (None, _rref_after),
    "cli._emit": (None, lambda tracer, args, result, state: _count(tracer, "cli.json_bytes_out", len(args[0].encode()))),
}


class Tracer:
    def __init__(self):
        self.root = Node("bench", "bench")
        self.counts = dict.fromkeys(COUNTS, 0)
        self.spans = []
        self.inner_calls = dict.fromkeys(LAYERS, 0)
        self._stack = [[self.root, 0.0, 0.0, None]]
        self._next_id = 0
        self._undo = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name, layer):
        parent = self._stack[-1]
        node = parent[0].children.get(name)
        if node is None:
            node = parent[0].children[name] = Node(name, layer)
        span_id = None
        if len(self._stack) <= RAW_DEPTH:
            span_id = self._next_id
            self._next_id += 1
        self._stack.append([node, time.perf_counter(), 0.0, span_id])

    def _exit(self):
        end = time.perf_counter()
        node, start, child, span_id = self._stack.pop()
        duration = end - start
        node.calls += 1
        node.total += duration
        node.self_time += duration - child
        self._stack[-1][2] += duration
        if span_id is not None:
            self.spans.append((span_id, self._stack[-1][3], node.name, start, end))

    @contextmanager
    def span(self, name):
        """A span of the benchmark's own (layer "bench")."""
        self._enter(name, "bench")
        try:
            yield
        finally:
            self._exit()

    def _wrap(self, fn, layer, name):
        before, after = HOOKS.get(name, (None, None))
        enter, exit_ = self._enter, self._exit
        stack, inner = self._stack, self.inner_calls
        always = layer in SPAN_EVERY_CALL
        tracer = self

        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            if stack[-1][0].layer == layer and not always:
                inner[layer] += 1
                result = fn(*args, **kwargs)
            else:
                enter(name, layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    exit_()
            if after:
                after(tracer, args, result, state)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self, extra_modules=()):
        """Wrap every layer; rebind references in posetlab and `extra_modules`."""
        replaced = {}
        for layer, module_names in LAYERS.items():
            for module_name in module_names:
                module = importlib.import_module(module_name)
                short = module_name.rsplit(".", 1)[1]
                private = PRIVATE.get(module_name, ())
                for attr, obj in list(vars(module).items()):
                    if attr.startswith("_") and attr not in private:
                        continue
                    if getattr(obj, "__module__", None) != module_name:
                        continue
                    if isinstance(obj, types.FunctionType):
                        replaced[id(obj)] = self._wrap(obj, layer, f"{short}.{attr}")
                    elif isinstance(obj, type):
                        self._wrap_class(obj, layer, short, whole=attr in private)
        targets = [m for n, m in sys.modules.items() if n == "posetlab" or n.startswith("posetlab.")]
        for module in list(targets) + list(extra_modules):
            for attr, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def _wrap_class(self, cls, layer, short, whole):
        for attr, obj in list(vars(cls).items()):
            qual = f"{cls.__name__}.{attr}"
            if whole:
                if attr != "__init__":
                    continue
                name = f"{short}.{cls.__name__}"
            elif attr.startswith("_") or qual in SKIP:
                continue
            else:
                name = f"{short}.{qual}"
            if isinstance(obj, types.FunctionType):
                new = self._wrap(obj, layer, name)
            elif isinstance(obj, (classmethod, staticmethod)):
                new = type(obj)(self._wrap(obj.__func__, layer, name))
            else:
                continue
            self._undo.append((cls, attr, obj))
            setattr(cls, attr, new)

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    # -- overhead ------------------------------------------------------------

    @staticmethod
    def wrapper_costs(calls=20000, repeats=9):
        """Seconds one wrapped call adds over a bare call: (when it opens a
        span, when it is only counted).  Medians over `repeats` timed loops of
        `calls` calls each, on a throwaway tracer."""
        probe = Tracer()
        bare = _calibration_target
        wrapped = probe._wrap(bare, "poset", "poset.calibration")

        def loop(fn):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            return (time.perf_counter() - start) / calls

        span, counted = [], []
        for _ in range(repeats):
            base = loop(bare)
            span.append(loop(wrapped) - base)
            probe._enter("poset.outer", "poset")
            counted.append(loop(wrapped) - base)
            probe._exit()
        return statistics.median(span), statistics.median(counted)

    def overhead_s(self, costs):
        """The wrappers' estimated share of a traced run: spans opened and
        calls only counted, times their measured costs."""
        span_cost, count_cost = costs
        spans = sum(node.calls for node in self.root.walk() if node.layer in LAYERS)
        return spans * span_cost + sum(self.inner_calls.values()) * count_cost

    # -- results ---------------------------------------------------------------

    def layer_metrics(self):
        """Self time per layer, call counts, work counts and audit check times."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict(self.inner_calls)
        inclusive = {}
        for node in self.root.walk():
            if node.layer in self_s:
                self_s[node.layer] += node.self_time
                calls[node.layer] += node.calls
            inclusive[node.name] = inclusive.get(node.name, 0.0) + node.total
        out = {f"{layer}.self_s": value for layer, value in self_s.items()}
        out.update({f"{layer}.calls": value for layer, value in calls.items()})
        out.update(self.counts)
        out["audit.instance_data_s"] = inclusive.get("audit._InstanceData", 0.0)
        out["audit.truncation_structure_s"] = inclusive.get("audit.check_truncation_structure", 0.0)
        out["audit.basis_bound_s"] = inclusive.get("audit.check_basis_bound", 0.0)
        return out

    def to_dict(self):
        return {
            "tree": self.root.to_dict(),
            "inner_calls": self.inner_calls,
            "spans": [
                {"id": i, "parent": p, "name": n, "start": s, "end": e}
                for i, p, n, s, e in self.spans
            ],
        }

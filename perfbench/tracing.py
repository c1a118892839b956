"""In-memory spans around raagnorm's public functions, installed from outside.

Nothing under ``src/`` changes: :func:`install` wraps each traced function
and rebinds every ``raagnorm.*`` module attribute that refers to it (so
``from .x import f`` copies are caught too), and patches the traced
``FlagComplex`` methods on the class. :func:`restore` puts every original
back. A span is (name, start, end, parent, case); a layer's self time is its
span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

# (layer, module, attribute); "FlagComplex.x" patches a method on the class.
TRACED = (
    ("complexes", "raagnorm.complexes", "parse_complex"),
    ("complexes", "raagnorm.complexes", "FlagComplex.induced"),
    ("complexes", "raagnorm.complexes", "FlagComplex.components"),
    ("complexes", "raagnorm.complexes", "FlagComplex.cut_rank"),
    ("complexes", "raagnorm.complexes", "FlagComplex.maximal_cliques"),
    ("complexes", "raagnorm.complexes", "FlagComplex.simplices_by_dim"),
    ("complexes", "raagnorm.complexes", "is_chordal"),
    ("complexes", "raagnorm.complexes", "clique_tree"),
    ("homology", "raagnorm.homology", "rank_sparse_int"),
    ("homology", "raagnorm.homology", "reduced_betti"),
    ("homology", "raagnorm.homology", "euler_raag"),
    ("l2", "raagnorm.l2", "l2_euler_kernel"),
    ("l2", "raagnorm.l2", "l2_betti_group"),
    ("l2", "raagnorm.l2", "l2_betti_kernel"),
    ("l2", "raagnorm.l2", "is_fibered"),
    ("polytopes", "raagnorm.polytopes", "l2_polytope"),
    ("polytopes", "raagnorm.polytopes", "thurston_norm"),
    ("polytopes", "raagnorm.polytopes", "norm_ball"),
    ("polytopes", "raagnorm.polytopes", "thickness"),
    ("splittings", "raagnorm.splittings", "dual_splitting"),
    ("splittings", "raagnorm.splittings", "splitting_complexity"),
    ("splittings", "raagnorm.splittings", "cyclic_cover_truncation"),
    ("splittings", "raagnorm.splittings", "clique_tree_splitting"),
    ("splittings", "raagnorm.splittings", "euler_check"),
    ("verify", "raagnorm.verify", "random_chordal"),
    ("verify", "raagnorm.verify", "cross_check"),
    ("characters", "raagnorm.characters", "parse_character"),
    ("cli", "raagnorm.cli", "main"),
)


def span_name(layer, attr):
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


SPAN_NAMES = tuple(span_name(layer, attr) for layer, _, attr in TRACED)


# Size counters measured where the work happens: counter name -> (span name,
# count from the call's arguments and result).
COUNTERS = {
    "complexes.simplices": ("complexes.simplices_by_dim",
                            lambda args, result: sum(len(level) for level in result)),
    "homology.rank_rows": ("homology.rank_sparse_int", lambda args, result: len(args[0])),
    "homology.rank_pivots": ("homology.rank_sparse_int", lambda args, result: result),
    "splittings.loops": ("splittings.dual_splitting", lambda args, result: len(result[0].edges)),
}


class Tracer:
    """Span recorder: a stack of open spans plus the closed ones.

    ``spans`` holds (name, start_ns, end_ns, parent, case) tuples, where
    ``parent`` is the index of the enclosing span or None.
    """

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._case = None

    def open(self):
        self.spans.append(None)
        index = len(self.spans) - 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        return index, parent, time.perf_counter_ns()

    def close(self, name, token):
        end = time.perf_counter_ns()
        index, parent, start = token
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self._case)

    @contextlib.contextmanager
    def case(self, case_id):
        """A root span named "case" around one case; spans inside carry its id."""
        self._case = case_id
        token = self.open()
        try:
            yield
        finally:
            self.close("case", token)
            self._case = None

    def call(self, name, fn, args, kwargs):
        if name == "homology.rank_sparse_int":
            args = (list(args[0]),) + args[1:]  # rows may be any iterable; count them
        token = self.open()
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(name, token)
        for key, (span, count) in COUNTERS.items():
            if span == name:
                self.counts[key] += count(args, result)
        return result

    def span_docs(self):
        for i, (name, start, end, parent, case) in enumerate(self.spans):
            yield {"id": i, "name": name, "start_ns": start, "end_ns": end,
                   "parent": parent, "case": case}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for doc in self.span_docs():
                fh.write(json.dumps(doc, sort_keys=True) + "\n")


def covered_ns(start, end, intervals):
    """Length of the part of [start, end] covered by the union of intervals."""
    total = 0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Per span name: (summed self time in ns, call count)."""
    children = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        own = end - start - covered_ns(start, end, children.get(i, ()))
        total, calls = out.get(name, (0, 0))
        out[name] = (total + own, calls + 1)
    return out


def install(tracer):
    """Wrap every traced function; returns the undo list for :func:`restore`."""
    for _, module_name, _ in TRACED:
        importlib.import_module(module_name)
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "raagnorm" or n.startswith("raagnorm."))]
    undo = []
    try:
        for layer, module_name, attr in TRACED:
            name = span_name(layer, attr)
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                undo.append((cls, meth, original))
                setattr(cls, meth, _wrapper(tracer, name, original))
                continue
            original = getattr(owner, attr)
            wrapper = _wrapper(tracer, name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapper)
    except BaseException:
        restore(undo)
        raise
    return undo


def restore(undo):
    for target, key, original in reversed(undo):
        setattr(target, key, original)


def _wrapper(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


@contextlib.contextmanager
def installed(tracer):
    """``with installed(tracer):`` traces the block and always restores."""
    undo = install(tracer)
    try:
        yield undo
    finally:
        restore(undo)

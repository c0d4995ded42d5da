"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps public callables of the ``blobcell`` modules.  A
module-level function is replaced under every name that binds it, in
every module (``blob`` imports ``rref`` and ``class_idempotent_vector`` by
``from ... import``, so patching only the defining module would miss those
calls); a method is replaced on its class.  Each call records a span
``[name, parent, start, end, info]`` in memory, where ``parent`` is the
index of the enclosing span (-1 at top level) and ``info`` a work size
read off the arguments or the result.  Hot helpers that would drown the
run in spans (polynomial division and gcd) are counted only.
``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

MODULES = ("cli", "blob", "hecke", "exactfield", "klrcalc", "combinatorics")


def _rows(args, kwargs, result):
    return int(args[0].shape[0])


def _ideal_rank(args, kwargs, result):
    return result.ideal_rank


def _num_idempotents(args, kwargs, result):
    return len(args[0].E)          # args[0] is the KLRImages being built


def _length(args, kwargs, result):
    return len(result)


def _trace_steps(args, kwargs, result):
    return len(result.trace.steps)


# (defining module, qualified name, work size recorded with the span)
SPANNED = (
    ("cli", "_suite_hecke", None),
    ("cli", "_suite_klr", None),
    ("cli", "_suite_cellular", None),
    ("cli", "_suite_jm", None),
    ("cli", "_suite_rewrite", None),
    ("blob", "build_blob", _ideal_rank),
    ("blob", "BlobAlgebra.push", None),
    ("blob", "KLRImages.__init__", _num_idempotents),
    ("blob", "KLRImages.relation_failures", _length),
    ("blob", "klr_images", None),
    ("blob", "build_cellular_basis", None),
    ("blob", "check_cellularity", None),
    ("blob", "jm_images", None),
    ("blob", "check_jm", None),
    ("blob", "cell_modules", None),
    ("hecke", "RegularRep.__init__", None),
    ("hecke", "RegularRep.relation_failures", None),
    ("hecke", "RegularRep.matrix_of", None),
    ("hecke", "SeminormalModel.__init__", None),
    ("hecke", "SeminormalModel.relation_failures", None),
    ("hecke", "SeminormalModel.murphy_is_matrix_unit", None),
    ("hecke", "class_idempotent_vector", None),
    ("hecke", "murphy_engine", None),
    ("hecke", "e2_idempotents", None),
    ("exactfield", "rref", _rows),
    ("exactfield", "invert_matrix", None),
    ("exactfield", "nullspace", None),
    ("exactfield", "rank", None),
    ("klrcalc", "straighten_dot", _trace_steps),
    ("klrcalc", "evaluate_sum", None),
)

COUNTED = (
    ("exactfield", "Poly.divmod"),
    ("exactfield", "Poly.gcd"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def span(self, name: str, fn, info=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if info is not None:
                rec[4] = info(args, kwargs, result)
            return result
        return wrapper

    def count(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace(self, mods: dict, module: str, qualname: str, make) -> None:
        name = f"{module}.{qualname}"
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(mods[module], cls_name)
            self._patch(cls, meth, make(name, cls.__dict__[meth]))
            return
        original = getattr(mods[module], qualname)
        wrapper = make(name, original)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patch(mod, attr, wrapper)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"blobcell.{m}") for m in MODULES}
        for module, qualname, info in SPANNED:
            self._replace(mods, module, qualname,
                          functools.partial(self.span, info=info))
        for module, qualname in COUNTED:
            self._replace(mods, module, qualname, self.count)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def wrapper_cost(self, reps: int = 20000) -> float:
        """Estimated seconds the wrappers added to the traced run: the
        extra cost of one spanned and one counted call of a no-op,
        timed here, times the calls recorded."""
        def noop():
            return None

        probe = Tracer()
        spanned, counted = probe.span("noop", noop), probe.count("noop", noop)
        clock = time.perf_counter
        cost = []
        for fn in (noop, spanned, counted):
            t = clock()
            for _ in range(reps):
                fn()
            cost.append((clock() - t) / reps)
        bare, per_span, per_count = cost
        return (max(per_span - bare, 0.0) * len(self.spans)
                + max(per_count - bare, 0.0) * sum(self.counters.values()))


# ---------------------------------------------------------------------------
# Per-layer metrics from a finished trace
# ---------------------------------------------------------------------------


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children
    (calls are synchronous, so children never overlap)."""
    out = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _has_ancestor(spans: list, idx: int, names) -> bool:
    parent = spans[idx][1]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][1]
    return False


# metric -> (span names, what to take).  "s" is inclusive time of
# the outermost matching spans, "self" self time, "calls" the number of
# spans, "info_sum"/"info_max" the recorded work sizes.
SPAN_METRICS = {
    "hecke.murphy.s": ({"hecke.class_idempotent_vector"}, "s"),
    "hecke.murphy.calls": ({"hecke.class_idempotent_vector"}, "calls"),
    "hecke.murphy_engine.s": ({"hecke.murphy_engine"}, "s"),
    "hecke.e2_idempotents.s": ({"hecke.e2_idempotents"}, "s"),
    "hecke.regular_rep.s": ({"hecke.RegularRep.__init__"}, "s"),
    "hecke.regular_rep.relations.s":
        ({"hecke.RegularRep.relation_failures"}, "s"),
    "hecke.matrix_of.calls": ({"hecke.RegularRep.matrix_of"}, "calls"),
    "hecke.matrix_of.s": ({"hecke.RegularRep.matrix_of"}, "s"),
    "hecke.seminormal.s": ({"hecke.SeminormalModel.__init__",
                            "hecke.SeminormalModel.relation_failures",
                            "hecke.SeminormalModel.murphy_is_matrix_unit"},
                           "s"),
    "blob.build_blob.s": ({"blob.build_blob"}, "self"),
    "blob.ideal_rank": ({"blob.build_blob"}, "info_max"),
    "blob.klr_images.s": ({"blob.KLRImages.__init__"}, "self"),
    "blob.push.calls": ({"blob.BlobAlgebra.push"}, "calls"),
    "blob.push.s": ({"blob.BlobAlgebra.push"}, "s"),
    "blob.relations.s": ({"blob.KLRImages.relation_failures"}, "s"),
    "blob.relation_witnesses":
        ({"blob.KLRImages.relation_failures"}, "info_sum"),
    "blob.basis.s": ({"blob.build_cellular_basis"}, "s"),
    "blob.cellularity.s": ({"blob.check_cellularity"}, "s"),
    "blob.jm.s": ({"blob.jm_images", "blob.check_jm"}, "s"),
    "blob.cell_modules.s": ({"blob.cell_modules"}, "s"),
    "exactfield.rref.rows": ({"exactfield.rref"}, "info_sum"),
    "klrcalc.straighten_dot.calls": ({"klrcalc.straighten_dot"}, "calls"),
    "klrcalc.straighten_dot.s": ({"klrcalc.straighten_dot"}, "s"),
    "klrcalc.trace_steps": ({"klrcalc.straighten_dot"}, "info_sum"),
    "klrcalc.evaluate_sum.s": ({"klrcalc.evaluate_sum"}, "s"),
}
for _fn in ("rref", "invert_matrix", "nullspace", "rank"):
    SPAN_METRICS[f"exactfield.{_fn}.calls"] = ({f"exactfield.{_fn}"}, "calls")
    SPAN_METRICS[f"exactfield.{_fn}.s"] = ({f"exactfield.{_fn}"}, "s")
for _suite in ("hecke", "klr", "cellular", "jm", "rewrite"):
    SPAN_METRICS[f"cli.suite.{_suite}.s"] = ({f"cli._suite_{_suite}"}, "s")

SUITE_SPANS = {f"cli._suite_{s}"
               for s in ("hecke", "klr", "cellular", "jm", "rewrite")}


def layer_metrics(spans: list, counters: dict) -> dict:
    """Per-layer metric values of one traced sample, by metric name."""
    selfs = self_times(spans)
    out = {}
    for metric, (names, take) in SPAN_METRICS.items():
        idx = [i for i, s in enumerate(spans) if s[0] in names]
        if take == "calls":
            out[metric] = len(idx)
        elif take == "s":
            out[metric] = sum(spans[i][3] - spans[i][2] for i in idx
                              if not _has_ancestor(spans, i, names))
        elif take == "self":
            out[metric] = sum(selfs[i] for i in idx)
        elif take == "info_sum":
            out[metric] = sum(spans[i][4] for i in idx)
        else:
            out[metric] = max((spans[i][4] for i in idx), default=0)
    murphy_in_klr = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "hecke.class_idempotent_vector"
        and _has_ancestor(spans, i, {"blob.KLRImages.__init__"}))
    useful = sum(s[4] for s in spans if s[0] == "blob.KLRImages.__init__")
    out["hecke.murphy.useful_ratio"] = (useful / murphy_in_klr
                                        if murphy_in_klr else 0.0)
    for fn in ("build_blob", "klr_images"):
        out[f"cli.{fn}.calls"] = sum(
            1 for i, s in enumerate(spans)
            if s[0] == f"blob.{fn}" and _has_ancestor(spans, i, SUITE_SPANS))
    out["exactfield.poly_divmod.calls"] = counters.get(
        "exactfield.Poly.divmod", 0)
    out["exactfield.poly_gcd.calls"] = counters.get("exactfield.Poly.gcd", 0)
    return out


def metric_unit(metric: str) -> str:
    if metric.endswith(".s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def summary(spans: list) -> dict:
    """Calls, inclusive and self seconds per span name."""
    selfs = self_times(spans)
    out: dict = {}
    for (name, _, start, end, _), self_s in zip(spans, selfs):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += self_s
    return out

"""Span tracer for the traced benchmark run.

The tracer wraps the public entry points of each `blobalg` module from the
outside (no code inside `src/blobalg` is touched).  Every wrapped call
records one span `(name, start, end, parent)` in flat in-memory arrays; the
per-layer metrics are derived from the spans after the run, and the spans
are written out at the end.  A layer's self time is a span's duration minus
the durations of its child spans (calls are single-threaded, so children
never overlap).
"""

from __future__ import annotations

import functools
import gzip
import inspect
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

LAYERS = ("scalars", "diagrams", "words", "regions", "calib", "schurweyl",
          "verify", "cli")

# the Scalar field operations `+ - * / inv`
ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__truediv__", "inv")

# public methods wrapped at class level, besides every public module-level
# function of the layer modules
CLASS_METHODS = {
    ("scalars", "Scalar"): ARITH + ("__neg__", "__pow__", "substitute_boundary"),
    ("diagrams", "TLElement"): ("__mul__", "__add__", "__sub__", "__neg__",
                                "scale", "from_diagram", "one", "zero"),
    ("words", "GenExpr"): ("__mul__", "__add__", "__sub__", "__neg__", "scale",
                           "word", "one", "zero"),
    ("calib", "CalibratedModule"): ("__init__", "t_inv", "tk_matrix", "tk_inv",
                                    "e_matrix", "evaluate_word", "_word_matrix",
                                    "gamma"),
    ("schurweyl", "Bratteli"): ("path_counts",),
}

NORMALIZE = "scalars.Scalar(normalize)"


def self_times(parent: Sequence[int], start: Sequence[float],
               end: Sequence[float]) -> List[float]:
    """Duration of each span minus the durations of its direct children."""
    covered = [0.0] * len(parent)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(len(parent))]


class Tracer:
    """Records spans for wrapped callables; install() patches blobalg."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 1 unless nested in a span of the same name
        self._stack = [-1]
        self._active: List[int] = []
        self.product_pairs = set()
        self.fillings_count = 0
        self.module_dims: List[int] = []
        self.relation_checks = 0
        self._patches: List[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    # -- recording -----------------------------------------------------------
    def enter(self, name: str) -> int:
        nid = self._id(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.outer.append(self._active[nid] == 0)
        self.end.append(0.0)
        self._active[nid] += 1
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def leave(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        self._active[self.name[idx]] -= 1

    def wrap(self, name: str, fn: Callable,
             post: Optional[Callable] = None) -> Callable:
        enter, leave = self.enter, self.leave

        def traced(*args, **kwargs):
            idx = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(idx)
            if post is not None:
                post(args, result)
            return result

        functools.update_wrapper(traced, fn)
        return traced

    # -- patching ------------------------------------------------------------
    def install(self, modules: Dict[str, object]) -> None:
        """Wrap every public function of each layer module and the listed
        class methods; rebind each wrapped function at every module attribute
        that holds it."""
        originals: Dict[int, Callable] = {}
        replacement: Dict[int, Callable] = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                name = "%s.%s" % (layer, attr)
                replacement[id(obj)] = self.wrap(name, obj, self._post_hook(name))
                originals[id(obj)] = obj
        for (layer, cls_name), methods in CLASS_METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]  # KeyError: a renamed method fails loudly
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                name = "%s.%s.%s" % (layer, cls_name, meth)
                wrapped = self.wrap(name, fn, self._post_hook(name))
                self._set(cls, meth, staticmethod(wrapped) if is_static else wrapped)
                replacement[id(fn)] = wrapped
                originals[id(fn)] = fn
        scalar = modules["scalars"].Scalar
        self._set(scalar, "__init__", self._normalize_probe(scalar.__init__))
        # rebind at every module attribute: `from .scalars import eval_mod`
        # makes calib.eval_mod a second binding of the same function
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacement and originals[id(obj)] is obj:
                    self._set(mod, attr, replacement[id(obj)])
        self._check_complete(modules, originals)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    @staticmethod
    def _check_complete(modules, originals) -> None:
        for layer in LAYERS:
            for attr, obj in vars(modules[layer]).items():
                if id(obj) in originals and originals[id(obj)] is obj:
                    raise RuntimeError("unwrapped binding %s.%s" % (layer, attr))

    def _normalize_probe(self, init: Callable) -> Callable:
        """Scalar.__init__ recording a span only on the normalizing path."""
        traced = self.wrap(NORMALIZE, init)

        def __init__(self_, num, den=None, _normalized=False):
            if _normalized:
                init(self_, num, den, True)
            else:
                traced(self_, num, den, False)

        return __init__

    def _post_hook(self, name: str) -> Optional[Callable]:
        if name == "diagrams.multiply_diagrams":
            def post(args, _result):
                self.product_pairs.add((args[0], args[1]))
            return post
        if name == "regions.enumerate_fillings":
            def post(_args, result):
                self.fillings_count += len(result)
            return post
        if name == "calib.CalibratedModule.__init__":
            def post(args, _result):
                self.module_dims.append(args[0].n)
            return post
        if name == "calib.check_presentation":
            def post(_args, report):
                n = len(report["relations"])
                self.relation_checks += n if report["mode"] == "exact" \
                    else n * report["trials"]
            return post
        return None

    # -- results -------------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """The per-layer metrics, from the recorded spans."""
        selfs = self_times(self.parent, self.start, self.end)
        names = self.names
        calls: Dict[str, int] = {}
        incl: Dict[str, float] = {}
        self_by_name: Dict[str, float] = {}
        for i, nid in enumerate(self.name):
            nm = names[nid]
            calls[nm] = calls.get(nm, 0) + 1
            self_by_name[nm] = self_by_name.get(nm, 0.0) + selfs[i]
            if self.outer[i]:
                incl[nm] = incl.get(nm, 0.0) + (self.end[i] - self.start[i])

        def n(name):
            return calls.get(name, 0)

        def t(name):
            return incl.get(name, 0.0)

        def layer_self(layer):
            return sum((v for nm, v in self_by_name.items()
                        if nm.split(".", 1)[0] == layer), 0.0)

        arith = ["scalars.Scalar.%s" % m for m in ARITH]
        products = n("diagrams.multiply_diagrams")
        distinct = len(self.product_pairs)
        return {
            "scalars.arith_calls": sum(n(a) for a in arith),
            "scalars.arith_self_s": sum(self_by_name.get(a, 0.0) for a in arith),
            "scalars.normalize_calls": n(NORMALIZE),
            "scalars.normalize_s": t(NORMALIZE),
            "scalars.eval_mod_calls": n("scalars.eval_mod"),
            "scalars.eval_mod_s": t("scalars.eval_mod"),
            "diagrams.product_calls": products,
            "diagrams.product_distinct": distinct,
            "diagrams.product_reuse_frac": 1 - distinct / products if products else 0.0,
            "diagrams.product_s": t("diagrams.multiply_diagrams"),
            "diagrams.element_mul_s": t("diagrams.TLElement.__mul__"),
            "diagrams.basis_calls": n("diagrams.enumerate_basis"),
            "diagrams.basis_s": t("diagrams.enumerate_basis"),
            "words.expand_calls": n("words.expand_to_tl"),
            "words.expand_s": t("words.expand_to_tl"),
            "words.identity_calls": n("words.verify_identity"),
            "regions.fillings_calls": n("regions.enumerate_fillings"),
            "regions.fillings_count": self.fillings_count,
            "regions.fillings_s": t("regions.enumerate_fillings"),
            "regions.self_s": layer_self("regions"),
            "calib.modules_built": len(self.module_dims),
            "calib.max_dim": max(self.module_dims, default=0),
            "calib.build_s": t("calib.CalibratedModule.__init__"),
            "calib.mat_mul_calls": n("calib.mat_mul"),
            "calib.mat_mul_s": t("calib.mat_mul"),
            "calib.nullity_s": t("calib.idempotent_nullity"),
            "calib.presentation_s": t("calib.check_presentation"),
            "calib.relation_checks": self.relation_checks,
            "calib.word_matrix_calls": n("calib.CalibratedModule._word_matrix"),
            "calib.self_s": layer_self("calib"),
            "schurweyl.calls": sum(c for nm, c in calls.items()
                                   if nm.startswith("schurweyl.")),
            "schurweyl.self_s": layer_self("schurweyl"),
            "verify.self_s": layer_self("verify"),
            "cli.self_s": layer_self("cli"),
            "trace.spans": len(self.name),
        }

    def write_spans(self, path: str) -> None:
        """One `name,start,end,parent` line per span, gzip-compressed."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name,start,end,parent\n")
            for i, nid in enumerate(self.name):
                f.write("%s,%.9f,%.9f,%d\n" % (names[nid], self.start[i],
                                              self.end[i], self.parent[i]))

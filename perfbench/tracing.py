"""Timing wrappers around the program's layers, installed from outside it.

``Tracer.install`` replaces every public function of the traced modules,
and the public methods of their classes, with a wrapper that records a
span: name, start, end and the span that was open when it began.  The
replacement is made in the namespace of every ``schubert_kit`` module that
holds the function, so calls across modules (``from .weyl import multiply``)
are caught as well.  Spans stay in memory until ``primitives`` reduces them
once, at the end of the process, to per-name call counts, self times and a
few counts derived from the span tree.

A span's self time is its duration minus the durations of its direct
children; spans nest strictly because the program is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("gcm", "weyl", "intmat", "schubert", "polyring", "linalg", "ranktwo", "ffield", "cli")

# Private or operator methods that mark a layer boundary the issue names:
# the per-monomial image cache of the characteristic map, and F_{p^2}
# multiplication.  Public names are found by introspection.
EXTRA = {
    ("polyring", "WeightRing", "_psi_monomial"): "polyring._psi_monomial",
    ("ffield", "Fp2Element", "__mul__"): "ffield.fp2_mul",
}


def _cells(args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    ncols = len(matrix[0]) if matrix else 0
    return len(matrix) * ncols


# Counts recorded at the call boundary: name -> (counter, f(args, kwargs, result)).
HOOKS = {
    "linalg.rank": ("linalg.cells_eliminated", _cells),
    "linalg.kernel_basis": ("linalg.cells_eliminated", _cells),
    "schubert.peterson_coproduct": (
        "schubert.coproduct_terms", lambda a, k, r: len(r.coeffs)),
    "ranktwo.leibniz_cup_solver": (
        "ranktwo.constants_solved",
        lambda a, k, r: 2 * r.max_half_degree * (r.max_half_degree - 1)),
}

# (child, parent) pairs whose direct parent-child span count is a metric.
CHILD_COUNTS = {
    ("weyl.element_from_matrix", "weyl.enumerate_by_length"): "weyl.elements_enumerated",
    ("weyl.inverse", "schubert.peterson_coproduct"): "schubert.coproduct_left_factors_tried",
}


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.label_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    # -- installation ---------------------------------------------------

    def _label_id(self, label: str) -> int:
        if label not in self.label_ids:
            self.label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self.label_ids[label]

    def _wrap(self, fn, label):
        label_id = self._label_id(label)
        hook = HOOKS.get(label)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(label_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                counter, count = hook
                self.count(counter, count(args, kwargs, result))
            return result

        return wrapper

    def install(self):
        """Wrap the public functions of every traced layer; import them first."""
        modules = {name: importlib.import_module(f"schubert_kit.{name}") for name in LAYERS}
        replace = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replace[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(layer, obj)
        for (layer, cls_name, meth), label in EXTRA.items():
            cls = getattr(modules[layer], cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if inspect.isfunction(fn):
                setattr(cls, meth, self._wrap(fn, label))
        # rebind every reference held in any schubert_kit namespace
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "schubert_kit" or mod_name.startswith("schubert_kit.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        # each wrapper adds one frame per call, so deep recursions
        # (bruhat_leq recurses once per length) keep the same headroom
        sys.setrecursionlimit(2 * sys.getrecursionlimit())

    def _wrap_methods(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            label = f"{layer}.{attr}"
            if label in self.label_ids:
                label = f"{layer}.{cls.__name__}.{attr}"
            setattr(cls, attr, self._wrap(obj, label))

    # -- counts and reduction -------------------------------------------

    def count(self, counter: str, n=1):
        self.counters[counter] = self.counters.get(counter, 0) + n

    def primitives(self) -> dict:
        """Per-label calls and self seconds, plus counters; summable across processes."""
        n = len(self.start)
        child_time = [0.0] * n
        child_count = [0] * n
        for idx in range(n):
            p = self.parent[idx]
            if p >= 0:
                child_time[p] += self.end[idx] - self.start[idx]
                child_count[p] += 1
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        counters = dict(self.counters)
        pairs = {
            (self.label_ids.get(c), self.label_ids.get(p)): metric
            for (c, p), metric in CHILD_COUNTS.items()
        }
        misses = 0
        psi_id = self.label_ids.get("polyring._psi_monomial")
        for idx in range(n):
            label_id = self.name[idx]
            label = self.labels[label_id]
            calls[label] = calls.get(label, 0) + 1
            own = self.end[idx] - self.start[idx] - child_time[idx]
            self_s[label] = self_s.get(label, 0.0) + own
            p = self.parent[idx]
            if p >= 0:
                metric = pairs.get((label_id, self.name[p]))
                if metric is not None:
                    counters[metric] = counters.get(metric, 0) + 1
            # a cache miss computes the image and so opens child spans
            if label_id == psi_id and child_count[idx]:
                misses += 1
        counters["polyring.monomial_images"] = counters.get("polyring.monomial_images", 0) + misses
        counters["trace.spans"] = counters.get("trace.spans", 0) + n
        return {"calls": calls, "self_s": self_s, "counters": counters}


def merge(prims: list[dict]) -> dict:
    """Sum primitives from several traced processes (one per CLI invocation)."""
    out = {"calls": {}, "self_s": {}, "counters": {}}
    for prim in prims:
        for key in out:
            for name, value in prim[key].items():
                out[key][name] = out[key].get(name, 0) + value
    return out


# Per-layer metrics reported by a traced run: name -> (unit, better).
def _calls(label):
    return lambda p: p["calls"].get(label, 0)


def _self(label):
    return lambda p: p["self_s"].get(label, 0.0)


def _counter(name):
    return lambda p: p["counters"].get(name, 0)


def _layer_self(layer):
    prefix = layer + "."
    return lambda p: sum(v for k, v in p["self_s"].items() if k.startswith(prefix))


def _ratio(num, den):
    return lambda p: (p["counters"].get(num, 0) / p["counters"][den]) if p["counters"].get(den) else 0.0


METRICS = {
    "polyring.divided_difference.calls": (_calls("polyring.divided_difference"), "count", "lower"),
    "polyring.divided_difference_s": (_self("polyring.divided_difference"), "s", "lower"),
    "polyring.characteristic_map_s": (_self("polyring.characteristic_map"), "s", "lower"),
    "polyring.s_poincare_s": (_self("polyring.s_poincare"), "s", "lower"),
    "polyring.monomial_images": (_counter("polyring.monomial_images"), "count", "lower"),
    "linalg.rank.calls": (_calls("linalg.rank"), "count", "lower"),
    "linalg.rank_s": (_self("linalg.rank"), "s", "lower"),
    "linalg.kernel_basis_s": (_self("linalg.kernel_basis"), "s", "lower"),
    "linalg.cells_eliminated": (_counter("linalg.cells_eliminated"), "count", "lower"),
    "intmat.inverse_rational.calls": (_calls("intmat.inverse_rational"), "count", "lower"),
    "intmat.inverse_rational_s": (_self("intmat.inverse_rational"), "s", "lower"),
    "intmat.mat_mul.calls": (_calls("intmat.mat_mul"), "count", "lower"),
    "intmat.mat_mul_s": (_self("intmat.mat_mul"), "s", "lower"),
    "intmat.det.calls": (_calls("intmat.det"), "count", "lower"),
    "intmat.det_s": (_self("intmat.det"), "s", "lower"),
    "weyl.elements_enumerated": (_counter("weyl.elements_enumerated"), "count", "lower"),
    "weyl.enumerate_by_length_s": (_self("weyl.enumerate_by_length"), "s", "lower"),
    "weyl.length_and_word.calls": (_calls("weyl.length_and_word"), "count", "lower"),
    "weyl.length_and_word_s": (_self("weyl.length_and_word"), "s", "lower"),
    "weyl.multiply.calls": (_calls("weyl.multiply"), "count", "lower"),
    "weyl.bruhat_leq.calls": (_calls("weyl.bruhat_leq"), "count", "lower"),
    "weyl.bruhat_leq_s": (_self("weyl.bruhat_leq"), "s", "lower"),
    "weyl.from_word_s": (_self("weyl.from_word"), "s", "lower"),
    "schubert.peterson_coproduct.calls": (_calls("schubert.peterson_coproduct"), "count", "lower"),
    "schubert.peterson_coproduct_s": (_self("schubert.peterson_coproduct"), "s", "lower"),
    "schubert.coproduct_terms": (_counter("schubert.coproduct_terms"), "count", "lower"),
    "schubert.coproduct_useful_ratio": (
        _ratio("schubert.coproduct_terms", "schubert.coproduct_left_factors_tried"), "ratio", "higher"),
    "schubert.nil_a.calls": (_calls("schubert.nil_a"), "count", "lower"),
    "gcm.spherical_poset_s": (_self("gcm.spherical_poset"), "s", "lower"),
    "gcm.is_finite_type.calls": (_calls("gcm.is_finite_type"), "count", "lower"),
    "gcm.is_finite_type_s": (_self("gcm.is_finite_type"), "s", "lower"),
    "gcm.standard_realization_s": (_self("gcm.standard_realization"), "s", "lower"),
    "ranktwo.leibniz_cup_solver_s": (_self("ranktwo.leibniz_cup_solver"), "s", "lower"),
    "ranktwo.constants_solved": (_counter("ranktwo.constants_solved"), "count", "higher"),
    "ranktwo.cd_sequences.calls": (_calls("ranktwo.cd_sequences"), "count", "lower"),
    "ranktwo.cd_sequences_s": (_self("ranktwo.cd_sequences"), "s", "lower"),
    "ranktwo.prime_order_scan_s": (_self("ranktwo.prime_order_scan"), "s", "lower"),
    "ranktwo.matrix_order_method_s": (_self("ranktwo.matrix_order_method"), "s", "lower"),
    "ranktwo.dual_polynomial_check_s": (_self("ranktwo.dual_polynomial_check"), "s", "lower"),
    "ranktwo.bockstein_valuation_check_s": (_self("ranktwo.bockstein_valuation_check"), "s", "lower"),
    "ffield.multiplicative_order.calls": (_calls("ffield.multiplicative_order"), "count", "lower"),
    "ffield.multiplicative_order_s": (_self("ffield.multiplicative_order"), "s", "lower"),
    "ffield.fp2_mul.calls": (_calls("ffield.fp2_mul"), "count", "lower"),
    "cli.invocations": (_counter("cli.invocations"), "count", "lower"),
    "cli.startup_s": (_counter("cli.startup_s"), "s", "lower"),
    **{f"{layer}.self_s": (_layer_self(layer), "s", "lower") for layer in LAYERS},
    "trace.spans": (_counter("trace.spans"), "count", "lower"),
}


def layer_metrics(prim: dict) -> dict:
    return {name: fn(prim) for name, (fn, _unit, _better) in METRICS.items()}

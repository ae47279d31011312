"""Spans and counters around the quadlattice layers, installed by patching
module and class attributes from outside the package.

A span records (name, start, end, parent index, trace id).  Spans live in
memory and are written out once the job ends.  A layer's self time is its
spans' duration minus the part of that interval their child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, layer): every namespace holding the same function is
# patched, so imports such as ``from .exactfield import pochhammer`` are
# covered too.
FUNCTION_LAYERS = (
    ("pdeverify", "stencil_weights", "pdeverify.stencil_weights"),
    ("pdeverify", "residual", "pdeverify.residual"),
    ("pdeverify", "apply_mixed", "pdeverify.apply_mixed"),
    ("pdeverify", "second_order_residual", "pdeverify.second_order"),
    ("pdeverify", "difference_form_residual", "pdeverify.difference_form"),
    ("pdeverify", "recover_coefficients", "pdeverify.recover"),
    ("pdeverify", "coefficients", "pdeverify.coefficients"),
    ("families", "_eval_cached", "families.eval"),
    ("families", "racah_uni", "families.uni"),
    ("families", "wilson_uni", "families.uni"),
    ("families", "cdh_uni", "families.uni"),
    ("families", "ch_uni", "families.uni"),
    ("families", "derivative_ladder_check", "families.ladder"),
    ("exactfield", "pochhammer", "exactfield.pochhammer"),
    ("latticeops", "apply_D", "latticeops.pointwise"),
    ("latticeops", "apply_S", "latticeops.pointwise"),
    ("fbasis", "poly_D", "fbasis.poly_op"),
    ("fbasis", "poly_S", "fbasis.poly_op"),
    ("fbasis", "interpolate_bivariate", "fbasis.interpolate"),
    ("matrix", "exact_inverse", "matrix.inverse"),
    ("matrix", "solve_stacked", "matrix.solve"),
    ("ttrr", "sn_tn_derived", "ttrr.sn_tn_derived"),
    ("ttrr", "abc_matrices", "ttrr.abc"),
    ("ttrr", "generate", "ttrr.generate"),
    ("ttrr", "family_poly_vector", "ttrr.oracle"),
    ("ttrr", "connection", "ttrr.connection"),
    ("cli", "run", "cli.run"),
)

# (module, class, method, layer)
METHOD_LAYERS = (
    ("fbasis", "MPoly", "eval", "fbasis.mpoly_eval"),
    ("matrix", "ExactMatrix", "__mul__", "matrix.mul"),
    ("matrix", "ExactMatrix", "rank", "matrix.rank"),
    ("ttrr", "GChain", "__init__", "ttrr.gchain"),
)

# Gaussian-rational arithmetic is counted, not spanned: it is the leaf of
# every complex shift and a span per operation would swamp the trace.
GAUSS_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
)

ITEM_LAYER = "bench.item"
SPAN_LAYERS = tuple(dict.fromkeys(
    [layer for _, _, layer in FUNCTION_LAYERS]
    + [layer for _, _, _, layer in METHOD_LAYERS]
    + [ITEM_LAYER]
))


def _label_key(spec, label):
    return f"{spec.family}:{','.join(str(v) for v in label)}"


# Spans of these layers start a new trace id: one label, or one family and
# degree.  Other spans inherit their parent's.
TRACE_KEYS = {
    "pdeverify.residual": lambda a: _label_key(a[1], a[2]),
    "pdeverify.second_order": lambda a: _label_key(a[1], a[2]),
    "pdeverify.difference_form": lambda a: _label_key(a[1], a[2]),
    "families.ladder": lambda a: _label_key(a[0], a[1]),
    "ttrr.oracle": lambda a: f"{a[0].family}:n={a[1]}",
    "ttrr.generate": lambda a: f"{a[0].family}:U={a[1]}",
}


def bit_height(value):
    """Largest numerator or denominator bit length of a Fraction or a
    Gaussian rational."""
    parts = (value.re, value.im) if hasattr(value, "re") else (value,)
    return max(max(p.numerator.bit_length(), p.denominator.bit_length()) for p in parts)


class Tracer:
    """Installs the spans and counters; ``restore`` undoes every patch."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.value_bits = 0
        self._stack = []
        self._undo = []

    def _modules(self):
        return [
            module
            for name, module in sorted(sys.modules.items())
            if name == "quadlattice" or name.startswith("quadlattice.")
        ]

    def wrap(self, layer, fn, trace_key=None, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if trace_key is not None:
                trace = trace_key(args)
            else:
                trace = spans[parent][4] if parent >= 0 else None
            record = [layer, clock(), 0.0, parent, trace]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = self._modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        hooks = {
            "families.eval": self._note_value,
            "pdeverify.stencil_weights": lambda w: self.counts.update({"stencil_terms": len(w)}),
        }
        for mod, attr, layer in FUNCTION_LAYERS:
            original = getattr(by_name[mod], attr)
            wrapper = self.wrap(layer, original, TRACE_KEYS.get(layer), hooks.get(layer))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, name, wrapper)
        for mod, cls_name, attr, layer in METHOD_LAYERS:
            cls = getattr(by_name[mod], cls_name)
            self._set(cls, attr, self.wrap(layer, cls.__dict__[attr]))
        gauss = by_name["exactfield"].GaussianRational
        for attr in GAUSS_OPS:
            self._set(gauss, attr, self._count("gauss_ops", gauss.__dict__[attr]))

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _note_value(self, value):
        bits = bit_height(value)
        if bits > self.value_bits:
            self.value_bits = bits

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, trace) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, trace]) + "\n")


def self_times(spans):
    """Per span: duration minus the union of its children's intervals,
    clipped to the span."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def layer_summary(spans):
    """{layer: (calls, self seconds)} over every span layer."""
    calls = Counter()
    self_s = Counter()
    for span, own in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        self_s[span[0]] += own
    return {layer: (calls[layer], self_s[layer]) for layer in SPAN_LAYERS}

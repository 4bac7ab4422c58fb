"""Spans and counters recorded around icalc's public functions, from outside.

``Tracer.install`` rebinds each traced function in every icalc module
namespace that holds it (and each traced method on its class), so calls
that modules make to one another through imported names are seen too;
``uninstall`` puts the originals back.  A span holds its name, start,
end, parent and op id and stays in memory until the run writes it out.

The hot per-term functions (``mono_divides``, ``PrimeField.inv``) are
counted without reading the clock.  Reading the clock twice per call
would cost more than those functions do.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# module -> traced public names; "Class.method" patches the class
SPANNED = {
    "groebner": ("groebner_basis", "normal_form", "s_polynomial", "eliminate_polys", "exact_divide"),
    "poly": ("transport", "frobenius_power"),
    "grading": ("positive_grading",),
    "ideals": (
        "Ideal.intersect",
        "Ideal.colon",
        "Ideal.eliminate",
        "Ideal.bracket_power",
        "Ideal.radical_contains",
        "Ideal.dimension",
        "Ideal.contains",
        "ring_map_kernel",
    ),
    "rings": ("make_ring", "classify", "is_system_of_parameters", "is_regular_sequence", "cm_probe"),
    "closure": (
        "decomposition_closure",
        "closedness_necessary_test",
        "theorem_contain_verdict",
        "normalize_sop_generators",
        "structural_verdict",
        "bounded_frobenius_check",
        "construct_ne_test_data",
        "colon_capture_report",
    ),
    "script": ("parse_script", "run_script", "ReportDocument.to_json"),
}
COUNTED = {"monomials": ("mono_divides",), "field": ("PrimeField.inv",)}
OP_SPAN = "bench.op"  # root span of each op; its self time lies outside icalc


def _metric_name(module, attr):
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self, ic, cache):
        self.ic = ic
        self.cache = cache  # the basis cache, whose growth marks a miss
        self.restore = []
        self.names, self.parents, self.ops, self.starts, self.ends = [], [], [], [], []
        self.outermost = []  # no enclosing span of the same name
        self.stack, self.active = [], {}
        self.op_id = -1
        self.counts = dict.fromkeys(
            ("monomials.mono_divides.calls", "field.inv.calls", "groebner.groebner_basis.misses",
             "groebner.spairs_reduced", "groebner.zero_reductions"), 0)
        self.basis_size_max = 0
        self.last_spoly = None

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op_id)
        depth = self.active.get(name, 0)
        self.outermost.append(depth == 0)
        self.active[name] = depth + 1
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i):
        self.ends[i] = perf_counter()
        self.stack.pop()
        self.active[self.names[i]] -= 1

    def run_op(self, op_id, fn, arg):
        self.op_id = op_id
        i = self.open(OP_SPAN)
        try:
            return fn(arg)
        finally:
            self.close(i)

    # -- installing wrappers ---------------------------------------------------

    def _span(self, name, fn):
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def _groebner_basis(self, fn):
        span, cache, counts = self._span("groebner.groebner_basis", fn), self.cache, self.counts

        @functools.wraps(fn)
        def wrapper(ring, gens):
            before = len(cache)
            result = span(ring, gens)
            if len(cache) > before:
                counts["groebner.groebner_basis.misses"] += 1
            return result

        return wrapper

    def _s_polynomial(self, fn):
        span = self._span("groebner.s_polynomial", fn)

        @functools.wraps(fn)
        def wrapper(f, g):
            self.last_spoly = span(f, g)
            return self.last_spoly

        return wrapper

    def _normal_form(self, fn):
        span, counts = self._span("groebner.normal_form", fn), self.counts

        @functools.wraps(fn)
        def wrapper(f, reducers):
            result = span(f, reducers)
            if f is self.last_spoly:
                self.last_spoly = None
                counts["groebner.spairs_reduced"] += 1
                counts["groebner.zero_reductions"] += result.is_zero
                self.basis_size_max = max(self.basis_size_max, len(reducers))
            return result

        return wrapper

    def _wrap(self, module, attr, fn):
        """The stand-in that records calls of fn, a public name of module."""
        name = _metric_name(module, attr)
        if attr in COUNTED.get(module, ()):
            return self._counter(name + ".calls", fn)
        special = {
            "groebner.groebner_basis": self._groebner_basis,
            "groebner.s_polynomial": self._s_polynomial,
            "groebner.normal_form": self._normal_form,
        }.get(name)
        return special(fn) if special else self._span(name, fn)

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "icalc" or k.startswith("icalc.")]
        for module, attrs in {**SPANNED, **COUNTED}.items():
            home = getattr(self.ic, module)
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self.restore.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(module, attr, original))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(module, attr, original)
                for namespace in modules:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            self.restore.append((namespace, key, original))
                            setattr(namespace, key, wrapper)

    def uninstall(self):
        while self.restore:
            owner, key, original = self.restore.pop()
            setattr(owner, key, original)

    # -- per-module metrics ------------------------------------------------------

    def metrics(self, wall_s):
        """Per-module figures for the spans recorded so far.

        ``.ms`` is inclusive time (outermost span of a name only),
        ``.self_ms`` excludes child spans, and ``<module>.self_ms`` sums
        the self time of every span of the module.  The self times of all
        spans, the op spans included, add up to the traced op wall time.
        """
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child[self.parents[i]] += dur[i]
        out = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for i in range(n):
            name = self.names[i]
            self_ms = (dur[i] - child[i]) * 1000
            add(name + ".calls", 1)
            add(name + ".self_ms", self_ms)
            add(name.split(".")[0] + ".self_ms", self_ms)
            if self.outermost[i]:
                add(name + ".ms", dur[i] * 1000)
        for module, attrs in SPANNED.items():
            out.setdefault(module + ".self_ms", 0.0)
            for attr in attrs:
                name = _metric_name(module, attr)
                for suffix in (".calls", ".self_ms", ".ms"):
                    out.setdefault(name + suffix, 0)
        out.update(self.counts)
        reduced = self.counts["groebner.spairs_reduced"]
        useful = reduced - self.counts["groebner.zero_reductions"]
        calls = out["groebner.groebner_basis.calls"]
        out["groebner.basis_size_max"] = self.basis_size_max
        out["groebner.useful_reduction_ratio"] = useful / reduced if reduced else 0.0
        out["groebner.cache_hit_ratio"] = (
            1 - self.counts["groebner.groebner_basis.misses"] / calls if calls else 0.0
        )
        out["groebner.cache_entries_end"] = len(self.cache)
        out["trace.op_wall_ms"] = wall_s * 1000
        out["trace.outside_spans_ms"] = out.pop(OP_SPAN + ".self_ms")
        return out

    def spans(self):
        """Recorded spans as (name, start, end, parent index, op id) rows."""
        return list(zip(self.names, self.starts, self.ends, self.parents, self.ops))


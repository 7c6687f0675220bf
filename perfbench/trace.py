"""Outside-in layer tracing: spans around each layer's public entry points
and untimed call counters on p-adic arithmetic.

`Tracer.install` rebinds each entry point at every binding site (the
defining module and every vologcalc module that imported the name) to a
wrapper that records a span (name, start, end, parent, job). A span's self
time is its duration minus the time covered by its child spans; the
wrapper's own bookkeeping is charged to neither. `uninstall` restores every
binding. Spans stay in memory until `write` at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, function) entry points, in layer order
ENTRY_POINTS = (
    ("cli", "run"),
    ("padic", "iwasawa_log"),
    ("loglaurent", "flip_coordinate"),
    ("loglaurent", "cross_annulus_jump"),
    ("graphs", "solve_poisson"),
    ("graphs", "harmonic_project"),
    ("linalg", "bareiss_solve"),
    ("linalg", "gauss_solve"),
    ("volog", "assemble"),
    ("volog", "derivative_vertex_function"),
    ("volog", "iterated_derivative"),
    ("heights", "discrete_height"),
    ("heights", "vertical_correction"),
    ("fpnmod", "normalize_class"),
    ("fpnmod", "synderi_check"),
)

# Arithmetic methods counted per call; nested calls within one class (for
# example __radd__ delegating to __add__) count once.
COUNTED_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "scale_p_power",
)


def _abs_precs(value):
    """Absolute precisions of the p-adic coefficients inside a vertex value."""
    coeffs = getattr(value, "coeffs", None)
    if coeffs is not None:
        return [c.abs_prec for c in coeffs]
    if hasattr(value, "abs_prec"):
        return [value.abs_prec]
    return []


class Tracer:
    def __init__(self, package):
        self.pkg = package
        self.clock = time.perf_counter
        self.spans = []  # (name, start, end, parent index, job)
        self.self_s = Counter()
        self.calls = Counter()
        self.ops = Counter()
        self.job = None
        self.solve_keys = set()
        self.repeat_solves = 0
        self.solves = []  # (n, pairs, p, min input abs prec, min output abs prec)
        self._pending = None  # (graph, input precisions) of the solve in flight
        self._stack = []  # [span index, child time]
        self._saved = []

    # -- installation ------------------------------------------------------------

    def _modules(self):
        prefix = self.pkg.__name__
        return [m for name, m in sys.modules.items() if m is not None and (name == prefix or name.startswith(prefix + "."))]

    def install(self):
        mods = self._modules()
        for mod_name, fn_name in ENTRY_POINTS:
            original = getattr(getattr(self.pkg, mod_name), fn_name)
            wrapper = self._span(f"{mod_name}.{fn_name}", original)
            for m in mods:
                if getattr(m, fn_name, None) is original:
                    self._saved.append((m, fn_name, original))
                    setattr(m, fn_name, wrapper)
        for cls, counter in ((self.pkg.padic.PadicNumber, "padic.ops"), (self.pkg.padic.UniversalScalar, "padic.scalar_ops")):
            depth = [0]
            for op in COUNTED_OPS:
                original = cls.__dict__.get(op)
                if original is None:
                    continue
                self._saved.append((cls, op, original))
                setattr(cls, op, self._counted(counter, depth, original))

    def uninstall(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    # -- wrappers ------------------------------------------------------------------

    def _counted(self, counter, depth, fn):
        ops = self.ops

        def op(*args):
            if depth[0]:
                return fn(*args)
            depth[0] = 1
            try:
                out = fn(*args)
            finally:
                depth[0] = 0
            if out is not NotImplemented:
                ops[counter] += 1
            return out

        return op

    def _span(self, name, fn):
        clock, stack, spans = self.clock, self._stack, self.spans
        is_solve = name == "graphs.solve_poisson"

        def span(*args, **kwargs):
            b0 = clock()
            if is_solve:
                self._note_solve_in(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[index] = (name, t0, t1, parent, self.job)
                self.self_s[name] += (t1 - t0) - frame[1]
                self.calls[name] += 1
            if is_solve:
                self._note_solve_out(out)
            if stack:
                stack[-1][1] += clock() - b0
            return out

        return span

    def _note_solve_in(self, g_fn, anchor=None):
        g = g_fn.graph
        anchor = g.vertices[0] if anchor is None else anchor
        key = (g.vertices, tuple((e.tail, e.head) for e in g.edges), anchor)
        if key in self.solve_keys:
            self.repeat_solves += 1
        self.solve_keys.add(key)
        self._pending = (g, [a for v in g_fn.values.values() for a in _abs_precs(v)])

    def _note_solve_out(self, out):
        g, precs_in = self._pending
        if not precs_in:
            return
        precs_out = [a for v in out.values.values() for a in _abs_precs(v)]
        index = {v: i for i, v in enumerate(g.vertices)}
        pairs = [(index[e.tail], index[e.head]) for e in g.edges]
        p = next(c.p for v in out.values.values() for c in getattr(v, "coeffs", [v]))
        self.solves.append((len(g.vertices), pairs, p, min(precs_in), min(precs_out)))

    # -- results ---------------------------------------------------------------------

    def metrics(self, dets, wall_traced: float, wall_plain: float) -> dict:
        """The per-layer metrics; `dets` gives v_p(det) of reduced Laplacians."""
        spent = excess = 0
        for n, pairs, p, prec_in, prec_out in self.solves:
            if prec_in == float("inf"):
                continue
            lost = prec_in - prec_out if prec_out != float("inf") else 0
            spent += lost
            excess += max(0, lost - dets.vp_det(n, pairs, p))
        solves = self.calls["graphs.solve_poisson"]
        s, c = self.self_s, self.calls
        cli_self = s["cli.run"]
        return {
            "linalg.bareiss_solve.self_s": (s["linalg.bareiss_solve"], "s"),
            "linalg.bareiss_solve.calls": (c["linalg.bareiss_solve"], "count"),
            "graphs.solve_poisson.self_s": (s["graphs.solve_poisson"], "s"),
            "graphs.solve_poisson.calls": (solves, "count"),
            "graphs.harmonic_project.self_s": (s["graphs.harmonic_project"], "s"),
            "graphs.solve_poisson.repeat_ratio": (self.repeat_solves / solves if solves else 0.0, "ratio"),
            "graphs.digits_spent": (spent, "digits"),
            "graphs.digits_spent_excess": (excess, "digits"),
            "padic.ops": (self.ops["padic.ops"], "count"),
            "padic.scalar_ops": (self.ops["padic.scalar_ops"], "count"),
            "padic.iwasawa_log.self_s": (s["padic.iwasawa_log"], "s"),
            "padic.iwasawa_log.calls": (c["padic.iwasawa_log"], "count"),
            "loglaurent.flip_coordinate.self_s": (s["loglaurent.flip_coordinate"], "s"),
            "loglaurent.cross_annulus_jump.self_s": (s["loglaurent.cross_annulus_jump"], "s"),
            "volog.assemble.self_s": (s["volog.assemble"], "s"),
            "volog.iterated_derivative.self_s": (s["volog.iterated_derivative"], "s"),
            "volog.derivative_vertex_function.self_s": (s["volog.derivative_vertex_function"], "s"),
            "heights.discrete_height.self_s": (s["heights.discrete_height"], "s"),
            "heights.vertical_correction.calls": (c["heights.vertical_correction"], "count"),
            "fpnmod.normalize_class.self_s": (s["fpnmod.normalize_class"], "s"),
            "fpnmod.normalize_class.calls": (c["fpnmod.normalize_class"], "count"),
            "fpnmod.synderi_check.self_s": (s["fpnmod.synderi_check"], "s"),
            "linalg.gauss_solve.self_s": (s["linalg.gauss_solve"], "s"),
            "cli.self_s": (cli_self, "s"),
            "trace.overhead_ratio": (wall_traced / wall_plain, "ratio"),
        }

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "job": job}) + "\n")

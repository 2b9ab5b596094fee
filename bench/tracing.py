"""Per-layer tracing for the benchmark, installed from outside the package.

`install(tracer)` replaces bvfact's public functions and hot methods with
probes.  A probe opens a frame on entry and closes it on exit; a frame's self
time is its duration minus the durations of the frames opened inside it, so
the self times of all frames under one operation add up to that operation's
duration.  Frames of coarse calls are also kept as span records (name, start,
end, parent) for the trace file; hot calls are only counted and timed in
aggregate.  Counting probes (kernel and integrand evaluations, diagrams
built) add to a counter and open no frame.
"""

import functools
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Frame stack with per-name aggregates and an in-memory span list."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.spans = []      # [label, start, end, parent span index or -1]
        self._stack = []     # [name, start, child seconds, span index]
        self._span = -1      # innermost open span

    def enter(self, name, span_label=None):
        start = self.clock()
        idx = -1
        if span_label is not None:
            idx = len(self.spans)
            self.spans.append([span_label, start, None, self._span])
            self._span = idx
        self._stack.append([name, start, 0.0, idx])

    def exit(self):
        name, start, child, idx = self._stack.pop()
        end = self.clock()
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if idx >= 0:
            self.spans[idx][2] = end
            self._span = self.spans[idx][3]

    def snapshot(self):
        """Flat copy of every aggregate, keyed as the per-layer metrics."""
        out = {}
        for name, n in self.calls.items():
            out[name + ".calls"] = n
            out[name + ".self_s"] = self.self_s[name]
        out.update(self.counts)
        return out


def _frame(tracer, name, fn, span=False, after=None):
    @functools.wraps(fn)
    def probe(*args, **kw):
        tracer.enter(name, name if span else None)
        try:
            result = fn(*args, **kw)
        finally:
            tracer.exit()
        if after is not None:
            tracer.counts[after[0]] += after[1](result)
        return result
    return probe


def _counter(tracer, name, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def probe(*args, **kw):
        counts[name] += 1
        return fn(*args, **kw)
    return probe


def _quad_probe(tracer, quad):
    counts = tracer.counts

    @functools.wraps(quad)
    def probe(func, a, b, *args, **kw):
        def counted(*x):
            counts["quadrature.integrand_evals"] += 1
            return func(*x)
        tracer.enter("quadrature")
        try:
            return quad(counted, a, b, *args, **kw)
        finally:
            tracer.exit()
    return probe


def _nterms(poly):
    return len(poly.terms)


def _piece_terms(parts):
    return sum(len(p.terms) for p, _ in parts)


def install(tracer):
    """Probe bvfact and scipy's `quad`; returns a function that undoes it.

    Module-level functions are replaced in every loaded module that binds
    them, since bvfact's modules and the workloads import them by name.
    Methods are replaced on their class under every attribute name that
    holds them (`__mul__` and `__rmul__` are one function).  `quad` is
    replaced on `scipy.integrate`, where every call site imports it at call
    time.
    """
    import scipy.integrate
    from bvfact import (bvalg, egren, freeq, jetcalc, mloc, qbv, region,
                        symexpr)

    functions = [
        (jetcalc, "total_derivative", "jetcalc.total_derivative", False, None),
        (jetcalc, "euler_lagrange_density", "jetcalc.euler_lagrange_density",
         True, None),
        (jetcalc, "homotopy_primitive", "jetcalc.homotopy_primitive", True,
         None),
        (bvalg, "antibracket_density", "bvalg.antibracket_density", True,
         None),
        (bvalg, "check_cme", "bvalg.check_cme", True, None),
        (region, "partition_of_unity", "region.partition_of_unity", True,
         None),
        (region, "is_weiss_cover", "region.is_weiss_cover", True, None),
        (mloc, "weiss_decompose", "mloc.weiss_decompose", True,
         ("mloc.piece_terms", _piece_terms)),
        (freeq, "pair_kernel", "freeq.pair_kernel", True, None),
        (freeq, "eval_diagram", "freeq.eval_diagram", True, None),
        (freeq, "star", "freeq.star", True,
         ("freeq.result_terms", _nterms)),
        (freeq, "tprod", "freeq.tprod", True,
         ("freeq.result_terms", _nterms)),
        (egren, "scaling_degree", "egren.scaling_degree", True, None),
        (qbv, "interacting_bv", "qbv.interacting_bv", True, None),
        (qbv, "check_qme", "qbv.check_qme", True, None),
    ]
    methods = [
        (symexpr.Expr, "__mul__", "symexpr.expr_mul", False),
        (symexpr.Expr, "dright", "symexpr.dright", False),
        (symexpr.FormalSeries, "__mul__", "symexpr.series_mul", False),
        (region.Bump, "series", "region.bump_eval", False),
        (egren.ExtendedDist, "pair", "egren.extended_pair", True),
        (egren.TimeOrder2, "apply", "egren.time_order_apply", True),
    ]
    counted = [
        (freeq.PropagatorKernel, "value", "freeq.kernel_evals"),
        (freeq.Diagram, "__init__", "freeq.diagrams_built"),
    ]

    undo = []
    probes = {}
    for home, attr, name, span, after in functions:
        orig = getattr(home, attr)
        probes[id(orig)] = (orig, _frame(tracer, name, orig, span, after))
    for mod in list(sys.modules.values()):
        ns = getattr(mod, "__dict__", None)
        if not isinstance(ns, dict):
            continue
        for key, val in list(ns.items()):
            hit = probes.get(id(val))
            if hit is not None and hit[0] is val:
                ns[key] = hit[1]
                undo.append((ns, key, val))
    for cls, attr, name, span in methods:
        orig = cls.__dict__[attr]
        _replace_method(cls, orig, _frame(tracer, name, orig, span), undo)
    for cls, attr, name in counted:
        orig = cls.__dict__[attr]
        _replace_method(cls, orig, _counter(tracer, name, orig), undo)
    quad = scipy.integrate.quad
    scipy.integrate.quad = _quad_probe(tracer, quad)
    undo.append((scipy.integrate, "quad", quad))

    def uninstall():
        for owner, key, orig in reversed(undo):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
    return uninstall


def _replace_method(cls, orig, probe, undo):
    for key, val in list(cls.__dict__.items()):
        if val is orig:
            setattr(cls, key, probe)
            undo.append((cls, key, orig))

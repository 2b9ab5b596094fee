"""Tests of the benchmark's own code: self-time arithmetic, probes, the
independent references, and the runner's contract.

    python3 -m pytest bench/test_bench.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

# int_{-1}^{1} exp(-1/(1 - x^2)) dx
MOLLIFIER_MASS = 0.4439938161680794


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class TestSelfTime:
    def test_nested_spans_and_leaf(self):
        # A [0, 10] holds span B [1, 5] (which holds leaf C [2, 4]) and
        # span D [6, 9].
        tr = tracing.Tracer(FakeClock([0, 1, 2, 4, 5, 6, 9, 10]))
        tr.enter("A", "A")
        tr.enter("B", "B")
        tr.enter("C")
        tr.exit()
        tr.exit()
        tr.enter("D", "D")
        tr.exit()
        tr.exit()
        assert dict(tr.self_s) == {"A": 3, "B": 2, "C": 2, "D": 3}
        assert sum(tr.self_s.values()) == 10
        assert tr.spans == [["A", 0, 10, -1], ["B", 1, 5, 0],
                            ["D", 6, 9, 0]]

    def test_repeated_calls_aggregate(self):
        tr = tracing.Tracer(FakeClock([0, 1, 3, 4, 7, 9]))
        tr.enter("op", "first")
        tr.enter("leaf")
        tr.exit()
        tr.enter("leaf")
        tr.exit()
        tr.exit()
        snap = tr.snapshot()
        assert snap["leaf.calls"] == 2 and snap["leaf.self_s"] == 5
        assert snap["op.calls"] == 1 and snap["op.self_s"] == 4

    def test_exception_closes_frame(self):
        tr = tracing.Tracer(FakeClock([0, 2]))

        def boom():
            raise ValueError

        with pytest.raises(ValueError):
            tracing._frame(tr, "f", boom, span=True)()
        assert tr.calls["f"] == 1 and tr.spans == [["f", 0, 2, -1]]


class TestProbes:
    def test_install_counts_and_uninstall_restores(self):
        from bvfact import egren, freeq, jetcalc
        from bvfact.symexpr import Expr
        from bvfact.jetcalc import JetExpr, jet

        originals = (jetcalc.total_derivative, freeq.tprod, egren.tprod,
                     Expr.__dict__["__mul__"], Expr.__dict__["__rmul__"])
        tr = tracing.Tracer()
        uninstall = tracing.install(tr)
        try:
            u = JetExpr.of(jet("u"), 1)
            jetcalc.total_derivative(u * u, 0)
            assert egren.tprod is freeq.tprod is not originals[1]
        finally:
            uninstall()
        assert tr.calls["jetcalc.total_derivative"] == 1
        assert tr.calls["symexpr.expr_mul"] >= 1
        assert tr.calls["symexpr.dright"] >= 1
        assert (jetcalc.total_derivative, freeq.tprod, egren.tprod,
                Expr.__dict__["__mul__"],
                Expr.__dict__["__rmul__"]) == originals

    def test_quadrature_counts_integrand_evaluations(self):
        import scipy.integrate

        tr = tracing.Tracer()
        uninstall = tracing.install(tr)
        try:
            from scipy.integrate import quad as probed
            probed(lambda x: x * x, 0, 1)
        finally:
            uninstall()
        assert scipy.integrate.quad is quad
        assert tr.calls["quadrature"] == 1
        assert tr.counts["quadrature.integrand_evals"] == 21


class TestReferences:
    def test_integrate(self):
        assert abs(ref.integrate(np.sin, 0, math.pi) - 2) < 1e-14
        assert abs(ref.integrate(lambda x: x ** 5, 0, 1) - 1 / 6) < 1e-15

    def test_mollifier(self):
        assert ref.mollifier([0.25], 0.25, 0.5)[0] == pytest.approx(
            math.exp(-1), abs=1e-16)
        assert ref.mollifier([0.75, -0.25], 0.25, 0.5).tolist() == [0, 0]
        mass = ref.integrate(lambda t: ref.mollifier(t, 0.0, 1.0), -1, 1)
        assert abs(mass - MOLLIFIER_MASS) < 1e-14

    def test_derivatives_at_zero(self):
        c, r, h = 0.1, 0.5, 1e-5
        m0, m1 = ref.mollifier_derivs0(c, r)
        assert m0 == pytest.approx(math.exp(-1 / (1 - 0.04)), rel=1e-15)
        fd = (ref.mollifier([h], c, r)[0] - ref.mollifier([-h], c, r)[0]) \
            / (2 * h)
        assert abs(m1 - fd) < 1e-8
        assert ref.mollifier_derivs0(2.0, 0.5) == (0.0, 0.0)

    def test_standard_cutoff(self):
        vals = ref.standard_cutoff([0.0, 0.5, -0.5, 0.75, -0.75, 1.0, 1.5])
        assert vals.tolist() == pytest.approx([1, 1, 1, 0.5, 0.5, 0, 0],
                                              abs=1e-15)

    def test_transforms_of_translated_bump(self):
        omega, c = 1.3, 0.7
        c0 = ref.integrate(lambda t: ref.mollifier(t, 0.0, 0.5)
                           * np.cos(omega * t), -0.5, 0.5)
        C, S = ref.transforms(c, 0.5, omega)
        assert abs(C - c0 * math.cos(omega * c)) < 1e-15
        assert abs(S - c0 * math.sin(omega * c)) < 1e-15
        assert ref.transforms(0.0, 1.0, 1e-12)[0] == pytest.approx(
            MOLLIFIER_MASS, abs=1e-14)

    @pytest.mark.parametrize("name,kernel", [
        ("symmetric_pairing", lambda tau, w: np.cos(w * tau) / (2 * w)),
        ("pauli_jordan_pairing", lambda tau, w: -np.sin(w * tau) / w),
        ("wightman_pairing", lambda tau, w: np.exp(-1j * w * tau) / (2 * w)),
    ])
    def test_pairings_match_tensor_quadrature(self, name, kernel):
        f, g, omega = (0.2, 0.5), (0.6, 0.25), 1.0
        nodes, weights = np.polynomial.legendre.leggauss(60)
        t = f[0] + f[1] * nodes
        s = g[0] + g[1] * nodes
        ft = ref.mollifier(t, *f) * weights * f[1]
        gs = ref.mollifier(s, *g) * weights * g[1]
        direct = ft @ kernel(t[:, None] - s[None, :], omega) @ gs
        assert abs(getattr(ref, name)(f, g, omega) - direct) < 1e-12

    @pytest.mark.parametrize("center,radius", [(0.1, 0.5), (-0.2, 0.375),
                                               (2.0, 0.5)])
    def test_theta_over_x_extension(self, center, radius):
        f0 = ref.mollifier_derivs0(center, radius)[0]
        hi = max(1.0, center + radius)

        def integrand(x):
            return (ref.mollifier([x], center, radius)[0]
                    - f0 * ref.standard_cutoff([x])[0]) / x
        expect, _ = quad(integrand, 0, hi, epsabs=1e-13, epsrel=1e-13,
                         limit=500, points=[0.5, 1.0])
        assert abs(ref.theta_over_x_extension(center, radius) - expect) \
            < 1e-11

    def test_delta_weight_difference(self):
        assert ref.delta_weight_difference((1.5, 0.0), (0.5, 0.0), 0.0, 0.5) \
            == pytest.approx(math.exp(-1), abs=1e-16)
        m1 = ref.mollifier_derivs0(0.1, 0.5)[1]
        assert ref.delta_weight_difference((0.0, 2.0), (0.0, 1.0), 0.1, 0.5) \
            == pytest.approx(-m1, abs=1e-16)


class TestWorkloadHelpers:
    def test_total_derivative_poly(self):
        import workloads
        one = (1, 0)
        # D(u u') = u'^2 + u u''
        assert workloads.total_derivative_poly({(0, 1): one}) == {
            (1, 1): one, (0, 2): one}
        # D(u^3) = 3 u^2 u'
        assert workloads.total_derivative_poly({(0, 0, 0): one}) == {
            (0, 0, 1): (3, 0)}

    def test_symmetrized_reference(self):
        import workloads
        val = workloads._symmetrized_reference(
            [lambda x: 2.0, lambda x: x], [(0.0, 1.0), (1.0, 1.0)],
            (0.0, 1.0))
        e = math.exp(-1)
        # identity order: 2 m0(0) * 1 m1(1); swapped: slot 1 at 0 vanishes
        assert val == pytest.approx(0.5 * 2 * e * 1 * e, abs=1e-16)


class TestRunner:
    def test_benchmark_json_lists_the_runner_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        assert [w["name"] for w in spec["workloads"]] == \
            list(run.WORKLOAD_NAMES)
        assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
            run.END_TO_END
        assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
            run.PER_LAYER

    def test_fails_without_the_program(self, tmp_path):
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
        shutil.copytree(HERE, tmp_path / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "renormalization",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""

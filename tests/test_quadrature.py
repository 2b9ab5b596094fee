"""Array evaluation of bumps and kernels, and the fixed-rule quadrature:
bumps against a scalar Taylor-series reference, broadcast kernels against
their closed forms, pairings against closed forms in the transforms
int f cos(wt) and int f sin(wt), and the non-convergence contract."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from bvfact import jetcalc, quadrature
from bvfact.freeq import (KERNEL_KINDS, Diagram, OscillatorModel,
                          PropagatorKernel, Vertex, eval_diagram, green,
                          pair_kernel)
from bvfact.numfields import Poly1D
from bvfact.quadrature import QuadratureError, integrate
from bvfact.region import (Region, mollifier, partition_of_unity,
                           smoothstep, window)


# ---------------------------------------------------------------------------
# Scalar reference: the node tree as Taylor-series arithmetic at one point
# ---------------------------------------------------------------------------

def _ref_mul(a, b):
    n = len(a)
    out = np.zeros(n)
    for i in range(n):
        if a[i]:
            out[i:] = out[i:] + a[i] * b[:n - i]
    return out


def _ref_div(a, b):
    if b[0] == 0:
        raise ZeroDivisionError
    n = len(a)
    out = np.zeros(n)
    for i in range(n):
        out[i] = (a[i] - sum(out[j] * b[i - j] for j in range(i))) / b[0]
    return out


def _ref_exp(a):
    n = len(a)
    out = np.zeros(n)
    out[0] = math.exp(a[0])
    for i in range(1, n):
        out[i] = sum(j * a[j] * out[i - j] for j in range(1, i + 1)) / i
    return out


def ref_series(node, t, n):
    """Taylor coefficients of a bump node at the float t, rows 0..n-1."""
    kind = type(node).__name__
    if kind == "_Const":
        out = np.zeros(n)
        out[0] = node.c
        return out
    if kind == "_Poly":
        out = np.zeros(n)
        for k, c in enumerate(node.coeffs):
            for j in range(min(k, n - 1) + 1):
                out[j] += c * math.comb(k, j) * t ** (k - j)
        return out
    if kind == "_Sum":
        return sum(ref_series(ch, t, n) for ch in node.children)
    if kind == "_Prod":
        out = None
        for ch in node.children:
            s = ref_series(ch, t, n)
            out = s if out is None else _ref_mul(out, s)
            if not out.any():
                return np.zeros(n)
        return out
    if kind == "_Quot":
        a = ref_series(node.num, t, n)
        if not a.any():
            return np.zeros(n)
        return _ref_div(a, ref_series(node.den, t, n))
    if kind == "_ExpInv":
        g = ref_series(node.arg, t, n)
        if g[0] <= 0:
            return np.zeros(n)
        if math.exp(-1.0 / g[0]) == 0.0:
            # exp(-1/g) has underflowed to 0, and so has every derivative
            return np.zeros(n)
        one = np.zeros(n)
        one[0] = 1.0
        return _ref_exp(-_ref_div(one, g))
    if kind == "_Deriv":
        s = ref_series(node.child, t, n + node.k)
        return np.array([s[j + node.k] * math.factorial(j + node.k)
                         / math.factorial(j) for j in range(n)])
    if kind == "_Reflect":
        s = ref_series(node.child, -t, n)
        return s * np.array([(-1.0) ** k for k in range(n)])
    raise AssertionError(kind)


_HALVES = st.integers(-4, 4).map(lambda k: Fraction(k, 4))
_RADII = st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])


@st.composite
def bumps(draw):
    """(bump, support edges) for the bump kinds built by `region`."""
    kind = draw(st.sampled_from(["mollifier", "window", "smoothstep",
                                 "partition", "deriv", "product"]))
    c, r = draw(_HALVES), draw(_RADII)
    if kind == "mollifier":
        return mollifier(c, r), [c - r, c + r]
    if kind == "window":
        return window(c - r, c - r / 2, c + r / 2, c + r), [c - r, c + r]
    if kind == "smoothstep":
        return smoothstep(c, c + r), [c, c + r]
    if kind == "partition":
        cover = [Region.interval(c - 1, c + Fraction(1, 2)),
                 Region.interval(c, c + Fraction(3, 2))]
        psis = partition_of_unity(cover, Region.interval(c - Fraction(1, 2),
                                                         c + 1))
        psi = psis[draw(st.integers(0, 1))]
        return psi, [float(x) for b in psi.support.boxes for x in b[0]]
    if kind == "deriv":
        return mollifier(c, r).d(draw(st.integers(1, 3))), [c - r, c + r]
    m = mollifier(c, r)
    return m * smoothstep(c - r / 2, c), [c - r, c + r]


class TestBumpValues:
    @settings(max_examples=60, deadline=None)
    @given(bumps(), st.integers(0, 3),
           st.lists(st.sampled_from([-0.3, -1e-3, 0.0, 1e-3, 0.3]),
                    min_size=1, max_size=4),
           st.lists(st.floats(0, 1), min_size=1, max_size=4),
           st.lists(st.floats(-2, 2), max_size=4))
    @example((mollifier(0, Fraction(1, 4)) * smoothstep(Fraction(-1, 8), 0),
              [Fraction(-1, 4), Fraction(1, 4)]),
             2, [0.0], [0.5], [-1.0017e-256])
    def test_values_match_scalar_series(self, bump, order, offsets, inner,
                                        extra):
        b, edges = bump
        lo, hi = float(min(edges)), float(max(edges))
        pts = [float(e) + o for e in edges for o in offsets] + \
            [lo + x * (hi - lo) for x in inner] + extra
        got = b.values(np.array(pts), order)
        assert got.shape == (order + 1, len(pts))
        for i, t in enumerate(pts):
            # within ~1e-150 of an edge the reference's derivative rows are
            # inf * 0 = nan; exp(-1/g) has underflowed to 0 there, and so
            # has every derivative
            with np.errstate(over="ignore", invalid="ignore"):
                want = ref_series(b.node, t, order + 1)
            want = np.nan_to_num(want, nan=0.0)
            scale = 1.0 + np.abs(want)
            assert np.all(np.abs(got[:, i] - want) <= 1e-12 * scale)
            assert np.all(np.abs(b.series(t, order) - want) <= 1e-12 * scale)

    def test_shapes_and_wrappers(self):
        m = mollifier(0, Fraction(1, 2))
        ts = np.array([[-0.2, 0.1], [0.3, 0.7]])
        assert m.values(ts, 2).shape == (3, 2, 2)
        assert m(ts).shape == (2, 2)
        assert np.allclose(m(ts), [[m(t) for t in row] for row in ts])
        assert isinstance(m(0.1), float) and isinstance(m.deriv(0.1, 2), float)
        d = m.derivs(0.1, 2)
        assert np.allclose(d, [m(0.1), m.deriv(0.1, 1), m.deriv(0.1, 2)])
        assert m.deriv(ts, 1).shape == (2, 2)


class TestKernelBroadcast:
    @staticmethod
    def closed_form(kind, w, tau):
        if kind == "retarded":
            return -math.sin(w * tau) / w if tau > 0 else 0.0
        if kind == "advanced":
            return math.sin(w * tau) / w if tau < 0 else 0.0
        if kind == "pauli-jordan":
            return -math.sin(w * tau) / w
        if kind == "symmetric":
            return math.cos(w * tau) / (2 * w)
        if kind == "wightman":
            return cmath.exp(-1j * w * tau) / (2 * w)
        return cmath.exp(-1j * w * abs(tau)) / (2 * w)

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_broadcast_equals_scalar(self, kind):
        taus = np.array([-2.5, -0.7, -1e-9, 0.0, 1e-9, 0.4, 3.1])
        for w in (0.5, 1.0, 2.0):
            k = PropagatorKernel(kind, w)
            arr = k.value(taus)
            assert arr.shape == taus.shape
            for tau, v in zip(taus, arr):
                assert abs(k.value(float(tau)) - v) < 1e-15
                assert abs(v - self.closed_form(kind, w, tau)) < 1e-15
            grid = k.value(taus[:, None] - taus[None, :])
            assert grid.shape == (7, 7)

    def test_massless_real_kernels_broadcast(self):
        taus = np.array([-1.5, 0.0, 1.5])
        assert list(PropagatorKernel("retarded", 0).value(taus)) == \
            [0.0, 0.0, -1.5]
        assert list(PropagatorKernel("advanced", 0).value(taus)) == \
            [-1.5, 0.0, 0.0]


def _transforms(center, radius, w):
    """(int f cos(w t) dt, int f sin(w t) dt) for the mollifier f, by
    adaptive quadrature of its formula."""
    def f(t):
        s = (t - center) / radius
        return math.exp(-1.0 / (1.0 - s * s)) if abs(s) < 1 else 0.0
    lo, hi = center - radius, center + radius
    c, _ = quad(lambda t: f(t) * math.cos(w * t), lo, hi, epsabs=1e-13,
                epsrel=1e-13, limit=200)
    s, _ = quad(lambda t: f(t) * math.sin(w * t), lo, hi, epsabs=1e-13,
                epsrel=1e-13, limit=200)
    return c, s


class TestPairingClosedForms:
    F = (0.25, 0.5)
    G = (0.5, 0.25)

    @pytest.mark.parametrize("w", [0.5, 1.0, 2.0])
    def test_pairings(self, w):
        f, g = (mollifier(Fraction(c), Fraction(r)) for c, r in (self.F,
                                                                 self.G))
        cf, sf = _transforms(*self.F, w)
        cg, sg = _transforms(*self.G, w)
        model = OscillatorModel(w)
        sym = (cf * cg + sf * sg) / (2 * w)
        pj = -(sf * cg - cf * sg) / w
        wig = complex(cf, -sf) * complex(cg, sg) / (2 * w)
        assert abs(pair_kernel(green(model, "symmetric"), f, g) - sym) < 1e-10
        assert abs(pair_kernel(green(model, "pauli-jordan"), f, g) - pj) \
            < 1e-10
        assert abs(pair_kernel(green(model, "wightman"), f, g) - wig) < 1e-10
        # the retarded and advanced kernels have their kink inside the
        # overlapping supports; their difference is the Pauli-Jordan kernel
        ra = pair_kernel(green(model, "retarded"), f, g) - \
            pair_kernel(green(model, "advanced"), f, g)
        assert abs(ra - pj) < 1e-10

    def test_three_vertex_diagram_factorizes(self):
        # a vertex with no edges contributes its own integral as a factor
        f, g, h = (mollifier(Fraction(c), Fraction(1, 2)) for c in (0, 1, 3))
        model = OscillatorModel(1)
        fields = {"u": Poly1D([0.7, 0.1])}
        d2 = Diagram([Vertex(u=1, w=f), Vertex(u=1, w=g)],
                     [(0, 1, "feynman", 1)])
        d3 = Diagram([Vertex(u=1, w=f), Vertex(u=1, w=g), Vertex(w=h)],
                     [(0, 1, "feynman", 1)])
        hh, _ = quad(h, 2.5, 3.5, epsabs=1e-13, epsrel=1e-13)
        assert abs(eval_diagram(d3, model, fields, tol=1e-9)
                   - eval_diagram(d2, model, fields, tol=1e-9) * hh) < 1e-9


class TestConvergenceContract:
    def test_unreachable_tolerance_raises(self):
        calls = []

        def step(x):
            calls.append(x.size)
            return np.where(x < 0.1, 1.0, 0.0)
        with pytest.raises(QuadratureError) as info:
            integrate(step, [(-1.0, 1.0)], tol=1e-14)
        err = info.value
        assert err.error > 1e-14 and err.nodes == quadrature.N_MAX
        assert abs(err.estimate - 1.1) < 1e-2
        assert calls[-1] == quadrature.N_MAX

    def test_smooth_integrand_converges(self):
        v = integrate(lambda t, s: np.exp(-(t - s) ** 2), [(0, 1), (0, 1)],
                      tol=1e-13, kinks=[(0, 1)])
        exact = math.sqrt(math.pi) * math.erf(1) + math.exp(-1) - 1
        assert abs(v - exact) < 1e-13

    def test_complex_in_one_pass(self):
        v = integrate(lambda t: np.exp(1j * t), [(0, math.pi)], tol=1e-13)
        assert isinstance(v, complex) and abs(v - 2j) < 1e-13

    def test_jetcalc_reexports(self):
        assert jetcalc.QuadratureError is QuadratureError

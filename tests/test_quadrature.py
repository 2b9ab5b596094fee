"""Array evaluation of bumps and kernels, and the fixed-rule quadrature:
bumps against a scalar Taylor-series reference, broadcast kernels against
their closed forms, pairings against closed forms in the transforms
int f cos(wt) and int f sin(wt), the non-convergence contract, the
composite grid's cumulative integrals, the kernels' separable tables, and
the ordered diagram evaluator against the tensor rule of `tensor_rule`."""

import cmath
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from bvfact import jetcalc, quadrature
from bvfact.freeq import (KERNEL_KINDS, Diagram, OscillatorModel,
                          PropagatorKernel, Vertex, _factor, eval_diagram,
                          green, pair_kernel)
from bvfact.numfields import Harmonic1D, Poly1D
from bvfact.quadrature import QuadratureError, integrate
from bvfact.region import Region, mollifier, partition_of_unity, window
from tensor_rule import tensor_integrate


# ---------------------------------------------------------------------------
# Scalar reference: the node tree as Taylor-series arithmetic at one point
# ---------------------------------------------------------------------------

# in 40-digit decimal arithmetic: where a coefficient is a small difference
# of large terms (a high derivative near its zero), a float series would
# carry the rounding of those terms, relative to the coefficient

_D0 = Decimal(0)


def _ref_mul(a, b):
    return [sum((a[j] * b[i - j] for j in range(i + 1)), _D0)
            for i in range(len(a))]


def _ref_div(a, b):
    if b[0] == 0:
        raise ZeroDivisionError
    out = []
    for i in range(len(a)):
        out.append((a[i] - sum((out[j] * b[i - j] for j in range(i)), _D0))
                   / b[0])
    return out


def _ref_exp(a):
    out = [a[0].exp()]
    for i in range(1, len(a)):
        out.append(sum((j * a[j] * out[i - j] for j in range(1, i + 1)), _D0)
                   / i)
    return out


def _ref(node, t, n):
    kind = type(node).__name__
    if kind == "_Const":
        return [Decimal(node.c)] + [_D0] * (n - 1)
    if kind == "_Poly":
        out = [_D0] * n
        for k, c in enumerate(node.coeffs):
            for j in range(min(k, n - 1) + 1):
                # Decimal 0 ** 0 is an invalid operation
                out[j] += (Decimal(c) * math.comb(k, j)
                           * (t ** (k - j) if k > j else 1))
        return out
    if kind == "_Sum":
        return [sum(rs, _D0) for rs in zip(*(_ref(ch, t, n)
                                             for ch in node.children))]
    if kind == "_Prod":
        out = None
        for ch in node.children:
            s = _ref(ch, t, n)
            out = s if out is None else _ref_mul(out, s)
            if not any(out):
                return [_D0] * n
        return out
    if kind == "_Quot":
        a = _ref(node.num, t, n)
        if not any(a):
            return [_D0] * n
        return _ref_div(a, _ref(node.den, t, n))
    if kind == "_ExpInv":
        g = _ref(node.arg, t, n)
        if g[0] <= 0:
            return [_D0] * n
        if math.exp(-1.0 / float(g[0])) == 0.0:
            # exp(-1/g) is below the float range, and so is every derivative
            return [_D0] * n
        one = [Decimal(1)] + [_D0] * (n - 1)
        return _ref_exp([-r for r in _ref_div(one, g)])
    if kind == "_Deriv":
        s = _ref(node.child, t, n + node.k)
        return [s[j + node.k] * math.factorial(j + node.k) / math.factorial(j)
                for j in range(n)]
    raise AssertionError(kind)


def ref_series(node, t, n):
    """Taylor coefficients of a bump node at the float t, rows 0..n-1."""
    with localcontext(prec=40):
        return np.array([float(r) for r in _ref(node, Decimal(t), n)])


_HALVES = st.integers(-4, 4).map(lambda k: Fraction(k, 4))
_RADII = st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])


@st.composite
def bumps(draw):
    """(bump, support edges) for the bump kinds built by `region`."""
    kind = draw(st.sampled_from(["mollifier", "window", "step",
                                 "partition", "deriv", "product"]))
    c, r = draw(_HALVES), draw(_RADII)
    if kind == "mollifier":
        return mollifier(c, r), [c - r, c + r]
    if kind == "window":
        return window(c - r, c - r / 2, c + r / 2, c + r), [c - r, c + r]
    if kind == "step":
        # a window whose plateau runs past every sampled point: a step up
        return window(c, c + r, c + 8, c + 9), [c, c + r]
    if kind == "partition":
        cover = [Region.interval(c - 1, c + Fraction(1, 2)),
                 Region.interval(c, c + Fraction(3, 2))]
        psis = partition_of_unity(cover, Region.interval(c - Fraction(1, 2),
                                                         c + 1))
        psi = psis[draw(st.integers(0, 1))]
        # each cover element is one interval, so psi's support is one too
        return psi, [float(x) for x in psi.support.bounds()]
    if kind == "deriv":
        return mollifier(c, r).d(draw(st.integers(1, 3))), [c - r, c + r]
    m = mollifier(c, r)
    return m * window(c - r / 2, c, c + 8, c + 9), [c - r, c + r]


class TestBumpValues:
    @settings(max_examples=60, deadline=None)
    @given(bumps(), st.integers(0, 3),
           st.lists(st.sampled_from([-0.3, -1e-3, 0.0, 1e-3, 0.3]),
                    min_size=1, max_size=4),
           st.lists(st.floats(0, 1), min_size=1, max_size=4),
           st.lists(st.floats(-2, 2), max_size=4))
    @example((mollifier(0, Fraction(1, 4))
              * window(Fraction(-1, 8), 0, 8, 9),
              [Fraction(-1, 4), Fraction(1, 4)]),
             2, [0.0], [0.5], [-1.0017e-256])
    @example((mollifier(Fraction(-1, 4), Fraction(1, 4)).d(2),
              [Fraction(-1, 2), Fraction(0)]),
             3, [-0.3], [0.33577451919846585], [])
    def test_values_match_scalar_series(self, bump, order, offsets, inner,
                                        extra):
        b, edges = bump
        lo, hi = float(min(edges)), float(max(edges))
        pts = [float(e) + o for e in edges for o in offsets] + \
            [lo + x * (hi - lo) for x in inner] + extra
        got = b.values(np.array(pts), order)
        assert got.shape == (order + 1, len(pts))
        for i, t in enumerate(pts):
            want = ref_series(b.node, t, order + 1)
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
            integrate(step, (-1.0, 1.0), tol=1e-14)
        err = info.value
        assert err.error > 1e-14 and err.nodes == quadrature.N_MAX
        assert abs(err.estimate - 1.1) < 1e-2
        assert calls[-1] == quadrature.N_MAX

    def test_smooth_integrand_converges(self):
        v = integrate(lambda t: np.exp(-t * t), (0, 1), tol=1e-13)
        assert abs(v - math.sqrt(math.pi) / 2 * math.erf(1)) < 1e-13
        # the reference rule of the ordered evaluator, on a kernel of t - s
        v = tensor_integrate(lambda t, s: np.exp(-(t - s) ** 2),
                             [(0, 1), (0, 1)], tol=1e-13)
        exact = math.sqrt(math.pi) * math.erf(1) + math.exp(-1) - 1
        assert abs(v - exact) < 1e-13

    def test_complex_in_one_pass(self):
        v = integrate(lambda t: np.exp(1j * t), (0, math.pi), tol=1e-13)
        assert isinstance(v, complex) and abs(v - 2j) < 1e-13

    def test_jetcalc_reexports(self):
        assert jetcalc.QuadratureError is QuadratureError


# ---------------------------------------------------------------------------
# The composite grid and the ordered evaluator
# ---------------------------------------------------------------------------

class TestCompositeGrid:
    PANELS = [(-1.0, -0.25), (-0.25, 0.5), (1.5, 2.0)]  # a gap at (0.5, 1.5)

    @pytest.mark.parametrize("n", [4, 32, 64])
    def test_cumulative_exact_on_polynomials(self, n):
        grid = quadrature.Grid(self.PANELS, n)
        t = grid.nodes
        for k in (1, 2, n):
            # f = d/dt (t/2)^k, of degree k - 1 < n, is 0 in the gap
            def prim(x):
                return (x / 2) ** k - (-0.5) ** k
            gap = prim(1.5) - prim(0.5)
            f = k / 2 * (t / 2) ** (k - 1)
            want = np.where(t < 1, prim(t), prim(t) - gap)
            assert np.max(np.abs(grid.cumulative(f) - want)) < 1e-13
            assert abs(grid.integral(f) - (prim(2.0) - gap)) < 1e-13

    def test_cumulative_of_an_oscillation(self):
        grid = quadrature.Grid(self.PANELS, 32)
        t = grid.nodes
        got = grid.cumulative(np.exp(3j * t))
        prim = np.exp(3j * t) / 3j - np.exp(-3j) / 3j
        gap = (np.exp(4.5j) - np.exp(1.5j)) / 3j
        assert np.max(np.abs(got - np.where(t < 1, prim, prim - gap))) < 1e-13


_MASSLESS = ("retarded", "advanced", "pauli-jordan")


class TestSeparableTables:
    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    @pytest.mark.parametrize("w", [0.0, 0.5, 1.0, 2.0])
    def test_terms_sum_to_the_kernel(self, kind, w):
        if w == 0 and kind not in _MASSLESS:
            with pytest.raises(ValueError, match="vacuum kernel"):
                PropagatorKernel(kind, w).terms(1)
            return
        k = PropagatorKernel(kind, w)
        rng = np.random.default_rng(7)
        tx, ty = rng.uniform(-3, 3, (2, 200))
        tau = tx - ty
        for side in (1, -1):
            total = sum(c * _factor(fx, w, tx) * _factor(fy, w, ty)
                        for c, fx, fy in k.terms(side))
            want = np.where(side * tau > 0, k.value(tau), 0.0)
            got = np.where(side * tau > 0, total, 0.0)
            assert np.max(np.abs(got - want)) < 1e-13


def _reference(diag, model, fields, tol):
    """The diagram's integral by the tensor rule of `tensor_rule`, with the
    closed-form kernels of `PropagatorKernel.value`."""
    kernels = {k: PropagatorKernel(k, model.omega) for _, _, k, _ in
               diag.edges}

    def factor(v, t):
        out = v.w(t)
        if v.u:
            out = out * fields["u"].jet(t, (0,)) ** v.u
        if v.p:
            out = out * -(fields["u"].jet(t, (2,)) + model.omega ** 2
                          * fields["u"].jet(t, (0,))) ** v.p
        if v.au:
            out = out * fields["u~"].jet(t, (0,)) ** v.au
        return out

    def func(*ts):
        val = 1.0
        for v, t in zip(diag.verts, ts):
            val = val * factor(v, t)
        for a, b, k, o in diag.edges:
            val = val * kernels[k].value(o * (ts[a] - ts[b]))
        return val
    return tensor_integrate(func, [v.w.support.bounds() for v in diag.verts],
                            tol)


_CENTRES = st.integers(-4, 4).map(lambda k: Fraction(k, 4))
_SMALL_RADII = st.sampled_from([Fraction(1, 4), Fraction(1, 2)])


@st.composite
def _diagrams(draw):
    """(diagram, omega, fields): 2 or 3 vertices with u, u~ and (Pu) legs
    on mollifiers whose supports overlap, touch, nest or are disjoint;
    kernel edges of every kind in both orientations, two of them at most
    between a pair of vertices; omega = 0 only for the Pauli-Jordan family;
    polynomial or harmonic fields."""
    n = draw(st.sampled_from([2, 3]))
    omega = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    kinds = _MASSLESS if omega == 0 else KERNEL_KINDS
    verts = [Vertex(u=draw(st.integers(0, 2)), au=draw(st.integers(0, 1)),
                    p=draw(st.integers(0, 1)),
                    w=mollifier(draw(_CENTRES), draw(_SMALL_RADII)))
             for _ in range(n)]
    edges = []
    for a, b in [(0, 1)] if n == 2 else [(0, 1), (0, 2), (1, 2)]:
        for _ in range(draw(st.integers(1, 2) if n == 2 else
                            st.integers(0, 1))):
            edges.append((a, b, draw(st.sampled_from(kinds)),
                          draw(st.sampled_from([1, -1]))))
    coeffs = st.floats(-1.5, 1.5, allow_nan=False)

    def field():
        if draw(st.booleans()):
            return Poly1D([draw(coeffs) for _ in range(3)])
        return Harmonic1D(draw(coeffs), draw(coeffs),
                          draw(st.sampled_from([0.5, 1.0, 2.0])))
    return Diagram(verts, edges), omega, {"u": field(), "u~": field()}


class TestOrderedEvaluator:
    TOL = 1e-8

    @settings(max_examples=40, deadline=None)
    @given(_diagrams())
    def test_equals_the_tensor_rule(self, case):
        diag, omega, fields = case
        model = OscillatorModel(omega)
        v = eval_diagram(diag, model, fields, tol=self.TOL)
        ref = _reference(diag, model, fields, self.TOL * 1e-1)
        assert abs(v - ref) <= max(self.TOL, self.TOL * abs(ref))

    def test_disconnected_four_vertices_factorize(self):
        f, g, h, k = (mollifier(Fraction(c), Fraction(1, 4))
                      for c in (0, 1, 2, 3))
        model = OscillatorModel(1)
        d = Diagram([Vertex(w=f), Vertex(w=g), Vertex(w=h), Vertex(w=k)],
                    [(0, 2, "retarded", 1), (1, 3, "feynman", 1)])
        want = pair_kernel(green(model, "retarded"), f, h) * \
            pair_kernel(green(model, "feynman"), g, k)
        assert abs(eval_diagram(d, model, {}) - want) < 1e-12

    def test_connected_four_vertices_raise(self):
        bumps = [mollifier(Fraction(c, 2), Fraction(1, 2)) for c in range(4)]
        d = Diagram([Vertex(w=b) for b in bumps],
                    [(i, i + 1, "feynman", 1) for i in range(3)])
        with pytest.raises(NotImplementedError, match="at most 3 vertices"):
            eval_diagram(d, OscillatorModel(1), {})

    def test_tadpole_is_the_kernel_at_zero(self):
        f = mollifier(0, Fraction(1, 2))
        model = OscillatorModel(2)
        one = eval_diagram(Diagram([Vertex(w=f)], []), model, {})
        for kind in KERNEL_KINDS:
            d = Diagram([Vertex(w=f)], [(0, 0, kind, 1)])
            want = one * PropagatorKernel(kind, 2).value(0.0)
            assert abs(eval_diagram(d, model, {}) - want) < 1e-15


def _two_sided_pairing(kernel, f, g, tol, fderiv=0):
    """The pairing by the reference rule: supp f x supp g, the s-interval
    cut at s = t."""
    return tensor_integrate(lambda t, s: f.deriv(t, fderiv)
                            * kernel.value(t - s) * g(s),
                            [f.support.bounds(), g.support.bounds()], tol)


_EIGHTHS = st.integers(-8, 8).map(lambda k: Fraction(k, 8))


class TestCausalPairings:
    @settings(max_examples=25, deadline=None)
    @given(_EIGHTHS, _RADII, _EIGHTHS, _RADII, st.sampled_from([0.5, 1, 2]),
           st.sampled_from([0, 2]))
    def test_retarded_and_advanced(self, fc, fr, gc, gr, w, fderiv):
        f, g = mollifier(fc, fr), mollifier(gc, gr)
        model = OscillatorModel(w)
        ra = []
        for kind in ("retarded", "advanced"):
            k = green(model, kind)
            v = pair_kernel(k, f.d(fderiv), g)
            assert abs(v - _two_sided_pairing(k, f, g, 1e-10, fderiv)) \
                < 1e-10
            ra.append(v)
        if fderiv == 0:
            cf, sf = _transforms(float(fc), float(fr), w)
            cg, sg = _transforms(float(gc), float(gr), w)
            assert abs(ra[0] - ra[1] + (sf * cg - cf * sg) / w) < 1e-10

    @pytest.mark.parametrize("gap", [Fraction(0), Fraction(1, 4)])
    def test_zero_outside_the_causal_future(self, gap):
        # supp g (touching or) wholly after supp f: Delta^R(t - s) = 0
        f = mollifier(Fraction(0), Fraction(1, 2))
        g = mollifier(Fraction(3, 4) + gap, Fraction(1, 4))
        model = OscillatorModel(1)
        assert pair_kernel(green(model, "retarded"), f, g) == 0.0
        assert pair_kernel(green(model, "advanced"), g, f) == 0.0
        assert pair_kernel(green(model, "retarded"), f.d(2), g) == 0.0
        assert pair_kernel(green(model, "advanced"), f, g) != 0.0

    @pytest.mark.parametrize("kind", ["retarded", "advanced"])
    @pytest.mark.parametrize("orient", [1, -1])
    @pytest.mark.parametrize("gc", [Fraction(1, 4), Fraction(3, 2),
                                    Fraction(-3, 2)])
    def test_two_vertex_diagram_equals_pairing(self, kind, orient, gc):
        f = mollifier(Fraction(0), Fraction(1, 2))
        g = mollifier(gc, Fraction(1, 4))
        model = OscillatorModel(1)
        d = Diagram([Vertex(w=f), Vertex(w=g)], [(0, 1, kind, orient)])
        ref = pair_kernel(green(model, kind), *((f, g) if orient > 0
                                                else (g, f)))
        assert abs(eval_diagram(d, model, {}) - ref) < 1e-10

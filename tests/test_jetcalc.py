"""Jet-space calculus: total derivatives, the form complex, Euler-Lagrange
operators, divergence primitives, and local-functional evaluation."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bvfact.symexpr import Expr, QI, Symbol
from bvfact.jetcalc import (jet, JetExpr, LagForm, total_derivative,
                            horizontal_diff, euler_lagrange,
                            euler_lagrange_density, is_total_divergence,
                            homotopy_primitive, NotClosedError,
                            ExactnessDefect, evaluate_local, parse_jetexpr,
                            jetexpr_to_text)
from bvfact.jetcalc import testfn as tfn, xsym
from bvfact.region import mollifier
from bvfact.numfields import Poly1D


def random_jetexpr(rng, dim=1, nterm=3, maxdeg=3, maxord=2, grades=None):
    names = list(grades or {"u": 0, "v": 0})
    e = Expr.zero()
    for _ in range(nterm):
        coeff = QI(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-2, 2)))
        m = Expr.const(coeff)
        for _ in range(rng.randint(1, maxdeg)):
            nm = rng.choice(names)
            counts = [rng.randint(0, maxord) for _ in range(dim)]
            while counts and counts[-1] == 0:
                counts.pop()
            m = m * Expr.sym(jet(nm, tuple(counts),
                                 (grades or {}).get(nm, 0)))
        e = e + m
    return JetExpr(e, dim)


class TestTotalDerivative:
    def test_leibniz_even(self):
        rng = random.Random(0)
        for _ in range(20):
            f = random_jetexpr(rng)
            g = random_jetexpr(rng)
            lhs = total_derivative(f * g, 0)
            rhs = total_derivative(f, 0) * g + f * total_derivative(g, 0)
            assert (lhs - rhs).is_zero()

    def test_leibniz_odd(self):
        c1 = JetExpr.of(jet("c1", (), -1), 1)
        c2 = JetExpr.of(jet("c2", (), -1), 1)
        lhs = total_derivative(c1 * c2, 0)
        rhs = total_derivative(c1, 0) * c2 + c1 * total_derivative(c2, 0)
        assert (lhs - rhs).is_zero()

    def test_base_index_out_of_range(self):
        f = JetExpr.of(jet("u"), 2)
        for i in (-1, 2):
            with pytest.raises(IndexError):
                total_derivative(f, i)

    def test_commutativity_dim2(self):
        rng = random.Random(1)
        for _ in range(30):
            f = random_jetexpr(rng, dim=2)
            a = total_derivative(total_derivative(f, 0), 1)
            b = total_derivative(total_derivative(f, 1), 0)
            assert (a - b).is_zero()


class TestFormComplex:
    def test_degree_and_keys_checked(self):
        u = JetExpr.of(jet("u"), 2)
        with pytest.raises(ValueError, match="degree"):
            LagForm(3, 2)
        for key in ((1, 0), (0, 0), (0,)):
            with pytest.raises(ValueError, match="strictly increasing"):
                LagForm(2, 2, {key: u})

    def test_euler_lagrange_needs_a_top_form(self):
        with pytest.raises(ValueError, match="top-degree"):
            euler_lagrange(LagForm(0, 1, {(): JetExpr.of(jet("u"), 1)}))

    def test_d_squared_zero(self):
        rng = random.Random(2)
        for _ in range(30):
            om = LagForm(0, 2, {(): random_jetexpr(rng, dim=2)})
            dd = horizontal_diff(horizontal_diff(om))
            assert dd.is_zero()

    def test_euler_lagrange_kills_divergences(self):
        rng = random.Random(3)
        for _ in range(30):
            f = random_jetexpr(rng)
            div = LagForm.top(total_derivative(f, 0), 1)
            els = euler_lagrange(div)
            assert all(v.is_zero() for v in els.values())

    def test_harmonic_oscillator_equation(self):
        ut = JetExpr.of(jet("u", (1,), 0), 1)
        u = JetExpr.of(jet("u", (), 0), 1)
        L = JetExpr.of(Fraction(1, 2), 1) * (ut * ut - u * u)
        el = euler_lagrange_density(L)[("u", 0)]
        utt = JetExpr.of(jet("u", (2,), 0), 1)
        assert (el + (utt + u)).is_zero()


class TestHomotopyPrimitive:
    def test_primitives_of_divergences(self):
        rng = random.Random(4)
        for _ in range(25):
            f = random_jetexpr(rng, nterm=2, maxdeg=2, grades={"u": 0})
            omega = LagForm.top(total_derivative(f, 0), 1)
            eta, obstruction = homotopy_primitive(omega)
            assert not obstruction
            d_eta = total_derivative(eta.component(()), 0)
            assert (d_eta.expr - omega.component((0,)).expr).is_zero()

    def test_constant_obstruction(self):
        omega = LagForm(0, 1, {(): JetExpr.const(QI(Fraction(5, 2)), 1)})
        eta, obstruction = homotopy_primitive(omega)
        assert obstruction == QI(Fraction(5, 2))
        assert eta.is_zero()

    def test_nonexact_top_form_reports_defect(self):
        u = JetExpr.of(jet("u", (), 0), 1)
        with pytest.raises(ExactnessDefect):
            homotopy_primitive(LagForm.top(u * u, 1))

    def test_nonclosed_rejected(self):
        u = JetExpr.of(jet("u", (), 0), 1)
        with pytest.raises(NotClosedError):
            homotopy_primitive(LagForm(0, 1, {(): u}))
        # unchecked, a 0-form that is not a constant is still refused
        with pytest.raises(NotClosedError):
            homotopy_primitive(LagForm(0, 1, {(): u + 1}), check=False)

    @staticmethod
    def _random_mixed(rng, dim):
        """Even and odd field jets, test-function jets and x factors, with
        a field-independent polynomial in x as one term."""
        grades = {"u": 0, "c": 1, "b": -1}
        e = Expr.sym(xsym(rng.randrange(dim))) ** rng.randint(1, 2)
        for _ in range(rng.randint(1, 3)):
            m = Expr.const(QI(rng.randint(-3, 3), rng.randint(-2, 2)))
            for _ in range(rng.randint(1, 3)):
                mu = [rng.randint(0, 2) for _ in range(dim)]
                while mu and mu[-1] == 0:
                    mu.pop()
                kind = rng.random()
                if kind < 0.2:
                    m = m * Expr.sym(xsym(rng.randrange(dim)))
                elif kind < 0.4:
                    m = m * Expr.sym(tfn("w", tuple(mu)))
                else:
                    nm = rng.choice(sorted(grades))
                    m = m * Expr.sym(jet(nm, tuple(mu), grades[nm]))
            e = e + m
        return JetExpr(e, dim)

    def test_primitives_of_mixed_dim2_divergences(self):
        rng = random.Random(6)
        for _ in range(20):
            f, g = self._random_mixed(rng, 2), self._random_mixed(rng, 2)
            omega = LagForm.top(total_derivative(f, 0) + total_derivative(g, 1), 2)
            eta, obstruction = homotopy_primitive(omega)
            assert not obstruction
            assert horizontal_diff(eta) == omega

    def test_testfunction_obstruction_is_defect(self):
        w = JetExpr.of(tfn("w"), 1)
        with pytest.raises(ExactnessDefect):
            homotopy_primitive(LagForm.top(w, 1))

    def test_intermediate_degree(self):
        u = JetExpr.of(jet("u", (), 0), 2)
        x0 = JetExpr.of(xsym(0), 2)
        closed = horizontal_diff(LagForm(0, 2, {(): x0 * u * u}))
        with pytest.raises(NotImplementedError):
            homotopy_primitive(closed)
        with pytest.raises(NotClosedError):
            homotopy_primitive(LagForm(1, 2, {(0,): u}))


class TestIsTotalDivergence:
    def test_accepts_divergence(self):
        rng = random.Random(5)
        for _ in range(10):
            f = random_jetexpr(rng)
            assert is_total_divergence(total_derivative(f, 0))

    def test_rejects_mass_term(self):
        u = JetExpr.of(jet("u", (), 0), 1)
        assert not is_total_divergence(u * u)


class TestEvaluateLocal:
    def test_polynomial_oracle(self):
        # int (u^2 + u') w with u(t) = t on supp w = (0,1)
        from scipy.integrate import quad
        u = JetExpr.of(jet("u", (), 0), 1)
        ut = JetExpr.of(jet("u", (1,), 0), 1)
        w = mollifier(Fraction(1, 2), Fraction(1, 2))
        got = evaluate_local(LagForm.top(u * u + ut, 1), w,
                             {"u": Poly1D([0.0, 1.0])})
        want, _ = quad(lambda t: (t * t + 1) * w(t), 0, 1,
                       epsabs=1e-12, epsrel=1e-12)
        assert abs(got - want) < 1e-10

    def test_complex_density_imaginary_part(self):
        u = JetExpr.of(jet("u", (), 0), 1)
        w = mollifier(0, Fraction(1, 2))
        fields = {"u": Poly1D([1])}
        re = evaluate_local(LagForm.top(u, 1), w, fields, tol=1e-8)
        im = evaluate_local(LagForm.top(u * QI(0, 1), 1), w, fields,
                            tol=1e-8)
        assert isinstance(re, float) and isinstance(im, complex)
        assert re > 0.2
        assert abs(im - 1j * re) < 1e-9

    def test_dim2_form_raises(self):
        u = JetExpr.of(jet("u", (), 0), 2)
        w = mollifier(0, Fraction(1, 2))
        with pytest.raises(NotImplementedError):
            evaluate_local(LagForm.top(u, 2), w, {"u": Poly1D([1])})

    def test_base_coordinate_is_the_point(self):
        # int t u w with u = 2 on supp w = (0, 1)
        from scipy.integrate import quad
        x0 = JetExpr.of(xsym(0), 1)
        u = JetExpr.of(jet("u"), 1)
        w = mollifier(Fraction(1, 2), Fraction(1, 2))
        got = evaluate_local(LagForm.top(x0 * u, 1), w, {"u": Poly1D([2.0])})
        want, _ = quad(lambda t: 2 * t * w(t), 0, 1,
                       epsabs=1e-12, epsrel=1e-12)
        assert abs(got - want) < 1e-10

    def test_field_without_sample_raises_naming_it(self):
        uv = JetExpr.of(jet("u"), 1) * JetExpr.of(jet("v"), 1)
        w = mollifier(0, Fraction(1, 2))
        with pytest.raises(KeyError, match="field 'v'"):
            evaluate_local(LagForm.top(uv, 1), w, {"u": Poly1D([1])})

    def test_non_top_form_raises(self):
        u = JetExpr.of(jet("u"), 1)
        w = mollifier(0, Fraction(1, 2))
        with pytest.raises(ValueError, match="top-degree"):
            evaluate_local(LagForm(0, 1, {(): u}), w, {"u": Poly1D([1])})

    def test_weight_of_empty_support_gives_zero(self):
        u = JetExpr.of(jet("u"), 1)
        w = mollifier(0, Fraction(1, 4)) * mollifier(1, Fraction(1, 4))
        assert w.support.bounds() is None
        assert evaluate_local(LagForm.top(u, 1), w, {"u": Poly1D([1])}) == 0.0

    def test_test_function_symbol_raises_naming_it(self):
        u = JetExpr.of(jet("u", (), 0), 1)
        f = JetExpr.of(tfn("f", ()), 1)
        w = mollifier(0, Fraction(1, 2))
        with pytest.raises(KeyError, match="test function 'f'"):
            evaluate_local(LagForm.top(f * u, 1), w, {"u": Poly1D([1])})


class TestTextRoundtrip:
    def test_parse_and_print(self):
        for text in ("u^2 + u.d[1]", "1/2*u*u.d[1] - u", "u*v - v*u"):
            je = parse_jetexpr(text)
            je2 = parse_jetexpr(jetexpr_to_text(je))
            assert (je - je2).is_zero()

    def test_testnames_become_test_functions(self):
        got = parse_jetexpr("f*u.d[1] + f.d[2]", testnames=["f"])
        f = JetExpr.of(tfn("f"), 1)
        assert got == f * JetExpr.of(jet("u", (1,)), 1) + \
            JetExpr.of(tfn("f", (2,)), 1)

    def test_trailing_zero_indices(self):
        # u.d[1,0] and u.d[1] both name d_0 u
        assert parse_jetexpr("u.d[1,0] - u.d[1]", dim=2).is_zero()
        assert jet("u", (0, 2, 0)) == jet("u", (0, 2))
        assert tfn("f", (0,)) == tfn("f")


# ---------------------------------------------------------------------------
# The total derivative against the per-symbol chain rule and against the
# Leibniz rule on each monomial
# ---------------------------------------------------------------------------

def _td_per_symbol(f, i):
    """D_i f = sum_s (d^R f/ds) s', one right derivative per symbol."""
    out = Expr.zero()
    for s in f.expr.symbols():
        if s.ns == "x":
            if s.index[0] == i:
                out = out + f.expr.dright(s)
            continue
        mu = list(s.index) + [0] * (i + 1 - len(s.index))
        mu[i] += 1
        out = out + f.expr.dright(s) * Expr.sym(
            Symbol(s.ns, s.name, tuple(mu), s.grade))
    return out


def _td_leibniz(f, i):
    """D_i f by the Leibniz rule of the even derivation D_i: each factor s^e
    of a monomial, in place, becomes e s^(e-1) s'; no partial derivative."""
    def prolonged(s):
        if s.ns == "x":
            return Expr.const(1 if s.index[0] == i else 0)
        mu = list(s.index) + [0] * (i + 1 - len(s.index))
        mu[i] += 1
        return Expr.sym(Symbol(s.ns, s.name, tuple(mu), s.grade))

    out = Expr.zero()
    for mono, c in f.expr.terms.items():
        for k, (s, e) in enumerate(mono):
            term = Expr.const(c)
            for t, g in mono[:k]:
                term = term * Expr.sym(t) ** g
            term = term * (e * Expr.sym(s) ** (e - 1) * prolonged(s))
            for t, g in mono[k + 1:]:
                term = term * Expr.sym(t) ** g
            out = out + term
    return out


def _td_symbols(dim):
    idx = [()] + [tuple(k) for k in ([1], [2], [0, 1], [1, 1], [0, 2])
                  if len(k) <= dim]
    out = [xsym(j) for j in range(dim)]
    for mu in idx:
        out += [jet("u", mu), jet("c", mu, -1), jet("u~", mu, 1),
                jet("c~", mu, 2), tfn("f", mu)]
    return out


def _prolong(s, i):
    mu = list(s.index) + [0] * (i + 1 - len(s.index))
    mu[i] += 1
    return Symbol(s.ns, s.name, tuple(mu), s.grade)


@st.composite
def _densities(draw):
    dim = draw(st.sampled_from([1, 2]))
    pool = _td_symbols(dim)
    e = Expr.zero()
    for _ in range(draw(st.integers(1, 5))):
        m = Expr.const(QI(draw(st.integers(-3, 3)), draw(st.integers(-2, 2))))
        for _ in range(draw(st.integers(1, 4))):
            m = m * Expr.sym(draw(st.sampled_from(pool))) ** \
                draw(st.integers(1, 3))
        e = e + m
    # a monomial that holds a jet s next to its prolongation s' along some
    # axis (so D s meets s': an odd s' squares to 0, an even one's exponent
    # rises), and in dim 2 jets of the same field that sort between s and
    # s' (the sign of an odd s' counts the odd ones among them)
    s = draw(st.sampled_from([t for t in pool if t.ns != "x"]))
    p = _prolong(s, draw(st.integers(0, dim - 1)))
    between = [t for t in pool if t.ns == s.ns and t.name == s.name
               and s._order < t._order < p._order]
    m = Expr.const(QI(draw(st.integers(1, 3)), draw(st.integers(-2, 2))))
    m = m * Expr.sym(s) * Expr.sym(p) ** draw(st.integers(1, 2))
    for t in draw(st.lists(st.sampled_from(between), unique=True)
                  if between else st.just([])):
        m = m * Expr.sym(t)
    m = m * Expr.sym(draw(st.sampled_from(pool)))
    return JetExpr(e + m, dim)


class TestTotalDerivativeChainRule:
    @given(_densities(), st.sampled_from([0, 1, -1, 2]), _densities())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_symbol_chain_rule(self, f, t, g):
        # and the Horner step Q - D_i f, with Q = t D_i f + g so that terms
        # of the step cancel (t = 1), or Q = 0
        for i in range(f.dim):
            want = _td_per_symbol(f, i)
            got = total_derivative(f, i).expr
            assert got == want
            assert got == _td_leibniz(f, i)
            q = JetExpr(Expr.const(t) * want + g.expr, f.dim)
            assert total_derivative(f, i, minus_from=q).expr == q.expr - want
            assert total_derivative(-f, i, minus_from=q).expr == q.expr + want
            assert total_derivative(f, i, minus_from=0).expr == -want

    def test_odd_factors_and_powers(self):
        u, c, cb = jet("u"), jet("c", (), -1), jet("cb", (), -1)
        f = JetExpr(Expr.sym(c) * Expr.sym(u) ** 3 * Expr.sym(cb)
                    * Expr.sym(xsym(0)) ** 2, 1)
        got = total_derivative(f, 0)
        assert got.expr == _td_per_symbol(f, 0) == _td_leibniz(f, 0)
        assert not got.is_zero()

    def test_prolonged_symbol_already_a_factor(self):
        # D_0(c c') = c' c' + c c'' = c c'' for odd c; D_0(u^2 u') = 2 u u'^2
        # + u^2 u''; and in dim 2, D_0 takes c to c.d[1], which sorts after
        # the odd c.d[0,1] and c.d[0,2] but before the odd c.d[2]
        u, c = jet("u"), jet("c", (), -1)
        cases = [(1, Expr.sym(c) * Expr.sym(_prolong(c, 0))),
                 (1, Expr.sym(u) ** 2 * Expr.sym(_prolong(u, 0))),
                 (2, Expr.sym(c) * Expr.sym(jet("c", (0, 1), -1))
                  * Expr.sym(jet("c", (0, 2), -1))
                  * Expr.sym(jet("c", (2,), -1)) * Expr.sym(jet("u", (1,))))]
        for dim, e in cases:
            f = JetExpr(e, dim)
            for i in range(dim):
                got = total_derivative(f, i)
                assert got.expr == _td_per_symbol(f, i) == _td_leibniz(f, i)
                assert not got.is_zero()

    def test_input_terms_are_left_alone(self):
        u, c = jet("u"), jet("c", (), -1)
        f = JetExpr(Expr.sym(u) ** 2 * Expr.sym(c), 1)
        q = JetExpr.of(_prolong(u, 0), 1)
        before = (dict(f.expr.terms), dict(q.expr.terms))
        total_derivative(f, 0, minus_from=q)
        assert (f.expr.terms, q.expr.terms) == before


# ---------------------------------------------------------------------------
# The Euler operator and the homotopy operator share one Horner recursion;
# the references below are the per-symbol loops it replaced.
# ---------------------------------------------------------------------------

def _el_per_symbol(density, right=False):
    """sum_K (-1)^|K| D^K dL/du_K, one symbol and |K| derivatives at a time."""
    from bvfact import jetcalc
    out = {}
    for s in density.expr.symbols():
        if s.ns != "jet":
            continue
        acc = out.setdefault((s.name, s.grade), Expr.zero())
        partial = density.expr.dright(s) if right else density.expr.dleft(s)
        term = JetExpr(partial, density.dim)
        for i, m in enumerate(s.index):
            for _ in range(m):
                term = jetcalc.total_derivative(term, i)
        out[(s.name, s.grade)] = acc - term.expr if sum(s.index) % 2 \
            else acc + term.expr
    return out


def _eta_by_lowering(omega):
    """The homotopy primitive's components by integrating each s_K P by
    parts, lowering the last nonzero entry of K first; test-function
    symbols are varied as fields are."""
    n = omega.dim
    density = omega.component(tuple(range(n)))
    scaled, base = {}, {}
    for mono, c in density.expr.terms.items():
        d = sum(e for s, e in mono if s.ns != "x")
        if d:
            scaled[mono] = c / d
        else:
            base[mono] = c
    scaled = Expr(scaled)
    eta = [Expr.zero()] * n
    for mono, c in base.items():
        a = dict(mono).get(xsym(0), 0)
        eta[0] = eta[0] + Expr({mono: c / (a + 1)}) * Expr.sym(xsym(0))
    for s in scaled.symbols():
        if s.ns == "x":
            continue
        q = JetExpr(scaled.dleft(s), n)
        mu = list(s.index)
        while any(mu):
            i = max(j for j, k in enumerate(mu) if k)
            mu[i] -= 1
            u = jet(s.name, mu, s.grade) if s.ns == "jet" else tfn(s.name, mu)
            eta[i] = eta[i] + Expr.sym(u) * q.expr
            q = -total_derivative(q, i)
    comps = {}
    for i, e in enumerate(eta):
        comps[tuple(j for j in range(n) if j != i)] = -e if i % 2 else e
    return LagForm(n - 1, n, comps)


def _graded_symbols(dim, maxord):
    idx = [mu for mu in itertools.product(range(maxord + 1), repeat=dim)
           if sum(mu) <= maxord]
    out = [xsym(j) for j in range(dim)]
    for mu in idx:
        out += [jet("u", mu), jet("c", mu, 1), jet("b", mu, -1), tfn("w", mu)]
    return out


@st.composite
def _graded_density(draw, dim, maxord):
    pool = _graded_symbols(dim, maxord)
    e = Expr.zero()
    for _ in range(draw(st.integers(1, 3))):
        m = Expr.const(QI(draw(st.integers(-3, 3)), draw(st.integers(-2, 2))))
        for _ in range(draw(st.integers(1, 3))):
            m = m * Expr.sym(draw(st.sampled_from(pool))) ** \
                draw(st.integers(1, 2))
        e = e + m
    return JetExpr(e, dim)


@st.composite
def _el_case(draw):
    return draw(_graded_density(draw(st.sampled_from([1, 2])), 3))


@st.composite
def _divergence(draw):
    dim = draw(st.sampled_from([1, 2]))
    div = JetExpr.const(0, dim)
    for i in range(dim):
        div = div + total_derivative(draw(_graded_density(dim, 2)), i)
    return LagForm.top(div, dim)


@st.composite
def _divergence_plus_base(draw):
    """D(P) as `_divergence` draws it, plus a polynomial in the base
    coordinates alone."""
    omega = draw(_divergence())
    n = omega.dim
    p = Expr.zero()
    for _ in range(draw(st.integers(1, 2))):
        m = Expr.const(QI(draw(st.integers(-3, 3)), draw(st.integers(-2, 2))))
        for j in range(n):
            m = m * Expr.sym(xsym(j)) ** draw(st.integers(0, 2))
        p = p + m
    return LagForm.top(omega.component(tuple(range(n))) + JetExpr(p, n), n)


class TestExactnessDecision:
    """`is_total_divergence` and `homotopy_primitive` make one decision:
    every Euler-Lagrange class over fields and test functions vanishes."""

    @pytest.mark.parametrize("density", [JetExpr.const(1, 1),
                                         JetExpr.of(xsym(0), 1)])
    def test_base_coordinates_alone_are_exact(self, density):
        omega = LagForm.top(density, 1)
        eta, obstruction = homotopy_primitive(omega)
        assert not obstruction and horizontal_diff(eta) == omega
        assert is_total_divergence(density)

    @given(_divergence_plus_base())
    @settings(max_examples=60, deadline=None)
    def test_divergence_plus_base_polynomial(self, omega):
        assert is_total_divergence(omega.component(tuple(range(omega.dim))))
        eta, obstruction = homotopy_primitive(omega)
        assert not obstruction
        assert horizontal_diff(eta) == omega

    @given(_el_case())
    @settings(max_examples=80, deadline=None)
    def test_decision_agrees_with_primitive(self, L):
        try:
            homotopy_primitive(LagForm.top(L, L.dim))
        except ExactnessDefect:
            assert not is_total_divergence(L)
        else:
            assert is_total_divergence(L)


class TestHornerEulerOperator:
    @given(_el_case())
    @settings(max_examples=80, deadline=None)
    def test_el_equals_per_symbol_sum(self, L):
        for right in (False, True):
            got = euler_lagrange_density(L, right=right)
            assert {k: v.expr for k, v in got.items()} == \
                _el_per_symbol(L, right)
            assert list(got) == sorted(got)

    @given(_divergence())
    @settings(max_examples=60, deadline=None)
    def test_eta_equals_lowering_loop(self, omega):
        eta, obstruction = homotopy_primitive(omega)
        assert not obstruction
        assert eta == _eta_by_lowering(omega)
        assert horizontal_diff(eta) == omega

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_one_derivative_per_order(self, k, monkeypatch):
        from bvfact import jetcalc
        calls = []

        def counted(f, i, **kw):
            calls.append(i)
            return total_derivative(f, i, **kw)

        monkeypatch.setattr(jetcalc, "total_derivative", counted)
        L = JetExpr(sum((Expr.sym(jet("u", (j,))) ** 2 for j in range(k + 1)),
                        Expr.zero()), 1)
        el = jetcalc.euler_lagrange_density(L)
        assert len(calls) == k
        calls.clear()
        assert {key: v.expr for key, v in el.items()} == _el_per_symbol(L)
        assert len(calls) == k * (k + 1) // 2


class TestHomotopyExactnessCheck:
    def test_primitive_reads_exactness_from_its_own_run(self, monkeypatch):
        # D(u u_1 u_2): the eta recursion takes 3 total derivatives, and the
        # exactness check reads R_0 from it instead of running again
        from bvfact import jetcalc
        u, u1, u2 = (JetExpr.of(jet("u", (k,), 0), 1) for k in range(3))
        omega = LagForm.top(total_derivative(u * u1 * u2, 0), 1)
        calls = []

        def counted(f, i, **kw):
            calls.append(i)
            return total_derivative(f, i, **kw)

        monkeypatch.setattr(jetcalc, "total_derivative", counted)
        eta, obstruction = homotopy_primitive(omega)
        assert len(calls) == 3
        monkeypatch.undo()
        assert not obstruction
        assert horizontal_diff(eta) == omega

    def test_defect_lists_the_euler_lagrange_classes(self):
        # w u^2 + u_t^2: E_u = 2 w u - 2 u_tt and E_w = u^2
        u = JetExpr.of(jet("u", (), 0), 1)
        ut = JetExpr.of(jet("u", (1,), 0), 1)
        utt = JetExpr.of(jet("u", (2,), 0), 1)
        w = JetExpr.of(tfn("w", ()), 1)
        with pytest.raises(ExactnessDefect) as info:
            homotopy_primitive(LagForm.top(w * u * u + ut * ut, 1))
        got = info.value.el_classes
        assert list(got) == [("jet", "u", 0), ("tf", "w", 0)]
        assert got[("jet", "u", 0)] == 2 * w * u - 2 * utt
        assert got[("tf", "w", 0)] == u * u

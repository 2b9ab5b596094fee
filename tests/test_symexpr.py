"""Graded polynomial algebra: coefficients, monomial canonicalization,
derivations, truncated series, and the textual syntax."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bvfact.symexpr import (QI, I, Symbol, Expr, FormalSeries, series_exp,
                            parse_expr, to_text)


def sym(name, grade=0, index=()):
    return Symbol("jet", name, tuple(index), grade)


qi_values = st.builds(
    QI,
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6))


class TestQI:
    @given(qi_values, qi_values, qi_values)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a * (b * c) == (a * b) * c

    def test_i_squared(self):
        assert I * I == QI(-1)

    def test_division(self):
        a = QI(Fraction(3, 4), Fraction(-2))
        assert a / a == QI(1)

    def test_to_complex(self):
        assert QI(Fraction(1, 2), Fraction(1, 4)).to_complex() == 0.5 + 0.25j


class TestExpr:
    def test_even_symbols_commute(self):
        u, v = Expr.sym(sym("u")), Expr.sym(sym("v"))
        assert (u * v - v * u).is_zero()

    def test_odd_symbols_anticommute(self):
        c1, c2 = Expr.sym(sym("c1", -1)), Expr.sym(sym("c2", -1))
        assert (c1 * c2 + c2 * c1).is_zero()
        assert (c1 * c1).is_zero()

    def test_square_of_odd_grade_two_is_even(self):
        # grade +2 symbols are commuting
        b = Expr.sym(sym("b", 2))
        assert not (b * b).is_zero()

    def test_right_vs_left_derivative_on_odd_pair(self):
        c1, c2 = sym("c1", -1), sym("c2", -1)
        e = Expr.sym(c1) * Expr.sym(c2)
        # d^L/dc2 (c1 c2) = -c1, d^R/dc2 (c1 c2) = +c1
        assert (e.dleft(c2) + Expr.sym(c1)).is_zero()
        assert (e.dright(c2) - Expr.sym(c1)).is_zero()

    def test_derivation_leibniz_even(self):
        u, v = sym("u"), sym("v")
        e = Expr.sym(u) * Expr.sym(u) * Expr.sym(v)
        d = e.dleft(u)
        want = Expr.const(2) * Expr.sym(u) * Expr.sym(v)
        assert (d - want).is_zero()

    def test_subs(self):
        u, v = sym("u"), sym("v")
        e = Expr.sym(u) * Expr.sym(u) + Expr.sym(v)
        got = e.subs({u: Expr.sym(v)})
        want = Expr.sym(v) * Expr.sym(v) + Expr.sym(v)
        assert (got - want).is_zero()

    def test_evalf(self):
        u = sym("u")
        e = Expr.sym(u) * Expr.sym(u) + Expr.const(QI(Fraction(1, 2)))
        assert abs(e.evalf({u: 3.0}) - 9.5) < 1e-14

    def test_homogeneous_grade(self):
        c = sym("c", -1)
        af = sym("u~", 1)
        e = Expr.sym(c) * Expr.sym(af)
        assert e.homogeneous_grade() == 0


class TestFormalSeries:
    def test_truncation(self):
        s = FormalSeries({(1, 0): Expr.const(1)}, orders=(2, 1))
        p = s * s * s
        assert p.coeffs == {}

    def test_product_collects_orders(self):
        a = FormalSeries({(1, 0): Expr.const(2)}, orders=(3, 2))
        b = FormalSeries({(0, 1): Expr.const(3)}, orders=(3, 2))
        p = a * b
        assert (p.coeffs[(1, 1)] - Expr.const(6)).is_zero()

    def test_exp_of_nilpotent(self):
        x = FormalSeries({(1, 0): Expr.const(1)}, orders=(2, 2))
        e = series_exp(x)
        assert (e.coeffs[(0, 0)] - Expr.const(1)).is_zero()
        assert (e.coeffs[(2, 0)] - Expr.const(Fraction(1, 2))).is_zero()

    def test_exp_inverse(self):
        x = FormalSeries({(1, 1): Expr.const(Fraction(2, 3))}, orders=(3, 2))
        neg = x * FormalSeries.const(-1, x.orders)
        prod = series_exp(x) * series_exp(neg)
        one = FormalSeries.const(1, x.orders)
        assert prod == one


class TestTextualSyntax:
    def test_roundtrip_simple(self):
        texts = ["u^2 + v", "3/4*u - I*v", "u.d[1]*u.d[1]", "-u + 2"]
        for t in texts:
            e = parse_expr(t)
            e2 = parse_expr(to_text(e))
            assert (e - e2).is_zero(), t

    def test_odd_cancellation_via_parser(self):
        def resolve(name, index):
            return Symbol("jet", name, index, -1 if name.startswith("c") else 0)
        e = parse_expr("c1*c2 + c2*c1", resolve)
        assert e.is_zero()

    def test_rational_and_imaginary_coefficients(self):
        e = parse_expr("1/2*u + I*u")
        u = sym("u")
        want = Expr.sym(u).map_coeff(lambda q: q * QI(Fraction(1, 2), 1))
        assert (e - want).is_zero()

    def test_parse_error(self):
        with pytest.raises(Exception):
            parse_expr("u + + v")


# ---------------------------------------------------------------------------
# The integer-triple QI against a (Fraction, Fraction) reference
# ---------------------------------------------------------------------------

class _RefQI:
    """Reference Gaussian rational: a pair of Fractions."""

    def __init__(self, re, im):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return _RefQI(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return _RefQI(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return _RefQI(self.re * o.re - self.im * o.im,
                      self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError
        return _RefQI((self.re * o.re + self.im * o.im) / n,
                      (self.im * o.re - self.re * o.im) / n)

    def conj(self):
        return _RefQI(self.re, -self.im)

    def parts(self):
        return (self.re, self.im)


_parts = st.fractions(min_value=-50, max_value=50, max_denominator=40)
_scalars = st.one_of(st.integers(-6, 6),
                     st.fractions(min_value=-6, max_value=6,
                                  max_denominator=9))


def _same(q, ref):
    """q has ref's value and a canonical triple."""
    canonical = q.d > 0 and math.gcd(q.a, q.b, q.d) == 1
    return canonical and (q.re, q.im) == ref.parts()


class TestIntegerTripleQI:
    @given(_parts, _parts, _parts, _parts, _scalars)
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_pairs(self, ar, ai, br, bi, k):
        a, b = QI(ar, ai), QI(br, bi)
        ra, rb = _RefQI(ar, ai), _RefQI(br, bi)
        rk = _RefQI(k, 0)
        assert _same(a, ra)
        assert _same(a + b, ra + rb) and _same(a - b, ra - rb)
        assert _same(a * b, ra * rb) and _same(a.conj(), ra.conj())
        assert _same(-a, _RefQI(0, 0) - ra)
        # int and Fraction operands, on either side
        assert _same(a + k, ra + rk) and _same(k + a, rk + ra)
        assert _same(a - k, ra - rk) and _same(k - a, rk - ra)
        assert _same(a * k, ra * rk) and _same(k * a, rk * ra)
        for x, rx in ((a, ra), (b, rb), (k, rk)):
            if rx.parts() == (0, 0):
                with pytest.raises(ZeroDivisionError):
                    a / x
                with pytest.raises(ZeroDivisionError):
                    ra / rx
            else:
                assert _same(a / x, ra / rx)
        assert (a == b) == (ra.parts() == rb.parts())
        assert (a == k) == (ra.parts() == rk.parts())
        assert bool(a) == (ra.parts() != (0, 0))
        assert a != b or hash(a) == hash(b)

    @given(_parts, _parts, _parts, _parts)
    @settings(max_examples=100, deadline=None)
    def test_one_value_built_two_ways(self, ar, ai, br, bi):
        a, b = QI(ar, ai), QI(br, bi)
        direct = QI(ar, ai)
        via_parts = QI(ar) + I * QI(ai)
        assert via_parts == direct and hash(via_parts) == hash(direct)
        if b:
            round_trip = (a * b) / b
            assert round_trip == a and hash(round_trip) == hash(a)
            assert (round_trip.a, round_trip.b, round_trip.d) == \
                (a.a, a.b, a.d)
        assert (a - a) == 0 and not (a - a)
        assert QI.of(complex(float(ar), 0.5)) == QI(float(ar), Fraction(1, 2))


class TestMixedQIExpr:
    def test_qi_then_expr_operands(self):
        u = Expr.sym(sym("u"))
        iu = Expr.const(I) * u
        assert I * u == iu
        assert I + u == Expr.const(I) + u
        assert I - u == Expr.const(I) - u
        assert QI(2) * u == u + u
        assert I == Expr.const(I)

    def test_non_numeric_operands_are_refused(self):
        with pytest.raises(TypeError):
            I * "u"
        with pytest.raises(TypeError):
            I + object()
        assert (I == "I") is False


class TestSymbolInterning:
    def test_one_object_per_key(self):
        from bvfact.jetcalc import jet, testfn, xsym
        assert jet("u", (1,)) is jet("u", (1,))
        assert jet("u", (1, 0)) is jet("u", (1,))
        assert xsym(0) is xsym(0) and testfn("f") is testfn("f")
        assert Symbol("jet", "u", (), 0) is sym("u")

    def test_grades_are_distinct(self):
        even, odd = sym("c", 0), sym("c", -1)
        assert even is not odd and even != odd
        assert even.odd is False and odd.odd is True
        assert even.key() == odd.key()
        assert len({even, odd, sym("c", 0)}) == 2

    def test_ordering_is_by_ns_name_index_grade(self):
        import random
        syms = [Symbol(ns, name, index, grade)
                for ns in ("jet", "tf", "x") for name in ("u", "v")
                for index in ((), (0, 1), (1,), (2,)) for grade in (-1, 0, 1)]
        want = sorted(syms, key=lambda s: (s.ns, s.name, s.index, s.grade))
        rng = random.Random(3)
        for _ in range(5):
            shuffled = syms[:]
            rng.shuffle(shuffled)
            assert sorted(shuffled) == want
        assert sym("u") < sym("u", 1) <= sym("u", 1) < sym("v")
        assert sym("v") > sym("u") >= sym("u")

    def test_copies_keep_identity(self):
        import copy
        import pickle
        s = sym("c", -1, (2,))
        assert copy.copy(s) is s and copy.deepcopy(s) is s
        assert pickle.loads(pickle.dumps(s)) is s
        with pytest.raises(AttributeError):
            s.grade = 0


# ---------------------------------------------------------------------------
# Partial derivatives against the graded Euler identity
# ---------------------------------------------------------------------------

_euler_pool = [sym("u"), sym("v", 0, (1,)), sym("c", -1), sym("d", 1, (2,)),
               sym("a", 2), sym("b", -1, (1,))]


@st.composite
def _graded_polys(draw):
    e = Expr.zero()
    for _ in range(draw(st.integers(1, 5))):
        m = Expr.const(draw(qi_values))
        for _ in range(draw(st.integers(0, 4))):
            m = m * Expr.sym(draw(st.sampled_from(_euler_pool))) ** \
                draw(st.integers(1, 3))
        e = e + m
    return e


class TestPartialDerivatives:
    @given(_graded_polys())
    @settings(max_examples=150, deadline=None)
    def test_graded_euler_identity(self, f):
        # a monomial of degree n gives n times itself from both sums:
        # s * (d^L m/ds) and (d^R m/ds) * s put s back where it came from
        weighted = Expr.from_terms((m, c * sum(e for _, e in m))
                                   for m, c in f.terms.items())
        left, right = Expr.zero(), Expr.zero()
        for s in _euler_pool:
            left = left + Expr.sym(s) * f.dleft(s)
            right = right + f.dright(s) * Expr.sym(s)
        assert left == weighted and right == weighted

    def test_repeated_and_absent_symbols(self):
        u, c, b = sym("u"), sym("c", -1), sym("b", -1, (1,))
        f = Expr.sym(b) * Expr.sym(c) * Expr.sym(u) ** 2
        first = f.dright(c)
        # c passes the even u^2 on the right and the odd b on the left
        assert f.dright(c) == first == Expr.sym(b) * Expr.sym(u) ** 2
        assert f.dleft(c) == -first
        assert f.dleft(u) == f.dright(u) == 2 * Expr.sym(b) * Expr.sym(c) \
            * Expr.sym(u)
        assert f.dleft(sym("v")).is_zero() and f.dright(sym("v")).is_zero()


class TestGradesKeptApart:
    def test_symbols_differing_only_in_grade(self):
        a = Symbol("jet", "c", (), 0)
        b = Symbol("jet", "c", (), -1)
        ab = Expr.sym(a) * Expr.sym(b)
        ba = Expr.sym(b) * Expr.sym(a)
        # a is even, so a and b commute: one monomial of grade -1
        assert ab == ba and not ab.is_zero()
        assert ab.homogeneous_grade() == -1
        assert ab != Expr.sym(a) ** 2


class TestSeriesOverQI:
    def test_non_constant_expr_coefficient_raises(self):
        u = Expr.sym(sym("u"))
        for c in (u, Expr.const(2) + u):
            with pytest.raises(ValueError, match="not constant"):
                FormalSeries({(1, 0): c}, orders=(3, 2))
        with pytest.raises(ValueError, match="not constant"):
            FormalSeries.const(1, (3, 2)) * u

    @given(qi_values, qi_values)
    @settings(max_examples=50, deadline=None)
    def test_coefficients_are_qi(self, a, b):
        x = FormalSeries({(1, 0): Expr.const(a), (0, 1): b}, orders=(3, 2))
        y = FormalSeries({(1, 1): Fraction(2, 3), (0, 0): 1j}, orders=(3, 2))
        for s in (x, x + y, x - y, x * y, -x, y * Fraction(1, 3),
                  series_exp(x)):
            assert all(type(c) is QI for c in s.coeffs.values())
        assert x[(2, 2)] == 0 and type(x[(2, 2)]) is QI
        assert x[(1, 0)] == a and x[(0, 1)] == b

    def test_constant_part_of_qi_is_itself(self):
        for c in (QI(Fraction(3, 4), -2), I, QI(0)):
            assert c.constant_part() is c
        s = FormalSeries({(1, 0): Expr.const(I)}, orders=(3, 2))
        assert s.coeffs[(1, 0)].constant_part().to_complex() == 1j


@st.composite
def _series_pair(draw):
    """A series and a constant series (possibly 0) at the same drawn
    truncation orders, with QI coefficients at any (hbar, lam) power up to
    them."""
    orders = (draw(st.integers(0, 3)), draw(st.integers(0, 2)))
    keys = st.tuples(st.integers(0, orders[0]), st.integers(0, orders[1]))
    series = FormalSeries(draw(st.dictionaries(keys, qi_values, max_size=6)),
                          orders)
    const = FormalSeries.const(draw(qi_values), orders)
    return series, const


def _convolution(a, b):
    """The truncated product, coefficient pair by coefficient pair."""
    acc = {}
    for (p1, q1), c1 in a.coeffs.items():
        for (p2, q2), c2 in b.coeffs.items():
            pq = (p1 + p2, q1 + q2)
            if pq[0] <= a.orders[0] and pq[1] <= a.orders[1]:
                acc[pq] = acc.get(pq, 0) + c1 * c2
    return {pq: c for pq, c in acc.items() if c}


class TestScalarSeriesProducts:
    # an int, a QI, 0 or a constant series scales coefficient by
    # coefficient; the product must be the convolution's, orders included
    @given(_series_pair(), st.integers(-7, 7), qi_values)
    @settings(max_examples=100, deadline=None)
    def test_match_the_convolution(self, pair, n, q):
        series, const = pair
        orders = series.orders
        for other in (n, q, 0, const, FormalSeries(orders=orders)):
            other_series = (other if isinstance(other, FormalSeries)
                            else FormalSeries.const(other, orders))
            want = _convolution(series, other_series)
            for got in (series * other, other * series):
                assert got.orders == orders
                assert got.coeffs == want
                assert all(type(c) is QI and c for c in got.coeffs.values())

    def test_mismatched_orders_still_raise(self):
        a = FormalSeries({(1, 0): 1}, (3, 2))
        for b in (FormalSeries.const(2, (2, 2)), FormalSeries(orders=(3, 1))):
            with pytest.raises(ValueError, match="incompatible truncation"):
                a * b
            with pytest.raises(ValueError, match="incompatible truncation"):
                b * a


class TestKoszulSign:
    @settings(max_examples=200, deadline=None)
    @given(st.permutations(range(5)), st.lists(st.booleans(), min_size=5,
                                               max_size=5))
    def test_sign_of_the_odd_factors_permutation(self, perm, odd):
        from bvfact.symexpr import koszul_sign
        # the odd factors in their new order, as ranks among themselves; the
        # sign is that permutation's parity, read from its cycles
        olds = [i for i in perm if odd[i]]
        ranks = [sorted(olds).index(i) for i in olds]
        seen, parity = set(), 0
        for start in range(len(ranks)):
            length = 0
            while start not in seen:
                seen.add(start)
                start = ranks[start]
                length += 1
            parity += max(length - 1, 0)
        assert koszul_sign(perm, odd) == (-1) ** parity
        assert koszul_sign(perm, [False] * 5) == 1

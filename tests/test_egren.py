"""Distribution extension at desk scale: scaling degrees, subtraction-based
extensions, renormalization schemes for the two-fold time-ordered product,
and the scheme-comparison group."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bvfact import egren
from bvfact.egren import (DistKernel, theta_power, smooth_kernel,
                          feynman_power, scaling_degree, ambiguity_basis,
                          standard_cutoff, ExtendedDist, extend,
                          TimeOrder2, t2_build, RGElement,
                          main_theorem_check, recover_delta_coefficient,
                          _contact_terms)
from bvfact.freeq import (OscillatorModel, field_obs, tprod, eval_poly,
                          unit, delta_s0, DiagramPoly, star, green)
from bvfact.symexpr import QI, FormalSeries
from bvfact.region import mollifier, window, not_later
from bvfact.quadrature import QuadratureError
from bvfact.numfields import Poly1D

from test_freeq import _bump_specs, _observables

MODEL = OscillatorModel(omega=1)


class TestScalingDegree:
    def test_declared_values(self):
        assert scaling_degree(theta_power(1)) == 1
        assert scaling_degree(theta_power(2)) == 2
        assert scaling_degree(smooth_kernel(lambda x: math.exp(-x * x))) == 0

    def test_measured_values_snap(self):
        for kern, want in ((theta_power(1), 1), (theta_power(2), 2),
                           (smooth_kernel(lambda x: math.exp(-x * x)), 0)):
            assert scaling_degree(kern, exact=False) == Fraction(want)

    def test_feynman_powers(self):
        for m in (1, 2, 3):
            k = feynman_power(MODEL, m)
            assert scaling_degree(k) == 0

    def test_vanishing_pairing_raises(self):
        with pytest.raises(egren.RegressionError, match="pairing vanished"):
            scaling_degree(smooth_kernel(lambda x: 0.0), exact=False)

    def test_unsettled_slopes_raise(self):
        # exp(-1/x) falls faster than any power: the slopes keep growing
        with pytest.raises(egren.RegressionError, match="not settling"):
            scaling_degree(smooth_kernel(lambda x: math.exp(-1 / x)),
                           exact=False)


# zeros, drawn floats, and quotients with no short binary expansion, whose
# last bits round differently between evaluation paths
_NODES = st.lists(st.one_of(st.sampled_from([0.0, -0.0]),
                            st.floats(1e-3, 4), st.floats(-4, -1e-3),
                            st.integers(-4000, 4000).map(lambda k: k / 997)),
                  min_size=1, max_size=40)


def _bits(v):
    return np.asarray(v).tobytes()


class TestKernelsOnNodeArrays:
    # a kernel is called once on each node array: every value there equals
    # the kernel's value at that point alone, bit for bit, and x^-p is
    # formed only where x > 0, so no RuntimeWarning is raised
    @settings(max_examples=60, deadline=None)
    @given(_NODES, st.sampled_from([Fraction(1, 3), Fraction(1, 2), 1,
                                    Fraction(3, 2), 2, Fraction(5, 2)]))
    def test_theta_power(self, xs, p):
        # numpy's power may round x^-p apart from the float loop's: a few
        # units in the last place of a float64
        k = theta_power(p)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            vals = k(np.array(xs))
            assert vals.shape == (len(xs),)
            for x, v in zip(xs, vals):
                assert _bits(k(x)) == _bits(v)
                ref = x ** -float(p) if x > 0 else 0.0
                assert abs(v - ref) <= 4 * np.finfo(float).eps * ref

    @settings(max_examples=60, deadline=None)
    @given(_NODES, st.integers(1, 4))
    def test_feynman_power(self, xs, m):
        # the values are those of the scalar propagator raised to m
        gf = green(MODEL, "feynman")
        k = feynman_power(MODEL, m)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            vals = k(np.array(xs))
            for x, v in zip(xs, vals):
                assert _bits(k(x)) == _bits(v)
                assert _bits(np.complex128(gf.value(x) ** m)) == _bits(v)


class TestAmbiguity:
    def test_dimensions(self):
        assert ambiguity_basis(smooth_kernel(lambda x: 1.0)) == []
        assert ambiguity_basis(theta_power(1)) == [(0,)]
        assert ambiguity_basis(theta_power(2)) == [(0,), (1,)]


class TestExtension:
    def test_subtraction_oracle(self):
        from scipy.integrate import quad
        f = mollifier(0, Fraction(1, 2))
        chi = standard_cutoff()
        val = extend(theta_power(1)).pair(f)
        oracle, _ = quad(lambda x: (f(x) - f(0) * chi(x)) / x, 1e-14, 1.0,
                         epsabs=1e-12, epsrel=1e-12, limit=400, points=[0.5])
        assert abs(val - oracle) < 1e-9

    def test_agrees_away_from_origin(self):
        t1 = theta_power(1)
        g = mollifier(Fraction(3, 2), Fraction(1, 4))
        assert abs(extend(t1).pair(g) - t1.pair(g)) < 1e-12

    def test_extension_preserves_degree(self):
        e = extend(theta_power(1))
        assert scaling_degree(e, exact=False) == 1

    def test_unique_case_ignores_weights(self):
        # subcritical kernels extend uniquely: two weight choices agree
        k = feynman_power(MODEL, 2)
        f = mollifier(0, Fraction(1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = ExtendedDist(k, weights={(0,): 0.0}).pair(f)
            b = ExtendedDist(k, weights={(0,): 5.0}).pair(f)
        assert abs(a - b) < 1e-12

    def test_weight_difference_is_delta_combination(self):
        t2 = theta_power(2)
        f = mollifier(0, Fraction(1, 2))
        A = ExtendedDist(t2, weights={(0,): 2.5, (1,): 1.25})
        B = ExtendedDist(t2, weights={})
        diff = A.pair(f) - B.pair(f)
        want = 2.5 * f(0) - 1.25 * f.deriv(0, 1)
        assert abs(diff - want) < 1e-12

    def test_bump_with_empty_support_pairs_to_zero(self):
        # a product of bumps with disjoint supports is supported nowhere
        f = mollifier(0, Fraction(1, 4)) * mollifier(1, Fraction(1, 4))
        assert f.support.is_empty()
        assert theta_power(1).pair(f) == 0.0
        assert extend(theta_power(2)).pair(f) == 0.0


class TestTimeOrder2:
    def test_minimal_scheme_is_naive_oracle(self):
        T = TimeOrder2(MODEL)
        f = mollifier(Fraction(1, 2), Fraction(1, 2))
        g = mollifier(Fraction(3, 4), Fraction(1, 4))
        F = field_obs(f, power=2)
        G = field_obs(g, power=2)
        assert T.apply(F, G) == tprod(F, G)

    def test_symmetric(self):
        T = TimeOrder2(MODEL, shifts={1: 0.2})
        F = field_obs(mollifier(0, Fraction(1, 2)))
        G = field_obs(mollifier(Fraction(1, 4), Fraction(1, 4)))
        assert T.apply(F, G) == T.apply(G, F)

    @pytest.mark.parametrize("m", [0, 4])
    def test_shift_order_out_of_range_raises(self, m):
        # orders (3, 2): a shift lives at hbar^1 to hbar^3
        with pytest.raises(ValueError, match="out of hbar range"):
            TimeOrder2(MODEL, shifts={m: Fraction(1, 2)})

    def test_t2_build_dispatch(self):
        F = field_obs(mollifier(0, Fraction(1, 2)), power=2)
        G = field_obs(mollifier(Fraction(1, 4), Fraction(1, 4)), power=2)
        assert t2_build(F, G, None, MODEL) == tprod(F, G)
        assert t2_build(F, G, {1: 0.1}, MODEL) != tprod(F, G)


class TestRenormalizationGroup:
    SHIFT = 0.37

    def make_schemes(self):
        return TimeOrder2(MODEL), TimeOrder2(MODEL, shifts={1: self.SHIFT})

    def test_main_theorem(self):
        T, T2 = self.make_schemes()
        battery = [field_obs(mollifier(Fraction(c), Fraction(1, 4)), power=p)
                   for c, p in [(-2, 1), (0, 2), (2, 1), (0, 1)]]
        fields = [{"u": Poly1D([0.4, 0.15, -0.1])}]
        Z, rep = main_theorem_check(T, T2, battery, fields=fields, tol=1e-8)
        assert rep["ok"]
        assert rep["z_of_zero_is_zero"]
        assert rep["scheme_transport"]
        assert rep["diagonal_support_dev"] <= 1e-8
        assert rep["hammerstein_dev"] <= 1e-8

    def test_counterterm_recovery(self):
        T, T2 = self.make_schemes()
        f = mollifier(0, Fraction(1, 2))
        g = mollifier(Fraction(1, 4), Fraction(1, 4))
        c_hat = recover_delta_coefficient(T, T2, f, g)
        assert abs(c_hat - self.SHIFT) < 1e-8

    def test_composition_adds_shifts(self):
        a = RGElement.identity()
        T, T2 = self.make_schemes()
        z = RGElement(z2=lambda F, G: T2.apply(F, G) - T.apply(F, G),
                      shifts={1: self.SHIFT})
        comp = z.compose(a)
        assert comp.shifts == {1: self.SHIFT}
        comp2 = z.compose(z)
        assert comp2.shifts == {1: 2 * self.SHIFT}


class TestDeltaCoefficientOverlap:
    def test_disjoint_weights_raise(self):
        T = TimeOrder2(MODEL)
        T2 = TimeOrder2(MODEL, shifts={1: 0.37})
        with pytest.raises(ValueError, match="f and g must overlap"):
            recover_delta_coefficient(T, T2, mollifier(0, Fraction(1, 2)),
                                      mollifier(2, Fraction(1, 4)))

    def test_unconverged_overlap_raises(self):
        # a ramp 1e-6 wide inside supp(f g): no rule under the node cap
        # resolves it, so int f g misses its tolerance
        f = (window(-1, Fraction(-1, 2), Fraction(-1, 4),
                    Fraction(-1, 4) + Fraction(1, 10 ** 6))
             + mollifier(Fraction(1, 2), Fraction(1, 2)))
        T = TimeOrder2(MODEL)
        with pytest.raises(QuadratureError) as info:
            recover_delta_coefficient(T, T, f, mollifier(0, 2))
        assert info.value.error > 1e-10


class TestFractionalDegreeExtension:
    # References: <theta/x^p extended, f> for f = mollifier(1/8, 1/2) and the
    # standard cutoff, computed with mpmath at 40 digits: on [0, 1/1000],
    # where chi = 1, the Taylor series of f to order 30 is integrated term
    # by term against x^-p; mpmath.quad takes the rest, cut at 1/2 and 5/8.
    REFS = {Fraction(1, 2): 0.46803332120164608,
            Fraction(3, 2): 0.0043419733652691586}

    def test_matches_reference(self):
        f = mollifier(Fraction(1, 8), Fraction(1, 2))
        for p, ref in self.REFS.items():
            assert abs(extend(theta_power(p)).pair(f) - ref) < 1e-9

    def test_unresolved_cancellation_raises(self):
        # for p = 5/2 the reference is -2.8122549023, but f - f(0) - x f'(0)
        # cancels to rounding noise at the nodes next to 0, so the rules
        # never agree; a value must not come back
        f = mollifier(Fraction(1, 8), Fraction(1, 2))
        with pytest.raises(QuadratureError) as info:
            extend(theta_power(Fraction(5, 2))).pair(f)
        assert info.value.error > 1e-9


_SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@st.composite
def _multi_term(draw):
    """A sum of one to three terms, each a product of one or two
    `field_obs` times a nonzero series coefficient; half the time delta_s0
    of the sum is added, which carries (Pu) legs."""
    F = DiagramPoly()
    for _ in range(draw(st.integers(1, 3))):
        term = unit()
        for _ in range(draw(st.integers(1, 2))):
            spec = draw(_bump_specs())
            term = term * field_obs(spec[0](*spec[1:]),
                                    power=draw(st.integers(0, 3)),
                                    afpower=draw(st.integers(0, 1)))
        coeff = FormalSeries({(draw(st.integers(0, 1)), draw(
            st.integers(0, 1))): QI(draw(_SMALL.filter(bool)), draw(_SMALL))})
        F = F + term.scale(coeff)
    return F + delta_s0(F) if draw(st.booleans()) else F


_SHIFTS = st.dictionaries(st.integers(1, 3), _SMALL.filter(bool),
                          max_size=2)


def _direct(shifts, F, G):
    """tprod(F, G) plus the contact terms of every shift, on the whole
    observables at once."""
    out = tprod(F, G)
    for m, c in shifts.items():
        out = out + _contact_terms(F, G, m, c)
    return out


def _table(P):
    return {k: c.coeffs for k, (_, c) in P.terms.items()}


class TestBilinearTimeOrder:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_multi_term(), min_size=2, max_size=3), _SHIFTS)
    def test_pairwise_expansion_matches_direct(self, polys, shifts):
        # one scheme per shift choice, reused over every ordered pair; the
        # second scheme differs in its hbar^1 shift only
        other = {**shifts, 1: shifts.get(1, 0) + Fraction(1, 8)}
        schemes = [(TimeOrder2(MODEL, shifts=shifts), shifts),
                   (TimeOrder2(MODEL, shifts=other), other)]
        for F in polys:
            for G in polys:
                for T, sh in schemes:
                    try:
                        want = _direct(sh, F, G)
                    except NotImplementedError:
                        # a (Pu)-(Pu) pair under G^F: no vertex form
                        with pytest.raises(NotImplementedError):
                            T.apply(F, G)
                        continue
                    got = T.apply(F, G)
                    assert _table(got) == _table(want)
                    assert all(type(c) is QI for _, s in got.terms.values()
                               for c in s.coeffs.values())

    def test_schemes_keep_their_own_expansions(self):
        F = field_obs(mollifier(0, Fraction(1, 2)), power=2)
        G = field_obs(mollifier(Fraction(1, 4), Fraction(1, 4)), power=2)
        Ta = TimeOrder2(MODEL, shifts={1: Fraction(1, 4)})
        Tb = TimeOrder2(MODEL, shifts={1: Fraction(-1, 2), 2: 1})
        for _ in range(2):
            for T in (Ta, Tb):
                assert T.apply(F, G) == _direct(dict(T.shifts), F, G)
        assert Ta.apply(F, G) != Tb.apply(F, G)

    def test_shifts_are_read_only(self):
        T = TimeOrder2(MODEL, shifts={1: 0.2})
        with pytest.raises(AttributeError):
            T.shifts = {1: 0.3}
        with pytest.raises(TypeError):
            T.shifts[1] = 0.3
        assert T.shifts == {1: 0.2}

    @settings(max_examples=80, deadline=None)
    @given(_observables(), _observables(),
           st.dictionaries(st.integers(1, 3), _SMALL.filter(bool),
                           min_size=1, max_size=3))
    @example(field_obs(mollifier(0, Fraction(1, 2)), afpower=1),
             field_obs(mollifier(Fraction(1, 4), Fraction(1, 4)), power=2,
                       afpower=1), {1: Fraction(1, 2), 2: 1})
    @example(field_obs(mollifier(0, Fraction(1, 2))),
             field_obs(mollifier(Fraction(1, 4), Fraction(1, 4)), power=2),
             {1: Fraction(1, 2)})
    def test_reversed_pair_reads_the_mirror_expansion(self, F, G, shifts):
        # T(G, F) reuses the terms of T(F, G) with the sign (-1)^(|F| |G|)
        # of the antifield legs; items of either parity, with u~ and (Pu)
        # legs, so both signs occur
        T = TimeOrder2(MODEL, shifts=shifts)
        for A, B in ((F, G), (G, F)):
            try:
                want = _direct(shifts, A, B)
            except NotImplementedError:
                # a (Pu)-(Pu) pair under G^F: no vertex form
                with pytest.raises(NotImplementedError):
                    T.apply(A, B)
                continue
            assert _table(T.apply(A, B)) == _table(want)

    def test_main_theorem_expands_each_pair_once_per_scheme(self, monkeypatch):
        # a four-item battery has 16 ordered pairs of diagrams, 10 unordered
        # ones; every check of main_theorem_check reuses their expansions,
        # and a reversed pair reads the expansion of its mirror
        calls = []

        def counting_tprod(F, G):
            calls.append((len(F.terms), len(G.terms)))
            return tprod(F, G)

        monkeypatch.setattr(egren, "tprod", counting_tprod)
        battery = [field_obs(mollifier(Fraction(c), Fraction(1, 4)), power=p)
                   for c, p in [(-2, 1), (0, 2), (2, 1), (0, 1)]]
        fields = [{"u": Poly1D([0.4, 0.15, -0.1])}]
        T, T2 = TimeOrder2(MODEL), TimeOrder2(MODEL, shifts={1: 0.37})
        _, rep = main_theorem_check(T, T2, battery, fields=fields)
        assert rep["ok"]
        assert len(calls) == 2 * 10
        assert set(calls) == {(1, 1)}


def _reference_main_theorem_check(T, T2, battery, fields, tol=1e-8):
    """The sum-based check: every residual evaluates Z on sums of items."""
    def z2(F, G):
        return T2.apply(F, G) - T.apply(F, G)

    Z = RGElement(z2)
    report = {"tol": tol}
    zero = DiagramPoly(orders=battery[0].orders if battery else (3, 2))
    report["z_of_zero_is_zero"] = Z.apply(zero).is_zero()
    report["scheme_transport"] = all(
        (T.apply(F, F) + z2(F, F)) == T2.apply(F, F) for F in battery)
    supports = [F.support() for F in battery]

    def deviation(P):
        if P.is_zero():
            return 0.0
        return max((abs(v) for fld in fields
                    for v in eval_poly(P, MODEL, fld, tol=tol * 1e-2)
                    .values()), default=0.0)

    dev, pairs = 0.0, 0
    for a in range(len(battery)):
        for b in range(a + 1, len(battery)):
            if supports[a].disjoint_from(supports[b]):
                pairs += 1
                dev = max(dev, deviation(z2(battery[a], battery[b])))
    report["diagonal_support_pairs"] = pairs
    report["diagonal_support_dev"] = dev
    hdev, hpairs = 0.0, set()
    for a, F1 in enumerate(battery):
        for b, Fm in enumerate(battery):
            for c, F2 in enumerate(battery):
                if len({a, b, c}) < 3:
                    continue
                s1, s2 = supports[a], supports[c]
                if not s1.disjoint_from(s2) or not not_later(s1, s2):
                    continue
                hpairs.add((a, c))
                resid = Z.apply(F1 + Fm + F2) - (
                    (Z.apply(F1 + Fm) - Z.apply(Fm)) + Z.apply(F2 + Fm))
                hdev = max(hdev, deviation(resid))
    report["hammerstein_pairs"] = len(hpairs)
    report["hammerstein_dev"] = hdev
    report["ok"] = (report["z_of_zero_is_zero"] and
                    report["scheme_transport"] and
                    dev <= tol and hdev <= tol)
    return report


def _shifted_bump(spec, offset):
    """The bump of a `_bump_specs` draw, moved by `offset`."""
    if spec[0] is mollifier:
        return mollifier(spec[1] + offset, spec[2])
    return window(*(x + offset for x in spec[1:]))


@st.composite
def _batteries(draw):
    """Three to five items, each a sum of one or two terms; a term is a
    product of one or two `field_obs` on bumps placed at -3, 0 or 3, so that
    supports overlap and are disjoint.  The second item repeats a diagram of
    the first with a coefficient of its own."""
    terms = []
    items = []
    for _ in range(draw(st.integers(3, 5))):
        F = DiagramPoly()
        for _ in range(draw(st.integers(1, 2))):
            offset = draw(st.sampled_from([-3, 0, 3]))
            term = unit()
            for _ in range(draw(st.integers(1, 2))):
                term = term * field_obs(
                    _shifted_bump(draw(_bump_specs()), offset),
                    power=draw(st.integers(1, 2)),
                    afpower=draw(st.integers(0, 1)))
            terms.append(term)
            coeff = FormalSeries({(draw(st.integers(0, 1)), 0):
                                  QI(draw(_SMALL.filter(bool)))})
            F = F + term.scale(coeff)
        items.append(F)
    items[1] = items[1] + terms[0].scale(draw(_SMALL.filter(bool)))
    return items


class TestZ2Table:
    @settings(max_examples=25, deadline=None)
    @given(_batteries(), _SHIFTS,
           st.dictionaries(st.integers(1, 3), _SMALL.filter(bool),
                           min_size=1, max_size=3))
    def test_matches_sum_based_check(self, battery, shifts, shifts2):
        # shifts at hbar^1 to hbar^3 in both schemes
        T = TimeOrder2(MODEL, shifts=shifts)
        T2 = TimeOrder2(MODEL, shifts=shifts2)
        fields = [{"u": Poly1D([0.4, 0.15, -0.1])}]
        Z, rep = main_theorem_check(T, T2, battery, fields=fields)
        assert rep == _reference_main_theorem_check(T, T2, battery, fields)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_applies_each_scheme_once_per_ordered_pair(self, monkeypatch, n):
        calls = []
        apply = TimeOrder2.apply

        def counting_apply(self, F, G):
            calls.append(self)
            return apply(self, F, G)

        monkeypatch.setattr(TimeOrder2, "apply", counting_apply)
        battery = [field_obs(mollifier(Fraction(c), Fraction(1, 4)), power=p)
                   for c, p in [(-2, 1), (0, 2), (2, 1), (0, 1)][:n]]
        T, T2 = TimeOrder2(MODEL), TimeOrder2(MODEL, shifts={1: 0.37})
        _, rep = main_theorem_check(T, T2, battery,
                                    fields=[{"u": Poly1D([0.4, 0.15])}])
        assert rep["ok"]
        # n^2 pairs per scheme, and Z(0) = 0 applies each scheme once
        assert len(calls) == 2 * n * n + 2
        assert calls.count(T) == calls.count(T2) == n * n + 1

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_nonlocal_scheme_matches_the_sum_based_residuals(self, n):
        # a second "scheme" that adds the star product F * G is neither
        # diagonal-supported nor symmetric, so the Hammerstein residuals of
        # disjoint items do not vanish, and they read both Z2(F_a, F_c) and
        # Z2(F_c, F_a)
        class Nonlocal(TimeOrder2):
            def apply(self, F, G):
                return TimeOrder2.apply(self, F, G) + star(F, G)

        battery = [field_obs(mollifier(Fraction(c), Fraction(1, 4)), power=p)
                   for c, p in [(-2, 1), (0, 2), (2, 1), (1, 1),
                                (-1, 2)][:n]]
        fields = [{"u": Poly1D([0.4, 0.15, -0.1])}]
        T, T2 = TimeOrder2(MODEL), Nonlocal(MODEL)
        _, rep = main_theorem_check(T, T2, battery, fields=fields)
        want = _reference_main_theorem_check(T, T2, battery, fields)
        assert rep.keys() == want.keys()
        assert (want["hammerstein_dev"] > 0) == (n >= 3)
        for key in ("hammerstein_dev", "diagonal_support_dev"):
            assert abs(rep[key] - want[key]) <= 1e-12 * want[key]
            rep.pop(key), want.pop(key)
        assert rep == want
        # every item is disjoint from the others: each pair (a, c) with a
        # before c counts once, if there is a third item
        assert rep["hammerstein_pairs"] == {2: 0, 3: 3, 5: 10}[n]
        assert rep["ok"] == (n < 2)

    def test_pu_pair_raises_with_its_reason(self):
        # a (Pu)-(Pu) contraction needs (Pu) legs in both items of a pair,
        # so the diagonal pair of the (Pu) item meets it as well: the
        # lazy sum-based check raised the same error on this battery
        P = delta_s0(field_obs(mollifier(0, Fraction(1, 2)), afpower=1))
        Q = field_obs(mollifier(Fraction(1, 4), Fraction(1, 4)), power=2)
        T, T2 = TimeOrder2(MODEL), TimeOrder2(MODEL, shifts={1: 0.3})
        with pytest.raises(NotImplementedError, match="no vertex form"):
            main_theorem_check(T, T2, [Q, P])

    def test_mixed_series_orders_raise(self):
        # the table expands the overlapping pair too, which no check reads:
        # the sum-based check accepted these two items, the table refuses
        F = field_obs(mollifier(0, Fraction(1, 2)))
        G = field_obs(mollifier(Fraction(1, 4), Fraction(1, 4)),
                      orders=(2, 2))
        T, T2 = TimeOrder2(MODEL), TimeOrder2(MODEL, shifts={1: 0.3})
        with pytest.raises(ValueError, match="incompatible truncation"):
            main_theorem_check(T, T2, [F, G])

"""Free quantum layer on the 1-d oscillator: propagator kernels, the star
and time-ordered products, causal factorization, and the free quantum
differential."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from bvfact.freeq import (OscillatorModel, green, green_defect, pair_kernel,
                          unit, field_obs, star, tmap, tmap_inv, tprod,
                          peierls, eval_poly, delta_s0, bv_laplacian, shat0,
                          Diagram, DiagramPoly, Vertex)
from bvfact.region import mollifier, window
from bvfact.numfields import Poly1D, Harmonic1D

MODEL = OscillatorModel(omega=1)
F_BUMP = mollifier(Fraction(1, 2), Fraction(1, 2))    # supp (0, 1)
G_BUMP = mollifier(Fraction(5, 2), Fraction(1, 2))    # supp (2, 3)
H_BUMP = mollifier(Fraction(-3, 2), Fraction(1, 2))   # supp (-2, -1)


class TestKernels:
    def test_linear_combinations(self):
        dR = green(MODEL, "retarded")
        dA = green(MODEL, "advanced")
        dPJ = green(MODEL, "pauli-jordan")
        W = green(MODEL, "wightman")
        H = green(MODEL, "symmetric")
        GF = green(MODEL, "feynman")
        for tau in (-1.3, -0.2, 0.4, 2.1):
            assert abs(dPJ.value(tau) - (dR.value(tau) - dA.value(tau))) \
                < 1e-14
            assert abs(W.value(tau) - (0.5j * dPJ.value(tau) + H.value(tau))) \
                < 1e-14
            assert abs(dPJ.value(tau) + dPJ.value(-tau)) < 1e-14
            if tau > 0:
                assert abs(GF.value(tau) - W.value(tau)) < 1e-14

    def test_retarded_support(self):
        dR = green(MODEL, "retarded")
        assert dR.value(-0.5) == 0.0

    def test_weak_green_property(self):
        d = green_defect(MODEL, F_BUMP,
                         mollifier(Fraction(1, 2), Fraction(1, 4)),
                         tol=1e-10)
        assert d < 1e-8

    def test_massless_limit(self):
        m0 = OscillatorModel(omega=0)
        assert green(m0, "retarded").value(1.5) == -1.5
        with pytest.raises(ValueError):
            green(m0, "feynman").value(1.0)

    def test_wightman_positivity(self):
        # the Gram form of W(tau) = e^{-i w tau}/(2w) in closed form:
        # sum conj(z_i) z_j <b_i (x) b_j, W>
        #     = |sum_j z_j int b_j(s) e^{i w s} ds|^2 / (2w)
        from scipy.integrate import quad
        W = green(MODEL, "wightman")
        w = MODEL.omega
        rng = random.Random(5)
        for _ in range(4):
            terms = [(mollifier(Fraction(rng.randint(-2, 2), 2),
                                Fraction(1, 2)),
                      complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                     for _ in range(2)]
            form = sum(zi.conjugate() * zj * pair_kernel(W, bi, bj)
                       for bi, zi in terms for bj, zj in terms)
            fourier = 0j
            for b, z in terms:
                lo, hi = map(float, b.support.bounds())
                re, _ = quad(lambda s: b(s) * math.cos(w * s), lo, hi,
                             epsabs=1e-13, epsrel=1e-13)
                im, _ = quad(lambda s: b(s) * math.sin(w * s), lo, hi,
                             epsabs=1e-13, epsrel=1e-13)
                fourier += z * complex(re, im)
            assert abs(form - abs(fourier) ** 2 / (2 * w)) < 1e-10
            assert form.real >= -1e-10


class TestStarProduct:
    def test_unit(self):
        Ff = field_obs(F_BUMP)
        one = unit()
        assert star(Ff, one) == Ff and star(one, Ff) == Ff

    def test_commutator_is_peierls(self):
        Ff, Gg = field_obs(F_BUMP), field_obs(G_BUMP)
        comm = star(Ff, Gg) - star(Gg, Ff)
        cvals = eval_poly(comm, MODEL, {"u": Poly1D([1.0])}, tol=1e-11)
        pvals = eval_poly(peierls(Ff, Gg), MODEL, {"u": Poly1D([1.0])},
                          tol=1e-11)
        assert abs(cvals[(1, 0)] - 1j * pvals[(0, 0)]) < 1e-9

    def test_peierls_antisymmetry(self):
        Ff, Gg = field_obs(F_BUMP), field_obs(G_BUMP)
        a = eval_poly(peierls(Ff, Gg), MODEL, {"u": Poly1D([1.0])},
                      tol=1e-11)
        b = eval_poly(peierls(Gg, Ff), MODEL, {"u": Poly1D([1.0])},
                      tol=1e-11)
        assert abs(a[(0, 0)] + b[(0, 0)]) < 1e-10

    def test_associativity_symbolic(self):
        F2 = field_obs(F_BUMP, power=2)
        G2 = field_obs(G_BUMP, power=2)
        H2 = field_obs(H_BUMP, power=2)
        assert star(star(F2, G2), H2) == star(F2, star(G2, H2))


class TestTimeOrdering:
    def test_tmap_identity_on_linear(self):
        Ff = field_obs(F_BUMP)
        assert tmap(Ff) == Ff

    def test_tmap_inverse(self):
        F2 = field_obs(F_BUMP, power=2)
        G2 = field_obs(G_BUMP, power=2)
        assert tmap_inv(tmap(F2 * G2)) == F2 * G2
        assert tmap_inv(tmap(star(F2, G2))) == star(F2, G2)

    def test_tprod_commutative_and_conjugated(self):
        F2 = field_obs(F_BUMP, power=2)
        G2 = field_obs(G_BUMP, power=2)
        tp = tprod(F2, G2)
        assert tp == tprod(G2, F2)
        assert tp == tmap(tmap_inv(F2) * tmap_inv(G2))

    def test_tprod_unit(self):
        Ff = field_obs(F_BUMP)
        assert tprod(Ff, unit()) == Ff


class TestCausalFactorization:
    FIELDS = [{"u": Poly1D([0.7, 0.3])}, {"u": Harmonic1D(1.0, 0.5, 0.2)}]

    def test_ordered_supports(self):
        from bvfact.freeq import causal_check
        later = field_obs(G_BUMP, power=2)
        earlier = field_obs(mollifier(Fraction(1, 2), Fraction(1, 4)),
                            power=2)
        rep = causal_check(later, earlier, MODEL, self.FIELDS, tol=1e-8)
        assert not rep.skipped and rep.max_dev < 1e-8
        rep2 = causal_check(earlier, later, MODEL, self.FIELDS, tol=1e-8)
        assert not rep2.skipped and rep2.max_dev < 1e-8
        assert rep.branch != rep2.branch

    def test_same_support_skipped(self):
        from bvfact.freeq import causal_check
        later = field_obs(G_BUMP, power=2)
        rep = causal_check(later, later, MODEL, [], tol=1e-8)
        assert rep.skipped


    def test_incomparable_supports_raise(self):
        from bvfact.freeq import IncomparableSupports, causal_check
        F = field_obs(F_BUMP)                                   # (0, 1)
        G = field_obs(mollifier(Fraction(3, 4), Fraction(1, 2)))  # (1/4, 5/4)
        for A, B in ((F, G), (G, F)):
            with pytest.raises(IncomparableSupports,
                               match="not causally ordered"):
                causal_check(A, B, MODEL, self.FIELDS)

    def test_simultaneous_supports_skipped(self):
        # a constant has empty support, both earlier and later than any
        from bvfact.freeq import causal_check
        for A, B in ((unit(), field_obs(G_BUMP)), (field_obs(G_BUMP),
                                                   unit())):
            rep = causal_check(A, B, MODEL, self.FIELDS)
            assert rep.skipped and "simultaneous" in rep.note

    def test_violation_raises(self, monkeypatch):
        # with the time-ordered product swapped for the star product in the
        # wrong order, the commutator i hbar {F, G} is the deviation
        from bvfact import freeq
        monkeypatch.setattr(freeq, "tprod", lambda F, G: star(G, F))
        with pytest.raises(AssertionError,
                           match="causal factorization violated"):
            freeq.causal_check(field_obs(G_BUMP), field_obs(F_BUMP), MODEL,
                               self.FIELDS, tol=1e-8)


class TestComponents:
    def test_four_disjoint_mollifiers(self):
        # star(F, G) has diagrams of 4 vertices; each factorizes into
        # one-vertex integrals U and Wightman pairings W
        f, g, h, k = (mollifier(c, Fraction(1, 4)) for c in range(4))
        fields = {"u": Poly1D([0.7, 0.1])}
        F = field_obs(f) * field_obs(g)
        G = field_obs(h) * field_obs(k)
        got = eval_poly(star(F, G), MODEL, fields)
        U = {b: eval_poly(field_obs(b), MODEL, fields)[(0, 0)]
             for b in (f, g, h, k)}
        W = {(a, b): pair_kernel(green(MODEL, "wightman"), a, b)
             for a in (f, g) for b in (h, k)}
        want = {(0, 0): U[f] * U[g] * U[h] * U[k],
                (1, 0): (W[f, h] * U[g] * U[k] + W[f, k] * U[g] * U[h]
                         + W[g, h] * U[f] * U[k] + W[g, k] * U[f] * U[h]),
                (2, 0): W[f, h] * W[g, k] + W[f, k] * W[g, h]}
        assert set(got) == set(want)
        for order, v in want.items():
            assert abs(got[order] - v) <= 1e-10 * max(1, abs(v))

    def test_on_shell_p_legs_vanish(self):
        # (Pu) = -(u'' + w^2 u) = 0 on a solution
        f = mollifier(Fraction(1, 4), Fraction(1, 2))
        P = delta_s0(field_obs(f, power=1, afpower=1))
        assert not P.is_zero()
        for a, b in ((1.0, 0.0), (0.3, -0.8)):
            vals = eval_poly(P, MODEL, {"u": Harmonic1D(a, b, w=1)})
            assert all(abs(v) < 1e-12 for v in vals.values())
            off = eval_poly(P, MODEL, {"u": Harmonic1D(a, b, w=2)})
            assert any(abs(v) > 1e-3 for v in off.values())


def battery(rng, n=10):
    bumps = [F_BUMP, G_BUMP, H_BUMP]
    out = []
    for _ in range(n):
        P = unit()
        for _ in range(rng.randint(1, 3)):
            P = P * field_obs(rng.choice(bumps), power=rng.randint(0, 3),
                              afpower=rng.randint(0, 1))
        out.append(P)
    return out


class TestFreeQuantumDifferential:
    def test_on_constants(self):
        assert shat0(unit()).is_zero()
        assert shat0(unit(), closed_form=False).is_zero()

    def test_on_antifield_generator(self):
        afg = field_obs(F_BUMP, power=0, afpower=1)
        assert shat0(afg) == shat0(afg, closed_form=False)

    def test_single_antifield_rule(self):
        with pytest.raises(ValueError):
            field_obs(F_BUMP, power=1, afpower=2)

    def test_closed_form_equals_conjugation(self):
        rng = random.Random(3)
        for F in battery(rng):
            assert shat0(F) == shat0(F, closed_form=False)

    def test_squares_to_zero(self):
        rng = random.Random(4)
        for F in battery(rng):
            assert shat0(shat0(F)).is_zero()

    def test_intertwines_time_ordering(self):
        rng = random.Random(5)
        for F in battery(rng, n=6):
            assert tmap(shat0(F)) == delta_s0(tmap(F))

    def test_laplacian_lowers_antifields(self):
        F = field_obs(F_BUMP, power=1, afpower=1)
        G = field_obs(G_BUMP, power=1, afpower=1)
        L = bv_laplacian(F * G)
        assert not L.is_zero()


_QUARTERS = st.integers(-4, 4).map(lambda k: Fraction(k, 4))


@st.composite
def _bump_specs(draw):
    """Parameters of a mollifier or a window, to build the bump twice."""
    c = draw(_QUARTERS)
    if draw(st.booleans()):
        return (mollifier, c, draw(st.sampled_from([Fraction(1, 4),
                                                    Fraction(1, 2)])))
    return (window, c, c + Fraction(1, 4), c + Fraction(1, 2),
            c + Fraction(3, 4))


class TestCanonicalForm:
    def test_odd_squares_vanish(self):
        # u~ is odd, so a product of two equal odd vertices is its own
        # negative under the swap of the two
        for F in (field_obs(F_BUMP, afpower=1),
                  field_obs(F_BUMP, power=1, afpower=1),
                  field_obs(F_BUMP, power=0, afpower=1)):
            assert (F * F).is_zero()

    def test_even_squares_survive(self):
        F = field_obs(F_BUMP, power=2)
        assert not (F * F).is_zero()

    def test_step_window_vertex_weight(self):
        P = field_obs(window(0, 1, 8, 9)) * field_obs(
            mollifier(0, Fraction(1, 2)))
        assert not P.is_zero()

    def test_equal_bumps_cancel(self):
        # two bumps built alike are one weight, whatever their identity
        a = field_obs(mollifier(0, Fraction(1, 2)))
        b = field_obs(mollifier(0, Fraction(1, 2)))
        assert (a - b).is_zero()

    def test_odd_square_of_equal_weights_vanishes(self):
        A = field_obs(mollifier(0, Fraction(1, 2)), afpower=1)
        B = field_obs(mollifier(0, Fraction(1, 2)), afpower=1)
        assert (A * B).is_zero()

    def test_merged_weights_associative(self):
        from bvfact.qbv import diagram_antibracket
        f, g, h = F_BUMP, mollifier(Fraction(3, 4), Fraction(1, 2)), \
            mollifier(Fraction(1, 4), Fraction(1, 2))
        # the fused vertex carries (f g) h on one side, f (h g) on the other
        lap1 = bv_laplacian(field_obs(f * g) * field_obs(h, power=0,
                                                          afpower=1))
        lap2 = bv_laplacian(field_obs(f) * field_obs(h * g, power=0,
                                                     afpower=1))
        assert not lap1.is_zero()
        assert lap1 == lap2
        br1 = diagram_antibracket(field_obs(f * g, power=2),
                                  field_obs(h, afpower=1))
        br2 = diagram_antibracket(field_obs(f, power=2),
                                  field_obs(g * h, afpower=1))
        assert not br1.is_zero()
        assert br1 == br2

    @settings(max_examples=25, deadline=None)
    @given(_bump_specs(), _bump_specs(), st.integers(1, 2),
           st.integers(1, 2))
    def test_equal_bumps_equal_products(self, fs, gs, p, q):
        def build():
            return (field_obs(fs[0](*fs[1:]), power=p),
                    field_obs(gs[0](*gs[1:]), power=q))
        F1, G1 = build()
        F2, G2 = build()
        assert F1 * G1 == F2 * G2
        assert F1 * G1 == G2 * F2
        assert star(F1, G1) == star(F2, G2)
        assert tprod(F1, G1) == tprod(F2, G2)


@st.composite
def _observables(draw):
    """A product of one or two `field_obs` (power 0-3, afpower 0-1), passed
    through delta_s0 half the time so that it carries (Pu) legs."""
    F = unit()
    for _ in range(draw(st.integers(1, 2))):
        spec = draw(_bump_specs())
        F = F * field_obs(spec[0](*spec[1:]), power=draw(st.integers(0, 3)),
                          afpower=draw(st.integers(0, 1)))
    return delta_s0(F) if draw(st.booleans()) else F


class TestDifference:
    @settings(max_examples=60, deadline=None)
    @given(_observables(), _observables(), st.integers(-2, 2),
           st.integers(-2, 2))
    def test_matches_the_sum_with_the_negative(self, F, G, a, b):
        # F and G may share diagrams, so terms cancel and merge
        F, G = F.scale(a) + G, G.scale(b) + F
        got, want = F - G, F + G.scale(-1)
        assert {k: c.coeffs for k, (_, c) in got.terms.items()} == \
            {k: c.coeffs for k, (_, c) in want.terms.items()}
        assert (F - F).is_zero()


def _p_only(f):
    """int (Pu)(t) f(t) dt."""
    return delta_s0(field_obs(f, power=0, afpower=1))


class TestPMarkedContractions:
    def test_tprod_keeps_the_p_leg_contact_term(self):
        # P G^F = i delta: the (Pu) leg of F contracts with the u leg of G
        F = delta_s0(field_obs(F_BUMP, power=1, afpower=1))
        G = field_obs(mollifier(Fraction(3, 4), Fraction(1, 2)))
        assert tprod(F, G) == tmap(tmap_inv(F) * tmap_inv(G))

    @settings(max_examples=100, deadline=None)
    @given(_observables(), _observables())
    def test_tprod_is_conjugated_product(self, F, G):
        # either side may meet a (Pu)-(Pu) pair, which has no vertex form;
        # the right side can miss one the left side meets, when the graded
        # product cancels it first (T^-1 F . T^-1 F = 0 for odd F)
        try:
            rhs = tmap(tmap_inv(F) * tmap_inv(G))
            lhs = tprod(F, G)
        except NotImplementedError:
            assume(False)
        assert lhs == rhs

    def test_peierls_p_legs_inert(self):
        # P Delta = 0
        assert peierls(_p_only(F_BUMP), field_obs(G_BUMP)).is_zero()

    def test_double_p_contraction_raises(self):
        P1 = _p_only(F_BUMP)
        P2 = _p_only(mollifier(Fraction(3, 4), Fraction(1, 2)))
        P11 = DiagramPoly([(Diagram((Vertex(p=2, w=F_BUMP),), ()), 1)])
        for run in (lambda: tprod(P1, P2), lambda: tmap(P1 * P2),
                    lambda: tmap(P11)):
            with pytest.raises(NotImplementedError,
                               match="i P delta, which has no vertex form"):
                run()

    def test_closed_form_on_overlapping_weights(self):
        # overlapping weights keep the P G^F fusions of the conjugated form,
        # so their Koszul signs count
        rng = random.Random(0)
        for _ in range(60):
            F = unit()
            for _ in range(rng.randint(2, 3)):
                c = Fraction(rng.randint(-1, 1), 4)
                F = F * field_obs(mollifier(c, Fraction(1, 2)),
                                  power=rng.randint(0, 2),
                                  afpower=rng.randint(0, 1))
            assert shat0(F) == shat0(F, closed_form=False)


class TestGreenDefectWork:
    @pytest.mark.parametrize("k", range(-8, 9, 4))
    def test_integrand_points(self, k, monkeypatch):
        # the shapes of the benchmark's green-defect check: one pairing, a
        # cumulative integral on the grid over supp f and supp g, and one
        # overlap integral; every point at which a factor is evaluated
        from bvfact import freeq
        import numpy as np
        points = []

        def probe(func):
            def counted(t):
                points.append(np.size(t))
                return func(t)
            return counted
        integrate, ordered = freeq.integrate, freeq._ordered
        monkeypatch.setattr(freeq, "integrate", lambda func, *args, **kw:
                            integrate(probe(func), *args, **kw))
        monkeypatch.setattr(freeq, "_ordered", lambda factors, *args, **kw:
                            ordered([(probe(f), hull) for f, hull in factors],
                                    *args, **kw))
        shift = Fraction(k, 16)
        f = mollifier(shift, Fraction(1, 2))
        g = mollifier(shift + Fraction(1, 4), Fraction(1, 4))
        assert green_defect(MODEL, f, g, tol=1e-8) < 1e-8
        # the tensor rule took up to 30,000 points here; the grid takes 992
        assert sum(points) <= 2000

"""Field/antifield algebra: antibracket laws, master-equation checks, gauge
fixing of the dim-2 su(2) model, and the classical differential."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bvfact.symexpr import Expr, QI
from bvfact.jetcalc import (JetExpr, jet, testfn as tfn, is_total_divergence,
                            euler_lagrange_density)
from bvfact.bvalg import (FieldContent, antibracket_density, antibracket,
                          antifield_name, AF_SUFFIX, smeared_field,
                          scalar_content, free_scalar, quartic_interaction,
                          GenLagrangian, check_cme, half_self_bracket,
                          gauge_fix, bv_vector_field,
                          reduce_cutoff, eliminate_b, eps,
                          su2_yang_mills, su2_gauge_fixing_fermion)
from bvfact.region import Region


def rand_density(rng, content, names, tfname):
    """Random homogeneous graded density with a named cutoff factor."""
    while True:
        terms = []
        grade = None
        for _ in range(12):
            e = Expr.sym(tfn(tfname))
            for _ in range(rng.randint(1, 3)):
                nm = rng.choice(names)
                k = rng.randint(0, 2)
                e = e * Expr.sym(jet(nm, (k,) if k else (),
                                     content.grade(nm)))
            if e.is_zero():
                continue
            g = e.homogeneous_grade()
            if grade is None:
                grade = g
            if g != grade:
                continue
            c = QI(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2)))
            terms.append(e.map_coeff(lambda q, c=c: q * c))
            if len(terms) >= 3:
                break
        tot = Expr.zero()
        for t in terms:
            tot = tot + t
        if not tot.is_zero():
            return JetExpr(tot, 1), grade


CONTENT = FieldContent([("u", 0), ("c", -1)])
NAMES = ["u", "c", antifield_name("u"), antifield_name("c")]


class TestAntibracketLaws:
    def test_shifted_antisymmetry(self):
        rng = random.Random(7)
        for _ in range(10):
            F, gF = rand_density(rng, CONTENT, NAMES, "fa")
            G, gG = rand_density(rng, CONTENT, NAMES, "fb")
            sgn = (-1) ** ((gF + 1) * (gG + 1))
            lhs = antibracket_density(CONTENT, F, G) + \
                JetExpr.of(sgn, 1) * antibracket_density(CONTENT, G, F)
            assert is_total_divergence(lhs)

    def test_graded_jacobi(self):
        rng = random.Random(8)
        for _ in range(3):
            triple = [rand_density(rng, CONTENT, NAMES, n)
                      for n in ("fa", "fb", "fc")]
            j = JetExpr.const(0, 1)
            for k in range(3):
                (A, gA), (B, gB), (C, gC) = (triple[k % 3],
                                             triple[(k + 1) % 3],
                                             triple[(k + 2) % 3])
                j = j + JetExpr.of((-1) ** ((gA + 1) * (gC + 1)), 1) * \
                    antibracket_density(
                        CONTENT, A, antibracket_density(CONTENT, B, C))
            assert is_total_divergence(j)

    def test_canonical_pairing(self):
        R = Region.interval(0, 1)
        phi_f = smeared_field(scalar_content(), "u", "f", R)
        af_g = smeared_field(scalar_content(), "u" + AF_SUFFIX, "g", R)
        br = antibracket(phi_f, af_g)
        want = JetExpr.of(tfn("f"), 1) * JetExpr.of(tfn("g"), 1)
        assert (br.density - want).is_zero()

    def test_field_field_bracket_vanishes(self):
        R = Region.interval(0, 1)
        phi_f = smeared_field(scalar_content(), "u", "f", R)
        phi_g = smeared_field(scalar_content(), "u", "g", R)
        assert antibracket(phi_f, phi_g).density.is_zero()


class TestReduceCutoff:
    def test_only_monomials_with_an_active_symbol_are_rewritten(self):
        u = Expr.sym(jet("u"))
        f, g = Expr.sym(tfn("f")), Expr.sym(tfn("g"))
        density = JetExpr(f * u + Expr.sym(tfn("f", (1,))) * u
                          + g * u * u + u, 1)
        # f -> 1 and Df -> 0 where f is active; g u^2 and u carry no active
        # symbol and stay as they are, g included
        red = reduce_cutoff(density, ["f", "g"], active_names=["f"])
        assert red.expr == u + u + g * u * u
        assert reduce_cutoff(density, ["f", "g"]).expr == u + u + u * u


class TestMasterEquation:
    def test_free_scalar(self):
        assert check_cme(free_scalar()).is_zero

    def test_free_plus_quartic(self):
        L = free_scalar() + quartic_interaction()
        assert check_cme(L).is_zero

    def test_yang_mills(self):
        assert check_cme(su2_yang_mills()).is_zero

    def test_gauge_fixed_yang_mills(self):
        L = su2_yang_mills()
        Psi = su2_gauge_fixing_fermion()
        assert Psi.grade() == -1
        assert check_cme(gauge_fix(L, Psi)).is_zero

    def test_gauge_fix_by_zero_is_identity(self):
        L = su2_yang_mills()
        Z = GenLagrangian(JetExpr.const(0, 2), L.content, ())
        assert (gauge_fix(L, Z).density - L.density).is_zero()


# Even densities of mixed grade over fields of grade 0, -1 and -2 and their
# antifields (grades 1, 2 and 3), with a test function
CME_CONTENT = FieldContent([("u", 0), ("c", -1), ("e", -2)])


@st.composite
def _even_densities(draw):
    dim = draw(st.sampled_from([1, 2]))
    names = ["u", "c", "e"] + [antifield_name(n) for n in ("u", "c", "e")]
    indices = [(), (1,), (2,)] + ([(0, 1), (1, 1)] if dim == 2 else [])
    e = Expr.zero()
    for _ in range(draw(st.integers(1, 5))):
        m = Expr.const(QI(draw(st.integers(-3, 3)), draw(st.integers(-2, 2))))
        if draw(st.booleans()):
            m = m * Expr.sym(tfn("f"))
        for _ in range(draw(st.integers(1, 4))):
            nm = draw(st.sampled_from(names))
            m = m * Expr.sym(jet(nm, draw(st.sampled_from(indices)),
                                 CME_CONTENT.grade(nm)))
        if not m.grades() or m.homogeneous_grade() % 2 == 0:
            e = e + m
    return JetExpr(e, dim)


class TestCMEResidual:
    @given(_even_densities())
    @settings(max_examples=60, deadline=None)
    def test_residual_is_half_the_self_bracket(self, S):
        # the reference: (1/2){S, S} from the two Euler-Lagrange runs of
        # the general antibracket
        ref = JetExpr.of(Fraction(1, 2), S.dim) * \
            antibracket_density(CME_CONTENT, S, S)
        assert half_self_bracket(CME_CONTENT, S) == ref
        assert check_cme(GenLagrangian(S, CME_CONTENT, ())).residual == ref

    def test_mixed_grades_of_the_su2_models(self):
        for L in (su2_yang_mills(),
                  gauge_fix(su2_yang_mills(), su2_gauge_fixing_fermion())):
            S = L.density
            assert len(S.expr.grades()) > 1
            ref = JetExpr.of(Fraction(1, 2), S.dim) * \
                antibracket_density(L.content, S, S)
            assert half_self_bracket(L.content, S) == ref

    def test_odd_monomial_raises(self):
        u = JetExpr.of(jet("u"), 1)
        c = JetExpr.of(jet("c", (), -1), 1)
        S = u * u + JetExpr.of(3, 1) * c * u
        with pytest.raises(ValueError, match=r"3\*c\*u"):
            check_cme(GenLagrangian(S, CME_CONTENT, ()))


class TestCMEWork:
    def test_su2_yang_mills_counts(self, monkeypatch):
        # one Euler-Lagrange run for the residual and one for exactness;
        # the merges are the products E^L_phi E^L_phi~ and nothing else
        from bvfact import jetcalc, symexpr
        L = su2_yang_mills()
        runs, merges = [], []
        euler, merge = jetcalc._euler_operator, symexpr._merge_monomials

        def counted_euler(*args, **kw):
            runs.append(1)
            return euler(*args, **kw)

        def counted_merge(m1, m2):
            merges.append(1)
            return merge(m1, m2)
        monkeypatch.setattr(jetcalc, "_euler_operator", counted_euler)
        monkeypatch.setattr(symexpr, "_merge_monomials", counted_merge)
        assert check_cme(L).is_zero
        assert len(runs) == 2
        assert len(merges) <= 600


class TestEliminateB:
    CONTENT = FieldContent([("u", 0), ("b_1", 0)])

    def _sym(self, name, mu=()):
        return JetExpr.of(self.CONTENT.sym(name, mu), 1)

    def test_square_completed(self):
        b, u = self._sym("b_1"), self._sym("u")
        got = eliminate_b(GenLagrangian(b * b + b * u, self.CONTENT, ()))
        assert got.density == JetExpr.of(QI(Fraction(-1, 4)), 1) * u * u

    @pytest.mark.parametrize("a", [QI(3), QI(Fraction(-1, 2)), QI(1, 2)])
    def test_quadratic_in_b_gives_r_minus_x2_over_4a(self, a):
        # f (a b^2 + b X + R) with f == 1, X and R free of b
        b, u, ut = self._sym("b_1"), self._sym("u"), self._sym("u", (1,))
        f = JetExpr.of(tfn("f"), 1)
        X = JetExpr.of(2, 1) * ut + u * u
        R = ut * ut - u
        L = GenLagrangian(f * (JetExpr.of(a, 1) * b * b + b * X + R),
                          self.CONTENT, ("f",))
        got = eliminate_b(L).density
        assert got == R - JetExpr.of(QI(1) / (QI(4) * a), 1) * X * X

    def test_no_b_left_in_gauge_fixed_yang_mills(self):
        L = eliminate_b(gauge_fix(su2_yang_mills(),
                                  su2_gauge_fixing_fermion()))
        assert not [s for s in L.density.expr.symbols()
                    if s.ns == "jet" and s.name.startswith("b_")]

    def test_field_dependent_quadratic_coefficient_raises(self):
        b, u = self._sym("b_1"), self._sym("u")
        with pytest.raises(ValueError, match="b_1"):
            eliminate_b(GenLagrangian(u * b * b, self.CONTENT, ()))

    @pytest.mark.parametrize("derived_term", [False, True])
    def test_derived_auxiliary_field_raises_naming_it(self, derived_term):
        # b_1^2 + b_1' u would keep b_1' u in the density; in b_1'^2 + b_1 u
        # the cause is the derivative, not the quadratic coefficient
        b, bt, u = self._sym("b_1"), self._sym("b_1", (1,)), self._sym("u")
        L = b * b + bt * u if derived_term else bt * bt + b * u
        with pytest.raises(ValueError, match=r"b_1\.d\[1\]"):
            eliminate_b(GenLagrangian(L, self.CONTENT, ()))


class TestClassicalDifferential:
    def test_equation_of_motion(self):
        S0 = free_scalar(omega=1)
        R = Region.interval(0, 1)
        af_g = smeared_field(scalar_content(), "u" + AF_SUFFIX, "g", R)
        q = bv_vector_field(S0, af_g)
        u = JetExpr.of(jet("u", (), 0), 1)
        utt = JetExpr.of(jet("u", (2,), 0), 1)
        g = JetExpr.of(tfn("g"), 1)
        assert (q.density + (utt + u) * g).is_zero()

    def test_nilpotent_on_battery(self):
        # Q_S^2 = 0 modulo total divergences, given the CME
        rng = random.Random(9)
        S = free_scalar() + quartic_interaction()
        R = Region.interval(0, 1)
        content = S.content
        names = ["u", antifield_name("u")]
        from bvfact.bvalg import LocalFunctional
        for _ in range(6):
            dens, _ = rand_density(rng, content, names, "g")
            F = LocalFunctional(dens, R, content)
            QF = bv_vector_field(S, F)
            QQF = bv_vector_field(S, QF)
            assert is_total_divergence(QQF.density)


class TestStructureConstants:
    def test_epsilon_antisymmetry(self):
        assert eps(1, 2, 3) == 1
        assert eps(2, 1, 3) == -1
        assert eps(1, 1, 2) == 0

    def test_jacobi_identity(self):
        # sum_k (e_ijk e_klm + e_jlk e_kim + e_lik e_kjm) = 0
        for i in range(1, 4):
            for j in range(1, 4):
                for l in range(1, 4):
                    for m in range(1, 4):
                        tot = sum(eps(i, j, k) * eps(k, l, m) +
                                  eps(j, l, k) * eps(k, i, m) +
                                  eps(l, i, k) * eps(k, j, m)
                                  for k in range(1, 4))
                        assert tot == 0

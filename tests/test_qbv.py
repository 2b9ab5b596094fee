"""Quantum master structure with interaction: the interacting differential,
the odd Laplacian, quantum-master-equation checks at both the Lagrangian and
diagram level, and the master Ward identity."""

import random
from fractions import Fraction

import pytest

from bvfact.symexpr import Expr, FormalSeries
from bvfact.qbv import (QMEError, interaction_vertex, plateau_cutoff,
                        diagram_antibracket, interacting_bv, check_qme,
                        check_qme_vertex, delta0, amwi_check)
from bvfact.bvalg import free_scalar, quartic_interaction
from bvfact.freeq import (OscillatorModel, field_obs, unit, shat0, eval_poly)
from bvfact.region import Region, mollifier
from bvfact.numfields import Poly1D

ORDERS = (3, 2)
F_BUMP = mollifier(0, Fraction(1, 2))
G_BUMP = mollifier(Fraction(1, 4), Fraction(1, 4))
MODEL = OscillatorModel(omega=1, orders=ORDERS)


def vertex():
    return interaction_vertex(F_BUMP, power=4, orders=ORDERS)


class TestDiagramAntibracket:
    def test_pairs_field_with_antifield(self):
        V = vertex()
        afg = field_obs(G_BUMP, power=0, afpower=1, orders=ORDERS)
        br = diagram_antibracket(V, afg)
        assert not br.is_zero()
        # order-lambda coefficient: 4 lam int f g u(t)^3
        vals = eval_poly(br, MODEL, {"u": Poly1D([1.0])}, tol=1e-10)
        from scipy.integrate import quad
        want, _ = quad(lambda t: 4 * F_BUMP(t) * G_BUMP(t), 0.0, 0.5,
                       epsabs=1e-12, epsrel=1e-12)
        assert abs(vals[(0, 1)] - want) < 1e-9

    def test_bracket_with_plain_field_vanishes(self):
        V = vertex()
        phi = field_obs(G_BUMP, orders=ORDERS)
        assert diagram_antibracket(V, phi).is_zero()


class TestInteractingDifferential:
    def test_free_limit(self):
        F = field_obs(G_BUMP, afpower=1, orders=ORDERS)
        assert interacting_bv(F) == shat0(F)

    def test_kills_unit(self):
        assert interacting_bv(unit(ORDERS), vertex()).is_zero()

    def test_nilpotent_battery(self):
        rng = random.Random(6)
        V = vertex()
        sing = [field_obs(w, power=p, afpower=q, orders=ORDERS)
                for w in (F_BUMP, G_BUMP)
                for p in (0, 1, 2) for q in (0, 1) if p + q > 0]
        for _ in range(8):
            F = rng.choice(sing)
            if rng.random() < 0.5:
                F = F * rng.choice(sing)
            s2 = interacting_bv(interacting_bv(F, V, check=False), V,
                                check=False)
            assert s2.is_zero()

    def test_support_preserved(self):
        V = vertex()
        F = field_obs(G_BUMP, power=2, afpower=1, orders=ORDERS)
        out = interacting_bv(F, V, check=False)
        lo, hi = out.support().bounds()
        assert lo >= Fraction(-1, 2) and hi <= Fraction(1, 2)


class TestOddLaplacian:
    def test_graded_leibniz_disjoint(self):
        FA = field_obs(mollifier(-2, Fraction(1, 2)), power=2, afpower=1,
                       orders=ORDERS)
        FB = field_obs(mollifier(2, Fraction(1, 2)), power=3, afpower=1,
                       orders=ORDERS)
        # both factors odd: Delta(FG) = Delta(F) G - F Delta(G)
        assert delta0([FA, FB]) == delta0([FA]) * FB - FA * delta0([FB])

    def test_even_factor_leibniz(self):
        FA = field_obs(mollifier(-2, Fraction(1, 2)), power=2,
                       orders=ORDERS)
        FB = field_obs(mollifier(2, Fraction(1, 2)), power=1, afpower=1,
                       orders=ORDERS)
        assert delta0([FA, FB]) == delta0([FA]) * FB + FA * delta0([FB])


class TestMasterEquation:
    def test_free_plus_quartic(self):
        rep = check_qme(free_scalar(), quartic_interaction(), orders=ORDERS)
        assert rep["ok"]
        assert rep["orders"][(0, 0)] and rep["orders"][(0, 1)]
        assert rep["orders"][(0, 2)] and rep["orders"][(1, 1)]

    def test_self_brackets_take_one_run(self, monkeypatch):
        # (1/2){L0, L0} and (1/2){LI, LI} come from half_self_bracket's one
        # Euler-Lagrange run; only the cross term {L0, LI} takes the two
        # runs of the general antibracket
        from bvfact import qbv
        calls = []
        general = qbv.antibracket_density

        def counted(*args):
            calls.append(1)
            return general(*args)
        monkeypatch.setattr(qbv, "antibracket_density", counted)
        assert check_qme(free_scalar(), quartic_interaction(),
                         orders=ORDERS)["ok"]
        assert len(calls) == 1

    def test_free_only(self):
        rep = check_qme(free_scalar(), orders=ORDERS)
        assert rep["ok"]

    def test_fake_anomaly_detected(self):
        fake = field_obs(G_BUMP, orders=ORDERS).scale(
            FormalSeries({(1, 1): Expr.const(1)}, ORDERS))
        rep = check_qme(free_scalar(), quartic_interaction(), orders=ORDERS,
                        fake_anomaly=fake)
        assert not rep["ok"]

    def test_vertex_level(self):
        assert check_qme_vertex(vertex())["ok"]
        fake = field_obs(G_BUMP, orders=ORDERS).scale(
            FormalSeries({(1, 1): Expr.const(1)}, ORDERS))
        assert not check_qme_vertex(vertex(), fake_anomaly=fake)["ok"]

    def test_interacting_bv_guards_qme(self):
        fake_v = vertex() + field_obs(G_BUMP, afpower=1, orders=ORDERS)
        with pytest.raises(QMEError):
            interacting_bv(field_obs(G_BUMP, orders=ORDERS), fake_v)


class TestWardIdentity:
    FIELDS = [{"u": Poly1D([0.3, -0.2])}]

    def test_quadratic_observable(self):
        F = field_obs(G_BUMP, power=2, orders=ORDERS)
        _, rep = amwi_check(F, vertex(), fields=self.FIELDS, tol=1e-8)
        assert rep["ok"]
        assert rep["hbar_bound_ok"]

    def test_zero_and_linear(self):
        for F in (field_obs(G_BUMP, orders=ORDERS),
                  field_obs(G_BUMP, afpower=1, orders=ORDERS)):
            _, rep = amwi_check(F, vertex(), fields=self.FIELDS, tol=1e-8)
            assert rep["ok"]


class TestCutoffs:
    def test_plateau_cutoff_shape(self):
        w = plateau_cutoff(Region.interval(0, 1))
        assert w(0.0) == 1.0 and w(1.0) == 1.0 and w(0.5) == 1.0
        assert w(-0.3) == 0.0 and w(1.3) == 0.0

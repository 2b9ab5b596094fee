"""Acceptance gate: one test (and one printed pass/fail line) per headline
property of the library, each at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` for the per-criterion lines;
every criterion is independent, so a failure pinpoints the broken layer.
"""

import json
import math
import random
from fractions import Fraction

import pytest

from bvfact.symexpr import Expr, QI, FormalSeries
from bvfact.jetcalc import (jet, testfn as tfn, JetExpr, LagForm,
                            total_derivative, horizontal_diff,
                            euler_lagrange, is_total_divergence,
                            homotopy_primitive)
from bvfact.bvalg import (FieldContent, antibracket_density, antifield_name,
                          free_scalar, quartic_interaction, check_cme,
                          gauge_fix, bv_vector_field, LocalFunctional,
                          su2_yang_mills, su2_gauge_fixing_fermion)
from bvfact.region import Region, mollifier, is_weiss_cover
from bvfact.mloc import (MultilocalObs, MLTerm, local_observable, extend,
                         structure_map, weiss_decompose,
                         WeissDecompositionError)
from bvfact import freeq
from bvfact.freeq import (OscillatorModel, green, green_defect, field_obs,
                          star, unit, peierls, tmap, tmap_inv, tprod,
                          eval_poly, delta_s0, shat0, causal_check)
from bvfact import egren
from bvfact.egren import (theta_power, smooth_kernel, feynman_power,
                          scaling_degree, ambiguity_basis, ExtendedDist,
                          TimeOrder2, main_theorem_check,
                          recover_delta_coefficient)
from bvfact.qbv import (interaction_vertex, interacting_bv, check_qme,
                        delta0, amwi_check)
from bvfact.cli import build_report, report_json
from bvfact.numfields import Poly1D, Harmonic1D


def _line(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = " (%s)" % detail if detail else ""
    print("[%s] %s%s" % (tag, name, suffix))
    assert ok, "%s%s" % (name, suffix)


def _random_jetexpr(rng, dim=1, names=("u", "v"), nterm=3, maxdeg=3,
                    maxord=2):
    e = Expr.zero()
    for _ in range(nterm):
        m = Expr.const(QI(Fraction(rng.randint(-4, 4)),
                          Fraction(rng.randint(-2, 2))))
        for _ in range(rng.randint(1, maxdeg)):
            counts = [rng.randint(0, maxord) for _ in range(dim)]
            while counts and counts[-1] == 0:
                counts.pop()
            m = m * Expr.sym(jet(rng.choice(names), tuple(counts), 0))
        e = e + m
    return JetExpr(e, dim)


# ---------------------------------------------------------------------------
# 1. Variational complex
# ---------------------------------------------------------------------------

class TestVariationalComplex:
    def test_total_derivatives_commute(self):
        rng = random.Random(101)
        for _ in range(100):
            f = _random_jetexpr(rng, dim=2)
            a = total_derivative(total_derivative(f, 0), 1)
            b = total_derivative(total_derivative(f, 1), 0)
            if not (a - b).is_zero():
                _line("variational: D_i D_j = D_j D_i (100 random)", False)
        _line("variational: D_i D_j = D_j D_i (100 random)", True)

    def test_d_squared_zero(self):
        rng = random.Random(102)
        for _ in range(100):
            om = LagForm(0, 2, {(): _random_jetexpr(rng, dim=2)})
            if not horizontal_diff(horizontal_diff(om)).is_zero():
                _line("variational: d^2 = 0 (100 random)", False)
        _line("variational: d^2 = 0 (100 random)", True)

    def test_euler_lagrange_annihilates_divergences(self):
        rng = random.Random(103)
        for _ in range(100):
            f = _random_jetexpr(rng)
            els = euler_lagrange(LagForm.top(total_derivative(f, 0), 1))
            if not all(v.is_zero() for v in els.values()):
                _line("variational: E(Div) = 0 (100 random)", False)
        _line("variational: E(Div) = 0 (100 random)", True)

    def test_homotopy_primitive_exact(self):
        rng = random.Random(104)
        ok = True
        for _ in range(20):
            f = _random_jetexpr(rng, names=("u",), nterm=2, maxdeg=2)
            omega = LagForm.top(total_derivative(f, 0), 1)
            eta, obstruction = homotopy_primitive(omega)
            d_eta = total_derivative(eta.component(()), 0)
            ok = ok and not obstruction and \
                (d_eta.expr - omega.component((0,)).expr).is_zero()
        _line("variational: divergence primitives exact (20 random)", ok)

    def test_constant_obstruction(self):
        omega = LagForm(0, 1, {(): JetExpr.const(QI(Fraction(7, 3)), 1)})
        eta, obstruction = homotopy_primitive(omega)
        _line("variational: constants obstruct exactness",
              obstruction == QI(Fraction(7, 3)) and eta.is_zero())


# ---------------------------------------------------------------------------
# 2. Classical BV algebra
# ---------------------------------------------------------------------------

def _rand_graded(rng, content, names, tfname):
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


class TestClassicalBV:
    CONTENT = FieldContent([("u", 0), ("c", -1)])
    NAMES = ["u", "c", antifield_name("u"), antifield_name("c")]

    def test_shifted_antisymmetry(self):
        rng = random.Random(201)
        ok = True
        for _ in range(8):
            F, gF = _rand_graded(rng, self.CONTENT, self.NAMES, "fa")
            G, gG = _rand_graded(rng, self.CONTENT, self.NAMES, "fb")
            s = (-1) ** ((gF + 1) * (gG + 1))
            lhs = antibracket_density(self.CONTENT, F, G) + \
                JetExpr.of(s, 1) * antibracket_density(self.CONTENT, G, F)
            ok = ok and is_total_divergence(lhs)
        _line("BV: antibracket shifted antisymmetry (8 random)", ok)

    def test_graded_jacobi(self):
        rng = random.Random(202)
        ok = True
        for _ in range(3):
            tr = [_rand_graded(rng, self.CONTENT, self.NAMES, n)
                  for n in ("fa", "fb", "fc")]
            j = JetExpr.const(0, 1)
            for k in range(3):
                (A, gA), (B, gB), (C, gC) = (tr[k % 3], tr[(k + 1) % 3],
                                             tr[(k + 2) % 3])
                j = j + JetExpr.of((-1) ** ((gA + 1) * (gC + 1)), 1) * \
                    antibracket_density(
                        self.CONTENT, A,
                        antibracket_density(self.CONTENT, B, C))
            ok = ok and is_total_divergence(j)
        _line("BV: antibracket graded Jacobi (3 random)", ok)

    def test_leibniz(self):
        # the bracket with an even functional is an odd derivation of the
        # product of functionals: {V, FG} = {V,F}G + (-1)^|F| F{V,G}
        from bvfact.qbv import diagram_antibracket, interaction_vertex
        rng = random.Random(203)
        orders = (3, 2)
        V = interaction_vertex(mollifier(0, Fraction(1, 2)), power=4,
                               orders=orders)
        f = mollifier(Fraction(3, 2), Fraction(1, 4))
        g = mollifier(Fraction(-3, 2), Fraction(1, 4))
        ok = True
        for _ in range(8):
            pf, qf = rng.randint(0, 2), rng.randint(0, 1)
            pg, qg = rng.randint(0, 2), rng.randint(0, 1)
            if pf + qf == 0 or pg + qg == 0:
                continue
            F = field_obs(f, power=pf, afpower=qf, orders=orders)
            G = field_obs(g, power=pg, afpower=qg, orders=orders)
            lhs = diagram_antibracket(V, F * G)
            second = F * diagram_antibracket(V, G)
            rhs = diagram_antibracket(V, F) * G + \
                (second.scale(-1) if qf % 2 else second)
            ok = ok and (lhs - rhs).is_zero()
        _line("BV: bracket Leibniz rule on products of functionals "
              "(8 random)", ok)

    def test_free_scalar_cme(self):
        _line("BV: free scalar master equation exact",
              check_cme(free_scalar()).is_zero)

    def test_gauge_fixed_yang_mills_cme(self):
        L = gauge_fix(su2_yang_mills(), su2_gauge_fixing_fermion())
        _line("BV: gauge-fixed su(2) Yang-Mills master equation exact",
              check_cme(L).is_zero)

    def test_classical_differential_nilpotent(self):
        rng = random.Random(204)
        S = free_scalar() + quartic_interaction()
        R = Region.interval(0, 1)
        ok = True
        for _ in range(5):
            dens, _ = _rand_graded(rng, S.content,
                                   ["u", antifield_name("u")], "g")
            F = LocalFunctional(dens, R, S.content)
            QQF = bv_vector_field(S, bv_vector_field(S, F))
            ok = ok and is_total_divergence(QQF.density)
        _line("BV: Q_S^2 = 0 given the master equation (5 random)", ok)


# ---------------------------------------------------------------------------
# 3. Prefactorization / Weiss gluing
# ---------------------------------------------------------------------------

U_JET = JetExpr.of(jet("u", (), 0), 1)
FIELDS = {"u": Poly1D([0.3, 1.2, -0.7])}


class TestFactorization:
    def test_extend_functorial(self):
        F = local_observable(U_JET * U_JET,
                             mollifier(Fraction(1, 4), Fraction(1, 4)))
        V, W = Region.interval(-1, 1), Region.interval(-2, 2)
        _line("factorization: extension functorial (exact)",
              extend(extend(F, V), W) == extend(F, W))

    def test_structure_map_laws(self):
        F = local_observable(U_JET * U_JET,
                             mollifier(Fraction(1, 4), Fraction(1, 4)))
        G = local_observable(U_JET,
                             mollifier(Fraction(3, 4), Fraction(1, 8)))
        V, W = Region.interval(-1, 1), Region.interval(-2, 2)
        pf = (F, Region.interval(0, Fraction(1, 2)))
        pg = (G, Region.interval(Fraction(5, 8), Fraction(7, 8)))
        equivariant = structure_map([pf, pg], W) == structure_map([pg, pf], W)
        nested = structure_map([(structure_map([pf], V), V)], W) == \
            structure_map([pf], W)
        _line("factorization: structure maps associative and equivariant",
              equivariant and nested)

    def test_weiss_roundtrip(self):
        cover = [Region.interval(0, Fraction(7, 10)),
                 Region.interval(Fraction(3, 10), 1),
                 Region.intervals([(0, Fraction(2, 5)),
                                   (Fraction(3, 5), 1)])]
        h1 = mollifier(Fraction(1, 3), Fraction(1, 4))
        h2 = mollifier(Fraction(2, 3), Fraction(1, 4))
        F = MultilocalObs([MLTerm((U_JET * U_JET, U_JET), (h1, h2), 1)],
                          Region.interval(0, 1))
        parts = weiss_decompose(F, cover)
        rng = random.Random(301)
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(6)]
        got = sum(p.kernel(pts, FIELDS) for p, _ in parts)
        dev = max(abs(got - F.kernel(pts, FIELDS)))
        _line("factorization: Weiss decomposition roundtrip < 1e-10",
              dev < 1e-10, "dev=%.3g" % dev)

    def test_non_weiss_rejected(self):
        h1 = mollifier(Fraction(1, 3), Fraction(1, 4))
        h2 = mollifier(Fraction(2, 3), Fraction(1, 4))
        F = MultilocalObs([MLTerm((U_JET * U_JET, U_JET), (h1, h2), 1)],
                          Region.interval(0, 1))
        bad = [Region.interval(0, Fraction(2, 3)),
               Region.interval(Fraction(1, 3), 1)]
        try:
            weiss_decompose(F, bad)
            _line("factorization: non-Weiss cover rejected with witness",
                  False)
        except WeissDecompositionError as e:
            _line("factorization: non-Weiss cover rejected with witness",
                  e.witness is not None)


# ---------------------------------------------------------------------------
# 4. Free quantum theory (oscillator, omega = 1)
# ---------------------------------------------------------------------------

MODEL = OscillatorModel(omega=1)
FB = mollifier(Fraction(1, 2), Fraction(1, 2))
GB = mollifier(Fraction(5, 2), Fraction(1, 2))
HB = mollifier(Fraction(-3, 2), Fraction(1, 2))


class TestFreeQuantum:
    def test_weak_green(self):
        d = green_defect(MODEL, FB, mollifier(Fraction(1, 2), Fraction(1, 4)),
                         tol=1e-10)
        _line("free quantum: P(retarded Green) = delta weakly < 1e-8",
              d < 1e-8, "defect=%.3g" % d)

    def test_wightman_positivity(self):
        # the package's Gram form of W(tau) = e^{-i w tau}/(2w) against its
        # closed form |sum_j z_j int b_j(s) e^{i w s} ds|^2 / (2w)
        from scipy.integrate import quad
        W = green(MODEL, "wightman")
        w = MODEL.omega
        rng = random.Random(401)
        worst, dev = math.inf, 0.0
        for _ in range(4):
            terms = [(mollifier(Fraction(rng.randint(-2, 2), 2),
                                Fraction(1, 2)),
                      complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                     for _ in range(2)]
            form = sum(zi.conjugate() * zj * freeq.pair_kernel(W, bi, bj)
                       for bi, zi in terms for bj, zj in terms)
            fourier = 0j
            for b, z in terms:
                lo, hi = map(float, b.support.bounds())
                re, _ = quad(lambda s: b(s) * math.cos(w * s), lo, hi,
                             epsabs=1e-13, epsrel=1e-13)
                im, _ = quad(lambda s: b(s) * math.sin(w * s), lo, hi,
                             epsabs=1e-13, epsrel=1e-13)
                fourier += z * complex(re, im)
            dev = max(dev, abs(form - abs(fourier) ** 2 / (2 * w)))
            worst = min(worst, form.real)
        assert dev < 1e-10, dev
        _line("free quantum: Wightman positivity >= -1e-10",
              worst >= -1e-10, "min=%.3g" % worst)

    def test_star_commutator(self):
        Ff, Gg = field_obs(FB), field_obs(GB)
        comm = eval_poly(star(Ff, Gg) - star(Gg, Ff), MODEL,
                         {"u": Poly1D([1.0])}, tol=1e-11)
        pb = eval_poly(peierls(Ff, Gg), MODEL, {"u": Poly1D([1.0])},
                       tol=1e-11)
        dev = abs(comm[(1, 0)] - 1j * pb[(0, 0)])
        _line("free quantum: star commutator = i hbar Peierls < 1e-9",
              dev < 1e-9, "dev=%.3g" % dev)

    def test_star_associativity(self):
        F2 = field_obs(FB, power=2)
        G2 = field_obs(GB, power=2)
        H2 = field_obs(HB, power=2)
        _line("free quantum: star associativity exact (hbar <= 3)",
              star(star(F2, G2), H2) == star(F2, star(G2, H2)))

    def test_causal_factorization(self):
        fl = [{"u": Poly1D([0.7, 0.3])}, {"u": Harmonic1D(1.0, 0.5, 0.2)}]
        later = field_obs(GB, power=2)
        earlier = field_obs(mollifier(Fraction(1, 2), Fraction(1, 4)),
                            power=2)
        r1 = causal_check(later, earlier, MODEL, fl, tol=1e-8)
        r2 = causal_check(earlier, later, MODEL, fl, tol=1e-8)
        dev = max(r1.max_dev, r2.max_dev)
        _line("free quantum: causal factorization < 1e-8 (both orders)",
              dev < 1e-8, "dev=%.3g" % dev)

    def _battery(self, rng, n=10):
        out = []
        for _ in range(n):
            P = unit()
            for _ in range(rng.randint(1, 3)):
                P = P * field_obs(rng.choice([FB, GB, HB]),
                                  power=rng.randint(0, 3),
                                  afpower=rng.randint(0, 1))
            out.append(P)
        return out

    def test_free_differential_closed_form(self):
        rng = random.Random(402)
        ok = all(shat0(F) == tmap_inv(delta_s0(tmap(F)))
                 for F in self._battery(rng))
        _line("free quantum: s0 closed form = conjugated differential "
              "(symbolic)", ok)

    def test_free_differential_nilpotent(self):
        rng = random.Random(403)
        ok = all(shat0(shat0(F)).is_zero() for F in self._battery(rng))
        _line("free quantum: s0^2 = 0 (hbar <= 2)", ok)


# ---------------------------------------------------------------------------
# 5. Extension / renormalization scheme layer
# ---------------------------------------------------------------------------

class TestExtensionLayer:
    def test_scaling_degrees(self):
        vals = [scaling_degree(k, exact=False)
                for k in (theta_power(1), theta_power(2),
                          smooth_kernel(lambda x: math.exp(-x * x)),
                          feynman_power(MODEL, 2))]
        _line("extension: scaling degrees snap to exact values",
              vals == [1, 2, 0, 0], "got %s" % vals)

    def test_ambiguity_dimensions(self):
        a1 = ambiguity_basis(theta_power(1))
        a2 = ambiguity_basis(theta_power(2))
        _line("extension: ambiguity dimensions 1 and 2",
              len(a1) == 1 and len(a2) == 2)

    def test_unique_extension_ignores_weights(self):
        import warnings
        k = feynman_power(MODEL, 2)
        f = mollifier(0, Fraction(1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = ExtendedDist(k, weights={(0,): 0.0}).pair(f)
            b = ExtendedDist(k, weights={(0,): 5.0}).pair(f)
        _line("extension: unique case weight-independent < 1e-12",
              abs(a - b) < 1e-12, "diff=%.3g" % abs(a - b))

    def test_t2_oracle(self):
        T = TimeOrder2(MODEL)
        F = field_obs(mollifier(0, Fraction(1, 2)), power=2)
        G = field_obs(mollifier(Fraction(1, 4), Fraction(1, 4)), power=2)
        sym_ok = T.apply(F, G) == tprod(F, G)
        vals_t = eval_poly(T.apply(F, G), MODEL, FIELDS, tol=1e-10)
        vals_o = eval_poly(tprod(F, G), MODEL, FIELDS, tol=1e-10)
        dev = max(abs(vals_t.get(k, 0) - vals_o.get(k, 0))
                  for k in set(vals_t) | set(vals_o))
        _line("extension: renormalized T2 = naive oracle < 1e-8",
              sym_ok and dev < 1e-8, "dev=%.3g" % dev)

    def test_main_theorem(self):
        shift = 0.37
        T = TimeOrder2(MODEL)
        T2 = TimeOrder2(MODEL, shifts={1: shift})
        battery = [field_obs(mollifier(Fraction(c), Fraction(1, 4)), power=p)
                   for c, p in [(-2, 1), (0, 2), (2, 1), (0, 1)]]
        Z, rep = main_theorem_check(T, T2, battery,
                                    fields=[{"u": Poly1D([0.4, 0.15, -0.1])}],
                                    tol=1e-8)
        c_hat = recover_delta_coefficient(T, T2, mollifier(0, Fraction(1, 2)),
                                          mollifier(Fraction(1, 4),
                                                    Fraction(1, 4)))
        ok = rep["ok"] and abs(c_hat - shift) < 1e-8
        _line("extension: scheme comparison recovers c*delta, diagonal "
              "support and Hammerstein < 1e-8", ok,
              "|c_hat - c|=%.3g" % abs(c_hat - shift))


# ---------------------------------------------------------------------------
# 6. Quantum BV layer
# ---------------------------------------------------------------------------

class TestQuantumBV:
    ORDERS = (3, 2)

    def _vertex(self):
        return interaction_vertex(mollifier(0, Fraction(1, 2)), power=4,
                                  orders=self.ORDERS)

    def test_free_limit(self):
        F = field_obs(mollifier(Fraction(1, 4), Fraction(1, 4)), afpower=1,
                      orders=self.ORDERS)
        _line("quantum BV: interacting differential = s0 at lambda = 0 "
              "(exact)", interacting_bv(F) == shat0(F))

    def test_laplacian_leibniz(self):
        FA = field_obs(mollifier(-2, Fraction(1, 2)), power=2, afpower=1,
                       orders=self.ORDERS)
        FB = field_obs(mollifier(2, Fraction(1, 2)), power=3, afpower=1,
                       orders=self.ORDERS)
        ok = delta0([FA, FB]) == delta0([FA]) * FB - FA * delta0([FB])
        _line("quantum BV: odd Laplacian graded Leibniz on disjoint "
              "supports (exact)", ok)

    def test_qme_quartic(self):
        rep = check_qme(free_scalar(), quartic_interaction(), orders=(1, 1))
        _line("quantum BV: QME residual 0 for the quartic model "
              "(hbar <= 1, lambda <= 1)", rep["ok"])

    def test_amwi_diagonal(self):
        F = field_obs(mollifier(Fraction(1, 4), Fraction(1, 4)), power=2,
                      orders=self.ORDERS)
        _, rep = amwi_check(F, self._vertex(),
                            fields=[{"u": Poly1D([0.3, -0.2])}], tol=1e-8)
        _line("quantum BV: Ward-identity defect diagonal-supported < 1e-8",
              rep["ok"] and rep["hbar_bound_ok"])

    def test_interacting_nilpotent(self):
        rng = random.Random(601)
        V = self._vertex()
        sing = [field_obs(w, power=p, afpower=q, orders=self.ORDERS)
                for w in (mollifier(0, Fraction(1, 2)),
                          mollifier(Fraction(1, 4), Fraction(1, 4)))
                for p in (0, 1, 2) for q in (0, 1) if p + q > 0]
        ok = True
        for _ in range(8):
            F = rng.choice(sing)
            if rng.random() < 0.5:
                F = F * rng.choice(sing)
            ok = ok and interacting_bv(
                interacting_bv(F, V, check=False), V, check=False).is_zero()
        _line("quantum BV: s^2 = 0 at stored orders given the QME", ok)


# ---------------------------------------------------------------------------
# 7. Determinism
# ---------------------------------------------------------------------------

class TestDeterminism:
    def test_reports_reproducible(self):
        a = build_report("olver-exactness", {"trials": "5"}, 9, (3, 2), 1e-8)
        b = build_report("olver-exactness", {"trials": "5"}, 9, (3, 2), 1e-8)
        ja, jb = (json.loads(report_json(r)) for r in (a, b))
        ja.pop("generated_at")
        jb.pop("generated_at")
        same = json.dumps(ja, sort_keys=True) == json.dumps(jb,
                                                            sort_keys=True)
        _line("determinism: identical config+seed give identical reports",
              same and a["ok"])

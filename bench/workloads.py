"""The benchmark's four workloads.

Each builder takes a `random.Random` seeded from `--seed` and returns the
list of operations of one round.  An operation is one check at its stated
tolerance: `run` calls bvfact and is timed, `check` judges the result against
a value computed apart from bvfact (see reference.py) or against a property
the method must have, and is not timed.  Checks call nothing that the tracer
probes, so traced counts are the operations' own.

The seed moves the inputs without changing their shape: it picks exact
coefficients, translates whole configurations (every kernel here depends on
differences of times only), and draws fields and weights.
Shapes stay fixed so that the work per round, and hence the timing, does not
depend on the seed.

Bumps and observables are built inside `run`, so each round starts from
fresh objects: bvfact keys product bumps by creation serial, and reusing
objects would let later rounds reuse products built by earlier ones.
"""

import itertools
import math
from collections import defaultdict
from fractions import Fraction

import scipy.integrate  # noqa: F401  (imported by bvfact at call time)

from bvfact.bvalg import (FieldContent, antibracket_density, antifield_name,
                          check_cme, free_scalar, gauge_fix,
                          quartic_interaction, su2_gauge_fixing_fermion,
                          su2_yang_mills)
from bvfact.egren import (TimeOrder2, extend, main_theorem_check,
                          recover_delta_coefficient, scaling_degree,
                          theta_power)
from bvfact.freeq import (OscillatorModel, causal_check, eval_poly,
                          field_obs, green, green_defect, pair_kernel,
                          peierls, star)
from bvfact.jetcalc import (ExactnessDefect, JetExpr, LagForm,
                            homotopy_primitive, is_total_divergence, jet,
                            testfn)
from bvfact.mloc import (MLTerm, MultilocalObs, WeissDecompositionError,
                         weiss_decompose)
from bvfact.numfields import Poly1D
from bvfact.qbv import check_qme, interacting_bv, interaction_vertex
from bvfact.region import Region, mollifier, partition_of_unity
from bvfact.symexpr import QI, Expr

import reference as ref

ORDERS = (3, 2)
OMEGA = 1.0


class Op:
    """One check.  `known_fault` names the program fault that makes it fail
    every time; such an operation counts as failed without making the run
    incorrect."""

    __slots__ = ("name", "run", "check", "known_fault")

    def __init__(self, name, run, check, known_fault=None):
        self.name = name
        self.run = run
        self.check = check
        self.known_fault = known_fault


def _is_true(result):
    return result is True


def _moll(spec):
    return mollifier(*spec)


def _fspec(spec):
    return tuple(float(x) for x in spec)


# ---------------------------------------------------------------------------
# exact-algebra
# ---------------------------------------------------------------------------

UA, CA = antifield_name("u"), antifield_name("c")
GRADES = {"u": 0, "c": -1, UA: -1, CA: 0}
CONTENT_FIELDS = [("u", 0), ("c", -1)]

# Monomial shapes (field name, derivative order) of the graded densities:
# F and H have grade -1 (one odd factor each), G has grade 0.
F_SHAPE = [[(UA, 0), ("u", 2), (CA, 1), ("u", 0)],
           [("c", 1), (CA, 2), ("u", 1)],
           [(UA, 1), ("u", 0), ("u", 1)], [(UA, 2), ("u", 1), (CA, 0)]]
G_SHAPE = [[("u", 1), (CA, 2), ("u", 0), (CA, 1)],
           [(CA, 1), ("u", 2), ("u", 0)],
           [("u", 1), ("u", 2), ("u", 0)], [("u", 2), (CA, 0), (CA, 1)]]
H_SHAPE = [[("c", 2), ("u", 1), (CA, 0), (CA, 1)], [(UA, 1), (CA, 2), (CA, 0)],
           [("c", 1), ("u", 0), ("u", 2)], [(UA, 2), (CA, 1), ("u", 0)]]

# Densities p in the jets u_k of one even field, as lists of derivative
# orders per monomial; the workload asks for primitives of D(p).
PRIMITIVE_SHAPES = [[(1, 1), (1, 2)], [(0, 1), (1, 2), (0, 2)]]


def _gaussian_rational(rng):
    return (Fraction(rng.choice((-3, -2, -1, 1, 2, 3))),
            Fraction(rng.randint(-2, 2)))


def _graded_density(rng, tf, shape):
    e = Expr.zero()
    for mono in shape:
        m = Expr.const(QI(*_gaussian_rational(rng))) * Expr.sym(testfn(tf))
        for name, k in mono:
            m = m * Expr.sym(jet(name, (k,) if k else (), GRADES[name]))
        e = e + m
    return JetExpr(e, 1)


def _ujet_poly(poly):
    """{sorted orders: (re, im)} -> JetExpr."""
    e = Expr.zero()
    for orders, c in poly.items():
        m = Expr.const(QI(*c))
        for k in orders:
            m = m * Expr.sym(jet("u", (k,) if k else ()))
        e = e + m
    return JetExpr(e, 1)


def _poly_of(expr):
    """bvfact Expr in the jets of u -> {sorted orders: (re, im)}, or None if
    another symbol occurs."""
    out = {}
    for mono, c in expr.terms.items():
        orders = []
        for sym, power in mono:
            if sym.ns != "jet" or sym.name != "u":
                return None
            orders += [sym.index[0] if sym.index else 0] * power
        out[tuple(sorted(orders))] = (c.re, c.im)
    return out


def total_derivative_poly(poly):
    """D of {sorted orders: (re, im)} by the chain rule D u_k = u_{k+1}."""
    acc = defaultdict(lambda: [Fraction(0), Fraction(0)])
    for orders, (re, im) in poly.items():
        for i, k in enumerate(orders):
            new = tuple(sorted(orders[:i] + (k + 1,) + orders[i + 1:]))
            acc[new][0] += re
            acc[new][1] += im
    return {k: tuple(v) for k, v in acc.items() if v[0] or v[1]}


def exact_algebra(rng):
    content = FieldContent(CONTENT_FIELDS)
    ops = []

    def antisymmetry(pairs):
        """{A,B} + (-1)^((|A|+1)(|B|+1)) {B,A} is a divergence, per pair."""
        signed = [(A, B, (-1) ** ((A.expr.homogeneous_grade() + 1) *
                                  (B.expr.homogeneous_grade() + 1)))
                  for A, B in pairs]

        def run():
            return all(is_total_divergence(
                antibracket_density(content, A, B) + JetExpr.of(sign, 1) *
                antibracket_density(content, B, A)) for A, B, sign in signed)
        return run

    def jacobi(F, G, H):
        """The cyclic sum of (-1)^((|A|+1)(|C|+1)) {A,{B,C}} is a
        divergence."""
        cyclic = [(A, B, C, (-1) ** ((A.expr.homogeneous_grade() + 1) *
                                     (C.expr.homogeneous_grade() + 1)))
                  for A, B, C in ((F, G, H), (G, H, F), (H, F, G))]

        def run():
            j = JetExpr.const(0, 1)
            for A, B, C, sign in cyclic:
                j = j + JetExpr.of(sign, 1) * antibracket_density(
                    content, A, antibracket_density(content, B, C))
            return is_total_divergence(j)
        return run

    for t in range(3):
        F = _graded_density(rng, "fa", F_SHAPE)
        G = _graded_density(rng, "fb", G_SHAPE)
        H = _graded_density(rng, "fc", H_SHAPE)
        ops.append(Op("antisymmetry-%d" % t, antisymmetry([(F, G), (G, H)]),
                      _is_true))
        ops.append(Op("jacobi-%d" % t, jacobi(F, G, H), _is_true))

    def primitive(omega_poly):
        omega = LagForm.top(_ujet_poly(omega_poly), 1)

        def run():
            return homotopy_primitive(omega)

        def check(result):
            eta, obstruction = result
            eta_poly = _poly_of(eta.component(()).expr)
            return (not obstruction and eta_poly is not None
                    and total_derivative_poly(eta_poly) == omega_poly)
        return run, check

    omegas = [total_derivative_poly({tuple(sorted(mono)):
                                     _gaussian_rational(rng)
                                     for mono in shape})
              for shape in PRIMITIVE_SHAPES]
    for i, omega_poly in enumerate(omegas):
        ops.append(Op("homotopy-primitive-%d" % i, *primitive(omega_poly)))

    # a * u^2 + D(p) is not a divergence: its Euler-Lagrange class is 2 a u
    defect_poly = dict(omegas[-1])
    defect_poly[(0, 0)] = _gaussian_rational(rng)
    defect = LagForm.top(_ujet_poly(defect_poly), 1)

    def exactness_defect():
        try:
            homotopy_primitive(defect)
        except ExactnessDefect:
            return True
        return False
    ops.append(Op("exactness-defect", exactness_defect, _is_true))

    ym = su2_yang_mills()
    ym_gf = gauge_fix(ym, su2_gauge_fixing_fermion())
    ops.append(Op("cme-su2-yang-mills", lambda: check_cme(ym).is_zero,
                  _is_true))
    ops.append(Op("cme-su2-yang-mills-gauge-fixed",
                  lambda: check_cme(ym_gf).is_zero, _is_true))
    return ops


# ---------------------------------------------------------------------------
# oscillator
# ---------------------------------------------------------------------------

def _unit_disk(rng):
    r, phi = math.sqrt(rng.uniform(0.05, 1.0)), rng.uniform(0, 2 * math.pi)
    return complex(r * math.cos(phi), r * math.sin(phi))


def oscillator(rng):
    model = OscillatorModel(OMEGA, ORDERS)
    shift = Fraction(rng.randint(-8, 8), 16)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    f = (shift, half)
    g = (shift + quarter, quarter)
    ff, gf = _fspec(f), _fspec(g)
    ops = []

    ops.append(Op("green-defect",
                  lambda: green_defect(model, _moll(f), _moll(g), tol=1e-8),
                  lambda d: d < 1e-8))

    def pairing(kind, tol, reference):
        def run():
            return pair_kernel(green(model, kind), _moll(f), _moll(g),
                               tol=tol)

        def check(v):
            return abs(v - reference(ff, gf, OMEGA)) <= tol
        return run, check

    ops.append(Op("pair-symmetric",
                  *pairing("symmetric", 1e-5, ref.symmetric_pairing)))
    ops.append(Op("pair-pauli-jordan",
                  *pairing("pauli-jordan", 1e-5, ref.pauli_jordan_pairing)))

    def retarded_minus_advanced():
        return [pair_kernel(green(model, kind), _moll(f), _moll(g), tol=1e-5)
                for kind in ("retarded", "advanced")]
    ops.append(Op("pair-retarded-advanced", retarded_minus_advanced,
                  lambda ra: abs(ra[0] - ra[1] - ref.pauli_jordan_pairing(
                      ff, gf, OMEGA)) <= 2e-5))

    # Wightman positivity on z1 b1 + z2 b2; b2 (x) b1 is the conjugate of
    # b1 (x) b2 since W(-tau) = conj W(tau) and the bumps are real.
    b1, b2 = (shift - half, half), (shift + quarter, quarter)
    z = (_unit_disk(rng), _unit_disk(rng))
    bs = (b1, b2)

    def wightman_gram():
        W = green(model, "wightman")
        return {(k, l): pair_kernel(W, _moll(bs[k]), _moll(bs[l]), tol=1e-5)
                for k, l in ((0, 0), (0, 1), (1, 1))}

    def positive(gram):
        for (k, l), v in gram.items():
            if abs(v - ref.wightman_pairing(_fspec(bs[k]), _fspec(bs[l]),
                                            OMEGA)) > 1e-5:
                return False
        full = dict(gram)
        full[(1, 0)] = gram[(0, 1)].conjugate()
        form = sum(z[k].conjugate() * z[l] * full[(k, l)]
                   for k in (0, 1) for l in (0, 1))
        return form.real >= -1e-10
    ops.append(Op("wightman-positivity", wightman_gram, positive))

    # [F, G]_star = i hbar {F, G}_Peierls for linear observables; with u = 1
    # the Peierls pairing is the Pauli-Jordan pairing of the two bumps.
    sf, sg = (shift + half, half), (shift + Fraction(5, 2), half)
    unit_field = {"u": Poly1D([1.0])}

    def star_commutator():
        F, G = field_obs(_moll(sf), orders=ORDERS), \
            field_obs(_moll(sg), orders=ORDERS)
        comm = eval_poly(star(F, G) - star(G, F), model, unit_field, tol=1e-5)
        pb = eval_poly(peierls(F, G), model, unit_field, tol=1e-5)
        return comm.get((1, 0), 0), pb.get((0, 0), 0)

    def commutator_is_peierls(res):
        comm, pb = res
        return (abs(comm - 1j * pb) < 1e-9 and abs(
            pb - ref.pauli_jordan_pairing(_fspec(sf), _fspec(sg), OMEGA))
            <= 1e-5)
    ops.append(Op("star-commutator-peierls", star_commutator,
                  commutator_is_peierls))

    # causal factorization: supp G lies before supp F
    cf, cg = (shift + 2, half), (shift, half)
    coeffs = [rng.uniform(0.2, 1.0), rng.uniform(-0.3, 0.3)]

    def causal():
        F = field_obs(_moll(cf), orders=ORDERS)
        G = field_obs(_moll(cg), orders=ORDERS)
        return causal_check(F, G, model, [{"u": Poly1D(coeffs)}], tol=1e-3)
    ops.append(Op("causal-factorization", causal,
                  lambda rep: rep.branch == "F*G" and rep.max_dev <= 1e-8))

    return ops


# ---------------------------------------------------------------------------
# renormalization
# ---------------------------------------------------------------------------

BATTERIES = [[(-2, 1), (0, 2), (2, 1), (0, 1)],
             [(-2, 2), (0, 3), (2, 2), (0, 1)]]


def renormalization(rng):
    model = OscillatorModel(OMEGA, ORDERS)
    shift = Fraction(rng.randint(-4, 4), 8)
    quarter = Fraction(1, 4)

    def coefficient():
        return rng.choice((-1, 1)) * rng.randint(100, 900) / 1000

    s = [coefficient() for _ in range(4)]
    fields = [{"u": Poly1D([rng.uniform(-0.5, 0.5) for _ in range(3)])}]
    ops = []

    def scheme_comparison(shifts, battery):
        def run():
            T = TimeOrder2(model, orders=ORDERS)
            T2 = TimeOrder2(model, shifts=shifts, orders=ORDERS)
            obs = [field_obs(mollifier(shift + c, quarter), power=p,
                             orders=ORDERS) for c, p in battery]
            return main_theorem_check(T, T2, obs, fields=fields, tol=1e-8)[1]
        return run

    def scheme_ok(rep):
        return (rep["z_of_zero_is_zero"] and rep["scheme_transport"] and
                rep["diagonal_support_dev"] <= 1e-8 and
                rep["hammerstein_dev"] <= 1e-8 and rep["ok"])

    for i, (shifts, battery) in enumerate((({1: s[0]}, BATTERIES[0]),
                                           ({1: s[0], 2: s[1]}, BATTERIES[1]),
                                           ({1: s[0], 2: s[1], 3: s[2]},
                                            BATTERIES[0]))):
        ops.append(Op("scheme-comparison-%d" % i,
                      scheme_comparison(shifts, battery), scheme_ok))

    def recovery(c):
        def run():
            T = TimeOrder2(model, orders=ORDERS)
            T2 = TimeOrder2(model, shifts={1: c}, orders=ORDERS)
            return recover_delta_coefficient(
                T, T2, mollifier(shift, Fraction(1, 2)),
                mollifier(shift + quarter, quarter))
        return run, (lambda v: abs(v - c) < 1e-8)

    for i, c in enumerate((s[0], s[3])):
        ops.append(Op("delta-recovery-%d" % i, *recovery(c)))

    # theta/x against two test functions, each checked against the
    # benchmark's subtraction integral
    specs = [(Fraction(rng.randint(-4, 4), 16), r)
             for r in (Fraction(1, 2), Fraction(3, 8))]
    expect = [ref.theta_over_x_extension(*_fspec(spec)) for spec in specs]
    ops.append(Op("extension-theta1",
                  lambda: [extend(theta_power(1)).pair(_moll(spec))
                           for spec in specs],
                  lambda vs: all(abs(v - e) < 1e-9
                                 for v, e in zip(vs, expect))))

    # theta/x^2: two weight choices differ by the delta-derivative terms
    spec = (Fraction(rng.randint(-4, 4), 16), Fraction(1, 2))
    w1 = (coefficient(), coefficient())
    w2 = (coefficient(), coefficient())

    def weight_difference():
        t = theta_power(2)
        a = extend(t, {(0,): w1[0], (1,): w1[1]}).pair(_moll(spec))
        b = extend(t, {(0,): w2[0], (1,): w2[1]}).pair(_moll(spec))
        return a - b
    predicted = ref.delta_weight_difference(w1, w2, *_fspec(spec))
    ops.append(Op("extension-weight-difference", weight_difference,
                  lambda v: abs(v - predicted) < 1e-9))

    for p in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
        ops.append(Op("scaling-degree-%s" % p,
                      lambda p=p: scaling_degree(theta_power(p), exact=False),
                      lambda v, p=p: v == p))

    # interacting BV operator: s(s(F)) = 0 on products of local observables
    picks = [(rng.randint(0, 3), rng.randint(0, 1), rng.randint(0, 3),
              rng.randint(0, 1)) for _ in range(3)]

    def nilpotent(pick):
        def run():
            f = mollifier(shift, Fraction(1, 2))
            g = mollifier(shift + quarter, quarter)
            V = interaction_vertex(f, power=4, orders=ORDERS)
            p1, q1, p2, q2 = pick
            F = field_obs(f, power=max(p1, 1 - q1), afpower=q1,
                          orders=ORDERS) * \
                field_obs(g, power=max(p2, 1 - q2), afpower=q2,
                          orders=ORDERS)
            return interacting_bv(interacting_bv(F, V), V).is_zero()
        return run

    for i, pick in enumerate(picks):
        ops.append(Op("interacting-bv-nilpotent-%d" % i, nilpotent(pick),
                      _is_true))

    coupling = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    ops.append(Op("qme-quartic",
                  lambda: check_qme(free_scalar(1),
                                    quartic_interaction(coupling),
                                    orders=ORDERS)["ok"], _is_true))

    # Two checks that fail at every call, whatever the seed.
    def odd_square():
        A = field_obs(mollifier(0, Fraction(1, 2)), afpower=1, orders=ORDERS)
        return (A * A).is_zero()
    ops.append(Op("odd-square-vanishes", odd_square, _is_true,
                  known_fault="freeq.Diagram keeps the first minimal vertex "
                              "permutation and drops the Koszul signs of "
                              "the others"))

    def equal_bumps():
        a = field_obs(mollifier(0, Fraction(1, 2)), orders=ORDERS)
        b = field_obs(mollifier(0, Fraction(1, 2)), orders=ORDERS)
        return (a - b).is_zero()
    ops.append(Op("equal-bumps-cancel", equal_bumps, _is_true,
                  known_fault="bump identity is the creation counter "
                              "Bump.serial"))
    return ops


# ---------------------------------------------------------------------------
# multilocal
# ---------------------------------------------------------------------------

U = JetExpr.of(jet("u"), 1)
U2 = U * U


def _symmetrized_reference(slot_fns, weight_specs, pts):
    """(1/m!) sum over permutations of prod_i slot(x_i) w(x_i), from the
    benchmark's own mollifier formula; every slot here is even."""
    m = len(pts)
    tot = 0.0
    for perm in itertools.permutations(range(m)):
        prod = 1.0
        for i, x in zip(perm, pts):
            c, r = weight_specs[i]
            prod *= slot_fns[i](x) * float(ref.mollifier(x, c, r))
        tot += prod
    return tot / math.factorial(m)


def _pieces_kernel(parts, slot_values, pts):
    """sum over pieces and terms of c * prod_i slot(x_i) w(x_i), with the
    weights evaluated by bvfact.  Every weight is evaluated, but one that
    vanishes at its point costs less, hence the fixed POINT_OFFSETS."""
    tot = 0.0
    for piece, _ in parts:
        for term in piece.terms:
            prod = term.coeff.coeffs[(0, 0)].constant_part().to_complex()
            for slot, w, x in zip(term.slots, term.weights, pts):
                prod *= slot_values[slot](x) * w(x)
            tot += prod
    return tot


def _unions(base, k):
    """Every union of k of the base intervals: a Weiss cover at arity k."""
    return [list(sub) for sub in itertools.combinations(base, k)]


_F = Fraction
COVER2 = [[(0, _F(7, 10))], [(_F(3, 10), 1)], [(0, _F(2, 5)), (_F(3, 5), 1)]]
# name, domain, cover, slots, weights (centre, radius), number of sample
# points.  The degree-3 base intervals overlap by more than a refinement
# interval at the second refinement (8 intervals), where weiss_decompose
# stops: 3,072 terms.
WEISS_CASES = [
    ("weiss-degree2", (0, 1), COVER2, (U2, U),
     [(_F(1, 3), _F(1, 4)), (_F(2, 3), _F(1, 4))], 3),
    ("weiss-degree2-c", (0, 1), COVER2, (U, U2),
     [(_F(3, 10), _F(1, 4)), (_F(7, 10), _F(1, 4))], 3),
    ("weiss-degree2-d", (0, 1), COVER2, (U2, U2),
     [(_F(2, 5), _F(1, 5)), (_F(7, 10), _F(1, 5))], 3),
    ("weiss-degree2-b", (0, 1),
     _unions([(0, _F(7, 20)), (_F(1, 4), _F(11, 20)), (_F(9, 20), _F(3, 4)),
              (_F(13, 20), 1)], 2), (U, U2),
     [(_F(1, 4), _F(1, 5)), (_F(3, 4), _F(1, 5))], 3),
    ("weiss-degree3", (_F(-1, 4), _F(5, 4)),
     _unions([(_F(-1, 4), _F(3, 10)), (_F(1, 20), _F(5, 8)),
              (_F(3, 8), _F(19, 20)), (_F(7, 10), _F(5, 4))], 3), (U, U, U2),
     [(_F(c, 6), _F(1, 8)) for c in (1, 3, 5)], 2),
]


# Sample points of the Weiss checks, as offsets from each weight's centre in
# units of its radius.
POINT_OFFSETS = (-0.7, 0.35, -0.15, 0.8, -0.45, 0.05, 0.6, -0.85, 0.2)


def multilocal(rng):
    # an odd multiple of 1/64, so every seed gives fractions of one size
    shift = Fraction(2 * rng.randint(0, 15) + 1, 64)
    quarter = Fraction(1, 4)
    a = [rng.uniform(0.2, 0.6), rng.uniform(0.5, 1.5), rng.uniform(-1.0, -0.3)]

    def u(x):
        return a[0] + a[1] * x + a[2] * x * x

    slot_values = {U: u, U2: lambda x: u(x) ** 2}

    def translate(ivs):
        return Region.intervals([(lo + shift, hi + shift) for lo, hi in ivs])

    ops = []
    for name, domain, cover_ivs, slots, weights, npts in WEISS_CASES:
        domain = Region.interval(domain[0] + shift, domain[1] + shift)
        weights = [(c + shift, r) for c, r in weights]
        fweights = [_fspec(w) for w in weights]
        # each point inside the supports, so the kernel is not trivially 0;
        # the offsets are fixed, so the same piece weights vanish at the
        # points for every seed and the evaluation cost does not move
        pts = [tuple(c + r * POINT_OFFSETS[(j * len(slots) + i)
                                           % len(POINT_OFFSETS)]
                     for i, (c, r) in enumerate(fweights))
               for j in range(npts)]
        fns = [slot_values[s] for s in slots]
        expect = [_symmetrized_reference(fns, fweights, p) for p in pts]

        def run(domain=domain, cover_ivs=cover_ivs, slots=slots,
                weights=weights, pts=pts):
            cover = [translate(ivs) for ivs in cover_ivs]
            F = MultilocalObs([MLTerm(slots, [_moll(w) for w in weights], 1)],
                              domain, ORDERS)
            parts = weiss_decompose(F, cover)
            inside = all(cover[j].contains_region(p.support())
                         for p, j in parts)
            return inside, [_pieces_kernel(parts, slot_values, x)
                            for x in pts]

        def check(res, expect=expect):
            inside, got = res
            return inside and all(abs(g - e) <= 1e-10
                                  for g, e in zip(got, expect))
        ops.append(Op(name, run, check))

    compact = (shift + Fraction(1, 10), shift + Fraction(9, 10))
    pu_pts = [float(compact[0]) + (k + 0.5) / 8 * 0.8 for k in range(8)]

    def unity():
        cover = [translate(ivs) for ivs in COVER2]
        psis = partition_of_unity(cover, Region.interval(*compact))
        inside = all(V.contains_region(p.support)
                     for V, p in zip(cover, psis))
        return inside, [sum(p(x) for p in psis) for x in pu_pts]
    ops.append(Op("partition-of-unity", unity,
                  lambda res: res[0] and all(abs(v - 1) <= 1e-12
                                             for v in res[1])))

    def non_weiss():
        bad = [translate([(0, Fraction(2, 3))]),
               translate([(Fraction(1, 3), 1)])]
        F = MultilocalObs(
            [MLTerm((U2, U), [mollifier(shift + Fraction(1, 3), quarter),
                              mollifier(shift + Fraction(2, 3), quarter)], 1)],
            translate([(0, 1)]), ORDERS)
        try:
            weiss_decompose(F, bad)
        except WeissDecompositionError as e:
            return e.witness is not None
        return False
    ops.append(Op("non-weiss-rejected", non_weiss, _is_true))
    return ops


WORKLOADS = {
    "exact-algebra": exact_algebra,
    "oscillator": oscillator,
    "renormalization": renormalization,
    "multilocal": multilocal,
}

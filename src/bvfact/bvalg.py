"""Graded field content with antifields, antibracket, CME checking, gauge
fixing, and example model registries (free/quartic scalar, su(2) Yang-Mills).

Conventions (recorded also in the repo convention ledger):
  * grades: fields 0, ghosts/antighosts -1, their antifields +1/+2; the
    pairing satisfies |a| + |a~| = 1.
  * antibracket {F,G} = sum over pairs of
        E^R_phi(F) E^L_phi~(G) - E^R_phi~(F) E^L_phi(G),
    where E^R/E^L are right/left Euler-Lagrange derivatives; with this sign
    {phi(f), phi~(g)} = +int f g.
  * test functions stay symbolic; a cutoff f with f == 1 on the relevant
    support is eliminated by the rewrite f -> 1, Df -> 0 on monomials that
    carry a factor supported where f == 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .symexpr import Expr, QI, I, koszul_sign, _add_into, _sub_into
from .jetcalc import (JetExpr, jet, testfn, total_derivative,
                      euler_lagrange_density, is_total_divergence)

if TYPE_CHECKING:
    # an annotation only: importing region would load numpy
    from .region import Region


AF_SUFFIX = "~"


def antifield_name(name: str) -> str:
    return name + AF_SUFFIX


class FieldContent:
    """Field labels with grades and the antifield involution."""

    def __init__(self, fields):
        # fields: iterable of (name, grade); antifields are adjoined
        self.fields = tuple(fields)
        self.grades = {}
        for name, grade in self.fields:
            if name.endswith(AF_SUFFIX):
                raise ValueError("field names must not end with %r" % AF_SUFFIX)
            self.grades[name] = grade
            self.grades[antifield_name(name)] = 1 - grade

    def grade(self, name):
        return self.grades[name]

    def sym(self, name, mu=()):
        return jet(name, mu, self.grades[name])

    def __eq__(self, other):
        if not isinstance(other, FieldContent):
            return NotImplemented
        return self.fields == other.fields

    def __repr__(self):
        return "FieldContent(%s)" % (list(self.fields),)


class ContentMismatch(ValueError):
    pass


@dataclass
class LocalFunctional:
    """Top-degree density (may contain symbolic test functions) with a
    support region and samples for the test-function symbols."""

    density: JetExpr
    region: Region
    content: FieldContent
    weights: dict = None          # tf name -> sample with .jet(pt, mu)

    def __post_init__(self):
        self.weights = dict(self.weights or {})

    def _chk(self, other):
        if self.content != other.content:
            raise ContentMismatch("mismatched field content")


def smeared_field(content, name, tf_name, region, sample=None, dim=1, mu=()):
    """The functional int u^a_mu(t) f(t) dt."""
    density = JetExpr.of(content.sym(name, mu), dim) * \
        JetExpr.of(testfn(tf_name), dim)
    w = {tf_name: sample} if sample is not None else {}
    return LocalFunctional(density, region, content, w)


# ---------------------------------------------------------------------------
# Antibracket
# ---------------------------------------------------------------------------

def antibracket_density(content, a: JetExpr, b: JetExpr) -> JetExpr:
    er_a = euler_lagrange_density(a, right=True)
    el_b = euler_lagrange_density(b)
    out = JetExpr.const(0, a.dim)
    for name, _ in content.fields:
        gf = content.grade(name)
        ga = content.grade(antifield_name(name))
        t1 = er_a.get((name, gf)), el_b.get((antifield_name(name), ga))
        t2 = er_a.get((antifield_name(name), ga)), el_b.get((name, gf))
        if t1[0] is not None and t1[1] is not None:
            out = out + t1[0] * t1[1]
        if t2[0] is not None and t2[1] is not None:
            out = out - t2[0] * t2[1]
    return out


def antibracket(F: LocalFunctional, G: LocalFunctional) -> LocalFunctional:
    F._chk(G)
    density = antibracket_density(F.content, F.density, G.density)
    w = dict(F.weights)
    w.update(G.weights)
    return LocalFunctional(density, F.region.intersection(G.region),
                           F.content, w)


# ---------------------------------------------------------------------------
# Generalized Lagrangians and cutoff reduction
# ---------------------------------------------------------------------------

@dataclass
class GenLagrangian:
    """Density template over field content with named symbolic test
    functions; L(f) is obtained by sampling the test symbols with bumps."""

    density: JetExpr
    content: FieldContent
    testnames: tuple
    # names for which the convention "f == 1 on the relevant support" holds
    unit_on: tuple = ()

    @property
    def dim(self):
        return self.density.dim

    def grade(self):
        return self.density.expr.homogeneous_grade()

    def __add__(self, other):
        if self.content != other.content:
            raise ContentMismatch("mismatched field content")
        return GenLagrangian(self.density + other.density, self.content,
                             tuple(dict.fromkeys(self.testnames + other.testnames)),
                             tuple(dict.fromkeys(self.unit_on + other.unit_on)))


def reduce_cutoff(density: JetExpr, unit_names, active_names=None) -> JetExpr:
    """Apply f -> 1, Df -> 0 for test symbols in `unit_names`.

    If `active_names` is given, the rewrite is applied only to monomials that
    carry at least one test symbol from `active_names` (whose support is where
    the cutoff equals 1); other monomials are left untouched.
    """
    unit_names = set(unit_names)
    acc = []
    for mono, c in density.expr.terms.items():
        has_active = active_names is None or any(
            s.ns == "tf" and s.name in active_names for s, _ in mono)
        if not has_active:
            acc.append((mono, c))
            continue
        dead = False
        kept = []
        for s, e in mono:
            if s.ns == "tf" and s.name in unit_names:
                if any(s.index):
                    dead = True
                    break
                continue  # f**e -> 1
            kept.append((s, e))
        if not dead:
            acc.append((tuple(kept), c))
    return JetExpr(Expr.from_terms(acc), density.dim)


class CMEReport:
    def __init__(self, residual: JetExpr, is_zero: bool):
        self.residual = residual
        self.is_zero = is_zero

    def __repr__(self):
        return "CMEReport(is_zero=%s)" % self.is_zero


def half_self_bracket(content, S: JetExpr) -> JetExpr:
    """(1/2){S, S} as a density, for a density S of even grade.

    A BV action is even, and for an even density S the right and left
    Euler-Lagrange derivatives differ by E^R_a(S) = (-1)^|a| E^L_a(S).  As
    |a| + |a~| = 1, the two halves of each pair in {S, S} are then equal,
    and (1/2){S, S} = sum over fields phi of (-1)^|phi| E^L_phi E^L_phi~:
    one left Euler-Lagrange run and half of the products, summed into one
    dict.  It equals (1/2) antibracket_density(content, S, S) term for
    term.  A monomial of odd grade raises ValueError.
    """
    for mono, c in S.expr.terms.items():
        if S.expr.grade_of_monomial(mono) % 2:
            raise ValueError("self-bracket of an odd density: the monomial "
                             "%r has odd grade" % (Expr({mono: c}),))
    el = euler_lagrange_density(S)
    acc = {}
    for name, gf in content.fields:
        af = antifield_name(name)
        e_phi = el.get((name, gf))
        e_af = el.get((af, content.grade(af)))
        if e_phi is not None and e_af is not None:
            prod = (e_phi.expr * e_af.expr).terms
            if gf % 2:
                _sub_into(acc, prod)
            else:
                _add_into(acc, prod)
    return JetExpr(Expr(acc), S.dim)


def check_cme(L: GenLagrangian) -> CMEReport:
    """residual = (1/2){L(f), L(f)} as a density (see `half_self_bracket`:
    one left Euler-Lagrange run), reduced by the cutoff convention (unit_on
    test functions equal 1 on the support of the rest) and tested for
    vanishing modulo total divergences.  A monomial of odd grade raises
    ValueError.
    """
    half = half_self_bracket(L.content, L.density)
    active = tuple(n for n in L.testnames if n not in L.unit_on) or None
    red = reduce_cutoff(half, L.unit_on, active)
    return CMEReport(red, is_total_divergence(red))


class GradeMismatch(ValueError):
    pass


def gauge_fix(L: GenLagrangian, Psi: GenLagrangian) -> GenLagrangian:
    """L + {L, Psi} for a grade -1 gauge-fixing fermion Psi."""
    if Psi.density and Psi.grade() != -1:
        raise GradeMismatch("gauge-fixing fermion must have grade -1")
    br = antibracket_density(L.content, L.density, Psi.density)
    return GenLagrangian(L.density + br, L.content,
                         tuple(dict.fromkeys(L.testnames + Psi.testnames)),
                         tuple(dict.fromkeys(L.unit_on + Psi.unit_on)))


def bv_vector_field(S: GenLagrangian, F: LocalFunctional) -> LocalFunctional:
    """Q_S(F) = {S(f), F} with a cutoff f == 1 on supp F.

    The cutoff test symbols of S are eliminated by the support rewrite, so
    the canonical form is manifestly cutoff-independent.
    """
    if S.content != F.content:
        raise ContentMismatch("mismatched field content")
    br = antibracket_density(S.content, S.density, F.density)
    active = set(F.weights) | {s.name for s in F.density.expr.symbols()
                               if s.ns == "tf"}
    br = reduce_cutoff(br, S.testnames, active or None)
    return LocalFunctional(br, F.region, F.content, dict(F.weights))


# ---------------------------------------------------------------------------
# Model registries
# ---------------------------------------------------------------------------

def scalar_content():
    return FieldContent([("u", 0)])


def free_scalar(omega=1, dim=1) -> GenLagrangian:
    """L(f) = int f * (u_t^2 - omega^2 u^2)/2 (dim 1)."""
    content = scalar_content()
    u = JetExpr.of(content.sym("u"), dim)
    ut = JetExpr.of(content.sym("u", (1,)), dim)
    f = JetExpr.of(testfn("f"), dim)
    half = JetExpr.of(Fraction(1, 2), dim)
    w2 = Fraction(omega) ** 2
    density = f * half * (ut * ut - JetExpr.of(w2, dim) * u * u)
    return GenLagrangian(density, content, ("f",))


def quartic_interaction(coupling=1, dim=1) -> GenLagrangian:
    content = scalar_content()
    u = JetExpr.of(content.sym("u"), dim)
    f = JetExpr.of(testfn("f"), dim)
    density = JetExpr.of(Fraction(coupling), dim) * f * u ** 4
    return GenLagrangian(density, content, ("f",))


_EPS = {tuple(i + 1 for i in p): koszul_sign(p, (1, 1, 1))
        for p in itertools.permutations(range(3))}


def eps(i, j, k):
    return _EPS.get((i, j, k), 0)


def su2_content():
    fields = []
    for m in range(2):
        for i in (1, 2, 3):
            fields.append(("A%d_%d" % (m, i), 0))
    for i in (1, 2, 3):
        fields.append(("c_%d" % i, -1))
        fields.append(("cbar_%d" % i, -1))
        fields.append(("b_%d" % i, 0))
    return FieldContent(fields)


def su2_yang_mills(dim=2, ac_coeff=1) -> GenLagrangian:
    """BV-extended su(2) Yang-Mills on the 2d Minkowski base with the
    two-component test convention f = (fp, fpp), fp == 1 on supp fpp.

    Density (summation over color index i, structure constants eps):
      1/2 F_01[fp A]^i F_01[fp A]^i
      + A~^{mu i} ( D_mu(fpp c) )^i  with D on the dressed fields
      + 1/2 eps_ijk c~^i (fpp c)^j c^k
        (one factor of fpp: the ghost variation Qc = 1/2 fpp [c,c] must
        reproduce Q(fpp c) = 1/2 [fpp c, fpp c] on supp fpp)
      - i cbar~^i (fpp b)^i

    `ac_coeff` scales the [A, c] term of the covariant derivative; any value
    other than 1 breaks the classical master equation (useful as a negative
    control).
    """
    content = su2_content()
    d = dim

    def A(m, i, mu=()):
        return JetExpr.of(content.sym("A%d_%d" % (m, i), mu), d)

    def af(name, mu=()):
        return JetExpr.of(content.sym(antifield_name(name), mu), d)

    def c(i, mu=()):
        return JetExpr.of(content.sym("c_%d" % i, mu), d)

    def b(i):
        return JetExpr.of(content.sym("b_%d" % i), d)

    fp = JetExpr.of(testfn("fp"), d)
    fpp = JetExpr.of(testfn("fpp"), d)

    def D(expr, m):
        return total_derivative(expr, m)

    # dressed fields
    def fA(m, i):
        return fp * A(m, i)

    def fc(i):
        return fpp * c(i)

    half = JetExpr.of(Fraction(1, 2), d)
    density = JetExpr.const(0, d)

    # field strength of the dressed potential: F_01 = D_0(fA_1) - D_1(fA_0)
    # + eps_ijk fA_0^j fA_1^k
    for i in (1, 2, 3):
        F01 = D(fA(1, i), 0) - D(fA(0, i), 1)
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                e = eps(i, j, k)
                if e:
                    F01 = F01 + JetExpr.of(e, d) * fA(0, j) * fA(1, k)
        density = density + half * F01 * F01

    # A~ . covariant derivative of the dressed ghost
    ac = Fraction(ac_coeff)
    for m in range(2):
        for i in (1, 2, 3):
            cov = D(fc(i), m)
            for j in (1, 2, 3):
                for k in (1, 2, 3):
                    e = eps(i, j, k)
                    if e:
                        cov = cov + JetExpr.of(ac * e, d) * fA(m, j) * fc(k)
            density = density + af("A%d_%d" % (m, i)) * cov

    # + 1/2 c~ [fc, fc]
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                e = eps(i, j, k)
                if e:
                    density = density + half * JetExpr.of(e, d) * \
                        af("c_%d" % i) * fc(j) * c(k)

    # - i cbar~ fpp b
    for i in (1, 2, 3):
        density = density - JetExpr.of(Expr.const(I), d) * \
            af("cbar_%d" % i) * fpp * b(i)

    return GenLagrangian(density, content, ("fp", "fpp"), unit_on=("fp",))


def eliminate_b(L: GenLagrangian) -> GenLagrangian:
    """Integrate out the Nakanishi-Lautrup fields b_*: each b enters at most
    quadratically with a constant quadratic coefficient, so its equation of
    motion is algebraic and can be substituted back exactly.

    The test-function symbols are first set to 1 (their derivatives to 0),
    giving the constant-coefficient local form used for principal-part
    analysis."""
    density = reduce_cutoff(L.density, L.testnames).expr
    bnames = {name for name, _ in L.content.fields if name.startswith("b_")}
    for s in sorted(density.symbols()):
        if s.ns == "jet" and s.name in bnames and s.index:
            raise ValueError("cannot eliminate %s: its derivative %r occurs, "
                             "so its equation of motion is not algebraic"
                             % (s.name, s))
    for name, grade in L.content.fields:
        if not name.startswith("b_"):
            continue
        s = L.content.sym(name)
        d1 = density.dleft(s)
        if d1.is_zero():
            continue
        d2 = d1.dleft(s)
        a = d2.constant_part()
        if not (d2 - Expr.const(a)).is_zero() or a == QI.of(0):
            raise ValueError("cannot eliminate %s: non-constant or vanishing "
                             "quadratic coefficient" % name)
        r = d1.subs({s: Expr.zero()})
        bstar = r.map_coeff(lambda q: q * (QI.of(-1) / a))
        density = density.subs({s: bstar})
    return GenLagrangian(JetExpr(density, L.dim), L.content, L.testnames,
                         L.unit_on)


def su2_gauge_fixing_fermion(dim=2) -> GenLagrangian:
    """Psi(f) = i int fp cbar_i (-1/2 fpp b^i + div(fp A^i)).

    The sign of the b term is fixed so that integrating b out yields the
    Feynman-gauge term -1/2 (div A)^2, making the linearized A equations
    normally hyperbolic.
    """
    content = su2_content()
    d = dim

    def A(m, i, mu=()):
        return JetExpr.of(content.sym("A%d_%d" % (m, i), mu), d)

    fp = JetExpr.of(testfn("fp"), d)
    fpp = JetExpr.of(testfn("fpp"), d)
    half = JetExpr.of(Fraction(1, 2), d)
    density = JetExpr.const(0, d)
    for i in (1, 2, 3):
        cbar = JetExpr.of(content.sym("cbar_%d" % i), d)
        # Lorenz divergence of the dressed potential: D_0(fA_0) - D_1(fA_1)
        div = total_derivative(fp * A(0, i), 0) - total_derivative(fp * A(1, i), 1)
        density = density + JetExpr.of(Expr.const(I), d) * fp * cbar * \
            (-half * fpp * JetExpr.of(content.sym("b_%d" % i), d) + div)
    return GenLagrangian(density, content, ("fp", "fpp"), unit_on=("fp",))

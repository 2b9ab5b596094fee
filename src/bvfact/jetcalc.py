"""Jet-coordinate calculus on a flat n-dimensional base.

Symbols live in three namespaces:
  * "x"    base coordinates x_0 .. x_{n-1}
  * "jet"  field jet coordinates u^a_mu (field label a, derivative
           multi-index mu, carrying the grade of field a)
  * "tf"   test-function jets w^j_mu (grade 0; prolonged by the total
           derivative but never varied by Euler-Lagrange operators)

A LagForm of degree p stores one JetExpr per strictly increasing p-tuple of
base indices; antisymmetry is absorbed into the sorted keys.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .symexpr import Expr, Symbol, QI
from .quadrature import QuadratureError


def xsym(i: int) -> Symbol:
    return Symbol("x", "x", (i,), 0)


def jet(name: str, mu=(), grade: int = 0) -> Symbol:
    return Symbol("jet", name, tuple(mu), grade)


def testfn(name: str, mu=()) -> Symbol:
    return Symbol("tf", name, tuple(mu), 0)


def is_jet(s: Symbol) -> bool:
    return s.ns == "jet"


def is_testfn(s: Symbol) -> bool:
    return s.ns == "tf"


def _bump_index(mu, i):
    mu = list(mu)
    while len(mu) <= i:
        mu.append(0)
    mu[i] += 1
    return tuple(mu)


def _pad(mu, n):
    return tuple(mu) + (0,) * (n - len(mu))


class JetExpr:
    """Expr over base, jet and test-function symbols on an n-dim base."""

    __slots__ = ("expr", "dim")

    def __init__(self, expr: Expr, dim: int):
        self.expr = expr
        self.dim = dim

    @staticmethod
    def const(c, dim):
        return JetExpr(Expr.const(c), dim)

    @staticmethod
    def of(e, dim):
        if isinstance(e, JetExpr):
            return e
        if isinstance(e, Symbol):
            e = Expr.sym(e)
        if not isinstance(e, Expr):
            e = Expr.const(e)
        return JetExpr(e, dim)

    @property
    def order(self):
        mx = 0
        for s in self.expr.symbols():
            if s.ns in ("jet", "tf"):
                mx = max(mx, sum(s.index))
        return mx

    def __add__(self, other):
        other = JetExpr.of(other, self.dim)
        return JetExpr(self.expr + other.expr, self.dim)

    __radd__ = __add__

    def __neg__(self):
        return JetExpr(-self.expr, self.dim)

    def __sub__(self, other):
        return self + (-JetExpr.of(other, self.dim))

    def __mul__(self, other):
        other = JetExpr.of(other, self.dim)
        return JetExpr(self.expr * other.expr, self.dim)

    __rmul__ = __mul__

    def __pow__(self, n):
        return JetExpr(self.expr ** n, self.dim)

    def __eq__(self, other):
        if not isinstance(other, JetExpr):
            return NotImplemented
        return self.dim == other.dim and self.expr == other.expr

    def __hash__(self):
        return hash((self.dim, self.expr))

    def __bool__(self):
        return bool(self.expr)

    def is_zero(self):
        return self.expr.is_zero()

    def __repr__(self):
        return repr(self.expr)


def total_derivative(f: JetExpr, i: int) -> JetExpr:
    """Total derivative D_i: chain rule through base, jet and test symbols."""
    if not 0 <= i < f.dim:
        raise IndexError("base index %d out of range for dim %d" % (i, f.dim))
    out = Expr.zero()
    for s in f.expr.symbols():
        if s.ns == "x":
            if s.index[0] == i:
                out = out + f.expr.dright(s)
        else:
            # even derivation on a graded algebra: D f = sum_s (d^R f/ds) s'
            prolonged = Symbol(s.ns, s.name, _bump_index(s.index, i), s.grade)
            out = out + f.expr.dright(s) * Expr.sym(prolonged)
    return JetExpr(out, f.dim)


def total_derivative_multi(f: JetExpr, mu) -> JetExpr:
    for i, m in enumerate(mu):
        for _ in range(m):
            f = total_derivative(f, i)
    return f


class LagForm:
    """Differential p-form on the base with JetExpr coefficients."""

    __slots__ = ("degree", "dim", "components")

    def __init__(self, degree: int, dim: int, components=None):
        if not 0 <= degree <= dim:
            raise ValueError("form degree %d out of range 0..%d" % (degree, dim))
        self.degree = degree
        self.dim = dim
        comps = {}
        for key, val in (components or {}).items():
            key = tuple(key)
            if len(key) != degree or list(key) != sorted(set(key)):
                raise ValueError("component key %s must be strictly increasing "
                                 "of length %d" % (key, degree))
            val = JetExpr.of(val, dim)
            if val:
                comps[key] = val
        self.components = comps

    @staticmethod
    def zero(degree, dim):
        return LagForm(degree, dim, {})

    @staticmethod
    def top(density, dim):
        return LagForm(dim, dim, {tuple(range(dim)): density})

    def component(self, key):
        return self.components.get(tuple(key), JetExpr.const(0, self.dim))

    def __add__(self, other):
        if not isinstance(other, LagForm):
            return NotImplemented
        if (self.degree, self.dim) != (other.degree, other.dim):
            raise ValueError("cannot add forms of different degree/dim")
        keys = set(self.components) | set(other.components)
        return LagForm(self.degree, self.dim,
                       {k: self.component(k) + other.component(k) for k in keys})

    def __neg__(self):
        return LagForm(self.degree, self.dim,
                       {k: -v for k, v in self.components.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return LagForm(self.degree, self.dim,
                       {k: JetExpr.of(c, self.dim) * v
                        for k, v in self.components.items()})

    def __eq__(self, other):
        if not isinstance(other, LagForm):
            return NotImplemented
        return (self.degree, self.dim) == (other.degree, other.dim) and \
            self.components == other.components

    def is_zero(self):
        return not self.components

    def map(self, fn):
        return LagForm(self.degree, self.dim,
                       {k: fn(v) for k, v in self.components.items()})

    def __repr__(self):
        if not self.components:
            return "0"
        return " + ".join("(%r) dx%s" % (v, list(k))
                          for k, v in sorted(self.components.items()))


def _insert_index(key, i):
    """Insert base index i into sorted key; return (sign, newkey) or (0, None)."""
    if i in key:
        return 0, None
    pos = sum(1 for j in key if j < i)
    sign = -1 if pos % 2 else 1
    newkey = tuple(sorted(key + (i,)))
    return sign, newkey


def horizontal_diff(omega: LagForm) -> LagForm:
    """Horizontal (total) exterior derivative; degree p -> p+1."""
    if omega.degree == omega.dim:
        return LagForm.zero(omega.degree, omega.dim)  # top degree: zero form
    acc = {}
    for key, coef in omega.components.items():
        for i in range(omega.dim):
            sign, newkey = _insert_index(key, i)
            if sign == 0:
                continue
            # convention: d(f dx_K) = sum_i D_i f dx_i ^ dx_K
            term = total_derivative(coef, i)
            if sign < 0:
                term = -term
            acc[newkey] = acc.get(newkey, JetExpr.const(0, omega.dim)) + term
    return LagForm(omega.degree + 1, omega.dim,
                   {k: v for k, v in acc.items() if v})


def euler_lagrange(L: LagForm, field_symbols=None):
    """Left Euler-Lagrange operator of a top-degree form, one JetExpr per
    field label: E_a = sum_mu (-1)^{|mu|} D_mu (dL/du^a_mu)."""
    if L.degree != L.dim:
        raise ValueError("euler_lagrange needs a top-degree form")
    density = L.component(tuple(range(L.dim)))
    return euler_lagrange_density(density, field_symbols)


def _field_labels(expr: Expr):
    labels = {}
    for s in expr.symbols():
        if s.ns == "jet":
            labels.setdefault((s.name, s.grade), []).append(s)
    return labels


def euler_lagrange_density(density: JetExpr, field_symbols=None, right=False):
    """EL derivatives of a density; returns dict (name, grade) -> JetExpr."""
    labels = _field_labels(density.expr)
    if field_symbols is not None:
        for name, grade in field_symbols:
            labels.setdefault((name, grade), [])
    out = {}
    for (name, grade), syms in sorted(labels.items()):
        acc = JetExpr.const(0, density.dim)
        for s in syms:
            partial = density.expr.dright(s) if right else density.expr.dleft(s)
            if not partial:
                continue
            term = total_derivative_multi(JetExpr(partial, density.dim), s.index)
            if sum(s.index) % 2 == 1:
                term = -term
            acc = acc + term
        out[(name, grade)] = acc
    return out


def total_divergence(fs) -> JetExpr:
    """Div of a vector of JetExprs: sum_i D_i f_i."""
    out = None
    for i, f in enumerate(fs):
        t = total_derivative(f, i)
        out = t if out is None else out + t
    return out


def is_total_divergence(density: JetExpr) -> bool:
    """Exact test: a polynomial density with no purely-base part is a total
    divergence iff all EL derivatives (including ones with respect to
    test-function symbols) vanish.

    Test-function symbols are temporarily treated as fields for this check.
    """
    if density.is_zero():
        return True
    # purely-base (field- and test-independent) part must vanish
    for mono, c in density.expr.terms.items():
        if all(s.ns == "x" for s, _ in mono):
            return False
    promoted = _promote_testfns(density)
    els = euler_lagrange_density(promoted)
    return all(v.is_zero() for v in els.values())


def _promote_testfns(density: JetExpr) -> JetExpr:
    table = {}
    for s in density.expr.symbols():
        if s.ns == "tf":
            table[s] = Expr.sym(Symbol("jet", "@tf:" + s.name, s.index, 0))
    return JetExpr(density.expr.subs(table), density.dim)


# ---------------------------------------------------------------------------
# Mapping-cone complex: LocElement = (LagForm degree n+k, plain form degree
# n+k+1), cohomological degree k in [-n-1, 0].
# ---------------------------------------------------------------------------

@dataclass
class LocElement:
    lag: LagForm          # Lagrangian (n+k)-form, or None when k = -n-1
    form: LagForm         # field-independent (n+k+1)-form, or None when k = 0
    k: int                # cohomological degree

    def __post_init__(self):
        n = None
        if self.lag is not None:
            n = self.lag.dim
        elif self.form is not None:
            n = self.form.dim
        if n is None:
            raise ValueError("empty LocElement")
        self.dim = n
        if not -n - 1 <= self.k <= 0:
            raise ValueError("cohomological degree %d out of range" % self.k)
        if self.lag is not None and self.lag.degree != n + self.k:
            raise ValueError("lag degree mismatch")
        if self.form is not None and self.form.degree != n + self.k + 1:
            raise ValueError("form degree mismatch")
        if self.form is not None:
            for v in self.form.components.values():
                for s in v.expr.symbols():
                    if s.ns == "jet":
                        raise ValueError("de Rham part must be field-independent")

    def __eq__(self, other):
        if not isinstance(other, LocElement):
            return NotImplemented
        def norm(f):
            return None if (f is None or f.is_zero()) else f
        return self.k == other.k and norm(self.lag) == norm(other.lag) \
            and norm(self.form) == norm(other.form)

    def is_zero(self):
        return (self.lag is None or self.lag.is_zero()) and \
            (self.form is None or self.form.is_zero())


def loc_diff(e: LocElement) -> LocElement:
    """Mapping-cone differential d(lag, form) = (d_Lag lag + iota(form),
    -d_DR form).  The minus sign on the de Rham side makes d^2 = 0."""
    n = e.dim
    k = e.k + 1
    if e.k == 0:
        raise ValueError("element already in top cohomological degree")
    new_lag = None
    if n + k <= n:
        new_lag = LagForm.zero(n + k, n)
        if e.lag is not None:
            new_lag = new_lag + horizontal_diff(e.lag)
        if e.form is not None:
            new_lag = new_lag + e.form  # iota: include the plain form
    new_form = None
    if n + k + 1 <= n:
        new_form = LagForm.zero(n + k + 1, n)
        if e.form is not None:
            new_form = new_form + (-horizontal_diff(e.form))
    return LocElement(new_lag, new_form, k)


# ---------------------------------------------------------------------------
# Homotopy primitives (algebraic Poincare lemma, machine-checked form)
# ---------------------------------------------------------------------------

class NotClosedError(ValueError):
    def __init__(self, domega):
        super().__init__("input form is not closed; d(omega) = %r" % (domega,))
        self.domega = domega


class ExactnessDefect(ValueError):
    def __init__(self, el_classes):
        super().__init__(
            "top-degree form is not exact; Euler-Lagrange defect %r" % (el_classes,))
        self.el_classes = el_classes


def _monomial_basis(symbols, max_total_deg, max_xdeg, max_order):
    """All monomials in `symbols` with bounded jet-degree, x-degree, order."""
    xs = sorted([s for s in symbols if s.ns == "x"], key=lambda s: s.key())
    js = sorted([s for s in symbols if s.ns != "x"], key=lambda s: s.key())
    basis = [()]
    for s in js:
        new = []
        cap = 1 if s.odd else max_total_deg
        for mono in basis:
            deg = sum(e for t, e in mono if t.ns != "x")
            for e in range(0, cap + 1):
                if deg + e > max_total_deg:
                    break
                new.append(mono + (((s, e),) if e else ()))
        basis = new
    for s in xs:
        new = []
        for mono in basis:
            xdeg = sum(e for t, e in mono if t.ns == "x")
            for e in range(0, max_xdeg + 1):
                if xdeg + e > max_xdeg:
                    break
                new.append(mono + (((s, e),) if e else ()))
        basis = new
    canon = []
    for mono in basis:
        canon.append(tuple(sorted(mono, key=lambda p: p[0].key())))
    return sorted(set(canon))


def _ansatz_symbols(omega: LagForm, extra_order):
    syms = set()
    maxdeg = 0
    maxx = 0
    maxord = 0
    for coef in omega.components.values():
        for mono, _ in coef.expr.terms.items():
            maxdeg = max(maxdeg, sum(e for s, e in mono if s.ns != "x"))
            maxx = max(maxx, sum(e for s, e in mono if s.ns == "x"))
        for s in coef.expr.symbols():
            syms.add(s)
            if s.ns != "x":
                maxord = max(maxord, sum(s.index))
    names = {(s.ns, s.name, s.grade) for s in syms if s.ns != "x"}
    dim = omega.dim
    full = {xsym(i) for i in range(dim)}
    maxord = maxord + extra_order
    for ns, name, grade in names:
        for mu in _multi_indices(dim, maxord):
            full.add(Symbol(ns, name, mu, grade))
    return full, maxdeg, maxx + 1, maxord


def _multi_indices(dim, max_total):
    out = []
    def rec(prefix, remaining, left):
        if left == 0:
            out.append(tuple(prefix))
            return
        for m in range(remaining + 1):
            rec(prefix + [m], remaining - m, left - 1)
    rec([], max_total, dim)
    # strip trailing zeros for canonical multi-indices
    return sorted({tuple(_strip(mu)) for mu in out})


def _strip(mu):
    mu = list(mu)
    while mu and mu[-1] == 0:
        mu.pop()
    return mu


def homotopy_primitive(omega: LagForm, check: bool = True):
    """Primitive of a closed Lagrangian p-form with polynomial coefficients.

    Returns (eta, obstruction) with d(eta) = omega - obstruction, where the
    obstruction is the constant (degree-0 cohomology) part.  For p = n a
    nonzero Euler-Lagrange class is the defect of exactness and is reported
    via ExactnessDefect.

    The primitive is found exactly by solving the sparse linear system
    d(eta) = omega over the rationals on a finite polynomial ansatz; the
    algebraic Poincare lemma guarantees a solution exists on the (iteratively
    enlarged) ansatz space.
    """
    n, p = omega.dim, omega.degree
    if omega.is_zero():
        return LagForm.zero(max(p - 1, 0), n), QI(0)
    if p == 0:
        d = horizontal_diff(omega)
        if check and not d.is_zero():
            raise NotClosedError(d)
        # closed 0-form on a connected star-convex open is constant
        coef = omega.component(())
        c = coef.expr.constant_part()
        if coef.expr != Expr.const(c):
            raise NotClosedError(horizontal_diff(omega))
        return LagForm.zero(0, n), c
    if p < n and check:
        d = horizontal_diff(omega)
        if not d.is_zero():
            raise NotClosedError(d)
    target = omega
    if p == n:
        els = euler_lagrange(omega)
        bad = {k: v for k, v in els.items() if not v.is_zero()}
        if bad:
            raise ExactnessDefect(bad)
    for extra in (1, 2, 3):
        eta = _solve_primitive(target, extra)
        if eta is not None:
            return eta, QI(0)
    raise RuntimeError("no polynomial primitive found within ansatz bounds")


def _solve_primitive(omega: LagForm, extra_order):
    n, p = omega.dim, omega.degree
    syms, maxdeg, maxx, maxord = _ansatz_symbols(omega, extra_order)
    monos = _monomial_basis(syms, maxdeg, maxx, maxord)
    keys = list(itertools.combinations(range(n), p - 1))
    unknowns = [(key, mono) for key in keys for mono in monos]
    # build columns: d applied to each ansatz basis element
    columns = []
    for key, mono in unknowns:
        basis_form = LagForm(p - 1, n, {key: JetExpr(Expr({mono: QI(1)}), n)})
        columns.append(horizontal_diff(basis_form))
    # row space: (component key, monomial) of degree-p forms
    rows = {}
    def row_of(k, m):
        if (k, m) not in rows:
            rows[(k, m)] = len(rows)
        return rows[(k, m)]
    matrix = []  # list of dict row->QI per column
    for col in columns:
        entries = {}
        for k, coef in col.components.items():
            for m, c in coef.expr.terms.items():
                entries[row_of(k, m)] = c
        matrix.append(entries)
    rhs = {}
    for k, coef in omega.components.items():
        for m, c in coef.expr.terms.items():
            rhs[row_of(k, m)] = c
    sol = _solve_sparse(matrix, rhs, len(rows))
    if sol is None:
        return None
    acc = {}
    for coeff, (key, mono) in zip(sol, unknowns):
        if not coeff:
            continue
        cur = acc.get(key, Expr.zero())
        acc[key] = cur + Expr({mono: coeff})
    return LagForm(p - 1, n, {k: JetExpr(v, n) for k, v in acc.items() if v})


def _solve_sparse(columns, rhs, nrows):
    """Solve A x = b over QI; columns given as dicts row->QI.  Returns a
    solution list or None."""
    ncols = len(columns)
    dense = [[QI(0)] * (ncols + 1) for _ in range(nrows)]
    for j, col in enumerate(columns):
        for r, c in col.items():
            dense[r][j] = c
    for r, c in rhs.items():
        dense[r][ncols] = c
    pivots = []
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, nrows):
            if dense[r][col]:
                piv = r
                break
        if piv is None:
            continue
        dense[row], dense[piv] = dense[piv], dense[row]
        pv = dense[row][col]
        dense[row] = [v / pv for v in dense[row]]
        for r in range(nrows):
            if r != row and dense[r][col]:
                f = dense[r][col]
                dense[r] = [a - f * b for a, b in zip(dense[r], dense[row])]
        pivots.append((row, col))
        row += 1
        if row == nrows:
            break
    # consistency
    for r in range(nrows):
        if all(not dense[r][c] for c in range(ncols)) and dense[r][ncols]:
            return None
    sol = [QI(0)] * ncols
    for r, c in pivots:
        sol[c] = dense[r][ncols]
    return sol


# ---------------------------------------------------------------------------
# Numeric evaluation of local functionals
# ---------------------------------------------------------------------------

def _density_value(density: JetExpr, pt, fields, testfns):
    if density.dim == 1:
        pt_t = (pt,) if not isinstance(pt, (tuple, list)) else tuple(pt)
    else:
        pt_t = tuple(pt)
    assign = {}
    for s in density.expr.symbols():
        if s.ns == "x":
            assign[s] = float(pt_t[s.index[0]])
        elif s.ns == "jet":
            mu = _pad(s.index, density.dim)
            try:
                fld = fields[s.name]
            except KeyError:
                raise KeyError("no sample for field %r" % s.name)
            assign[s] = fld.jet(pt_t if density.dim > 1 else pt_t[0], mu)
        elif s.ns == "tf":
            mu = _pad(s.index, density.dim)
            try:
                tf = testfns[s.name]
            except KeyError:
                raise KeyError("no sample for test function %r" % s.name)
            assign[s] = tf.jet(pt_t if density.dim > 1 else pt_t[0], mu) \
                if hasattr(tf, "jet") else tf.deriv(pt_t[0], mu[0])
    v = density.expr.evalf(assign)
    return v


def evaluate_local(lagform: LagForm, weight, fields, testfns=None,
                   tol=1e-10, region=None):
    """Adaptive quadrature of (density at the sampled field) * weight.

    dim 1: weight is a region.Bump.  dim 2: weight is a pair of Bumps
    (product weight).  Returns a complex number (real part is the value for
    real inputs).
    """
    from scipy.integrate import quad

    testfns = testfns or {}
    if lagform.degree != lagform.dim:
        raise ValueError("evaluate_local needs a top-degree form")
    density = lagform.component(tuple(range(lagform.dim)))
    if density.is_zero():
        return 0.0
    if lagform.dim == 1:
        supp = weight.support.bounds()
        if supp is None:
            return 0.0
        lo, hi = float(supp[0][0]), float(supp[0][1])

        def integrand_re(t):
            return (_density_value(density, t, fields, testfns) * weight(t)).real

        def integrand_im(t):
            return (_density_value(density, t, fields, testfns) * weight(t)).imag

        re, ere = quad(integrand_re, lo, hi, epsabs=tol, epsrel=tol, limit=200)
        im, eim = quad(integrand_im, lo, hi, epsabs=tol, epsrel=tol, limit=200)
        if ere > 100 * max(tol, 1e-12) * max(1.0, abs(re)):
            raise QuadratureError("quadrature did not converge (err=%g)" % ere)
        return re + 1j * im if abs(im) > 0 else re
    if lagform.dim == 2:
        wt, wx = weight
        bt = wt.support.bounds()
        bx = wx.support.bounds()
        if bt is None or bx is None:
            return 0.0

        def inner(t):
            def f(x):
                return (_density_value(density, (t, x), fields, testfns)).real \
                    * wt(t) * wx(x)
            v, _ = quad(f, float(bx[0][0]), float(bx[0][1]),
                        epsabs=tol * 10, epsrel=tol * 10, limit=100)
            return v

        v, _ = quad(inner, float(bt[0][0]), float(bt[0][1]),
                    epsabs=tol * 10, epsrel=tol * 10, limit=100)
        return v
    raise NotImplementedError("evaluate_local supports dim 1 and 2")


# ---------------------------------------------------------------------------
# Textual serialization
# ---------------------------------------------------------------------------

def jetexpr_to_text(je: JetExpr) -> str:
    """Serialize to the textual syntax of `symexpr.to_text`."""
    from .symexpr import to_text
    return to_text(je.expr)


def parse_jetexpr(text, dim=1, grades=None, testnames=()) -> JetExpr:
    """Parse the textual syntax into a JetExpr.

    `grades` maps field names to grades (default 0, everything even);
    names in `testnames` become cutoff test-function symbols.
    """
    from .symexpr import parse_expr
    grades = grades or {}
    tests = set(testnames)

    def resolve(name, index):
        if name in tests:
            return testfn(name, index)
        return jet(name, index, grades.get(name, 0))

    return JetExpr(parse_expr(text, resolve), dim)

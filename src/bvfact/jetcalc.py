"""Jet-coordinate calculus on a flat n-dimensional base.

Symbols live in three namespaces:
  * "x"    base coordinates x_0 .. x_{n-1}
  * "jet"  field jet coordinates u^a_mu (field label a, derivative
           multi-index mu, carrying the grade of field a)
  * "tf"   test-function jets w^j_mu (grade 0; prolonged by the total
           derivative, and varied as fields only by the exactness test
           and the homotopy primitive)

A LagForm of degree p stores one JetExpr per strictly increasing p-tuple of
base indices; antisymmetry is absorbed into the sorted keys.

Numeric evaluation (`evaluate_local`) integrates a top form on the line
against one bump weight; field samples are those of `bvfact.numfields`.
"""

from __future__ import annotations

from .symexpr import Expr, Symbol, QI


def __getattr__(name):
    # the re-export of `QuadratureError` loads numpy only when it is read
    if name == "QuadratureError":
        from .quadrature import QuadratureError
        return QuadratureError
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def xsym(i: int) -> Symbol:
    return Symbol("x", "x", (i,), 0)


def _trim(mu):
    """The multi-index without trailing zeros: (1, 0) and (1,) name one
    jet coordinate."""
    mu = tuple(mu)
    while mu and mu[-1] == 0:
        mu = mu[:-1]
    return mu


def jet(name: str, mu=(), grade: int = 0) -> Symbol:
    return Symbol("jet", name, _trim(mu), grade)


def testfn(name: str, mu=()) -> Symbol:
    return Symbol("tf", name, _trim(mu), 0)


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

    __slots__ = ("expr", "dim", "_hash")

    def __init__(self, expr: Expr, dim: int):
        self.expr = expr
        self.dim = dim
        # _hash is set on the first hash

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

    def __add__(self, other):
        other = JetExpr.of(other, self.dim)
        return JetExpr(self.expr + other.expr, self.dim)

    __radd__ = __add__

    def __neg__(self):
        return JetExpr(-self.expr, self.dim)

    def __sub__(self, other):
        return JetExpr(self.expr - JetExpr.of(other, self.dim).expr, self.dim)

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
        try:
            return self._hash
        except AttributeError:
            h = self._hash = hash((self.dim, self.expr))
            return h

    def __reduce__(self):
        # the cached hash stays behind: symbols hash by identity, so a hash
        # holds in one process only
        return JetExpr, (self.expr, self.dim)

    def __bool__(self):
        return bool(self.expr)

    def is_zero(self):
        return self.expr.is_zero()

    def __repr__(self):
        return repr(self.expr)


# axis -> {symbol: (prolonged symbol s', its order, the factor (s', 1))};
# symbols are interned, so the memo only saves building and looking up the
# bumped index again
_PROLONGED = {}


def _prolong(table, s, i):
    """Enter s in `table`, the memo of axis i, and return its entry."""
    p = Symbol(s.ns, s.name, _bump_index(s.index, i), s.grade)
    entry = table[s] = (p, p._order, (p, 1))
    return entry


def total_derivative(f: JetExpr, i: int, *, minus_from=None) -> JetExpr:
    """Total derivative D_i f, or minus_from - D_i f when `minus_from` (a
    JetExpr, or 0) is given: the Horner step of the Euler operator
    (`_horner`).

    D_i is an even derivation, D_i f = sum_s (d^R f/ds) s', where s' is the
    prolonged symbol (1 for x_i, 0 for the other base coordinates).  No
    partial is built: one pass over f's monomials (`_derive_into`) writes
    each term of the sum into one term dict, empty or a copy of
    minus_from's terms, and cancelled terms leave it at once.
    """
    if not 0 <= i < f.dim:
        raise IndexError("base index %d out of range for dim %d" % (i, f.dim))
    acc = dict(minus_from.expr.terms) if minus_from else {}
    _derive_into(acc, f.expr.terms, i, minus_from is not None)
    return JetExpr(Expr(acc), f.dim)


def _derive_into(acc, terms, i, negate):
    """Add D_i of the term dict `terms` into the term dict `acc` in place, or
    subtract it when `negate`.

    Each factor s^e of a monomial gives one term: s^e is lowered and s' goes
    into its sorted slot, which comes after s's position (s' sorts after s,
    as bumping an index entry gives a larger tuple).  An odd s moves to the
    slot past the factors between, so the sign flips once per odd factor
    strictly between s's position and the slot.  If s' is a factor
    already, it is at the slot: an odd s' (s' has s's grade) kills the
    term, and an even one's exponent rises.  x_i is only lowered, and
    e > 1 multiplies by e.  A coefficient is negated at most once, however
    many terms it gives.
    """
    table = _PROLONGED.setdefault(i, {})
    for mono, c in terms.items():
        neg = None  # -c, made on first use
        n = len(mono)
        for k in range(n):
            s, e = mono[k]
            flip = negate
            if s.ns == "x":
                if s.index[0] != i:
                    continue
                m = mono[:k] + mono[k + 1:] if e == 1 else \
                    mono[:k] + ((s, e - 1),) + mono[k + 1:]
            else:
                p, order, factor = table.get(s) or _prolong(table, s, i)
                j = k + 1
                while j < n and mono[j][0]._order < order:
                    if s.odd and mono[j][0].odd:
                        flip = not flip
                    j += 1
                head = mono[:k] if e == 1 else mono[:k] + ((s, e - 1),)
                if j < n and mono[j][0] is p:
                    if s.odd:
                        continue  # odd square
                    m = head + mono[k + 1:j] + \
                        ((p, mono[j][1] + 1),) + mono[j + 1:]
                else:
                    m = head + mono[k + 1:j] + (factor,) + mono[j:]
            if flip:
                if neg is None:
                    neg = -c
                v = neg
            else:
                v = c
            if e > 1:
                v = v * e
            old = acc.get(m)
            if old is not None:
                v = old + v
                if not v:
                    del acc[m]
                    continue
            acc[m] = v


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

    def __eq__(self, other):
        if not isinstance(other, LagForm):
            return NotImplemented
        return (self.degree, self.dim) == (other.degree, other.dim) and \
            self.components == other.components

    def is_zero(self):
        return not self.components

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


def euler_lagrange(L: LagForm):
    """Left Euler-Lagrange operator of a top-degree form, one JetExpr per
    field label: E_a = sum_mu (-1)^{|mu|} D_mu (dL/du^a_mu)."""
    if L.degree != L.dim:
        raise ValueError("euler_lagrange needs a top-degree form")
    return euler_lagrange_density(L.component(tuple(range(L.dim))))


def _horner(parts, n, label, eta=None, lead=()):
    """sum_K (-D)^K P_K over the partials `parts` (multi-index K padded to
    n -> JetExpr P_K, every K beginning with `lead`).

    On axis i = len(lead) it runs R_m = Q_m - D_i R_{m+1} from the highest
    m down and returns R_0, where Q_m is this sum over the K beginning with
    (lead, m), one axis further in (0 where there is none).  Each step is
    one call total_derivative(R_{m+1}, i, minus_from=Q_m): a single pass
    over R_{m+1}'s monomials writes -D_i R_{m+1} into a copy of Q_m's terms,
    with no partial of R_{m+1} built.  So axis 0 is outermost, and in
    dim 1 a field costs max K total derivatives, not sum K.  With `eta`,
    each step also adds u_(lead, m) R_{m+1} to eta[i], u on the left: the
    homotopy operator, with u the symbol of `label` = (namespace, name,
    grade).
    """
    i = len(lead)
    if i == n:
        return parts[lead]
    r = None
    for m in range(max(K[i] for K in parts), -1, -1):
        sub = {K: P for K, P in parts.items() if K[i] == m}
        q = _horner(sub, n, label, eta, lead + (m,)) if sub else None
        if r is not None:
            if eta is not None:
                u = Symbol(label[0], label[1], _trim(lead + (m,)), label[2])
                eta[i] = eta[i] + Expr.sym(u) * r.expr
            q = total_derivative(r, i, minus_from=0 if q is None else q)
        r = q
    return r


def _euler_operator(expr: Expr, n, vary_tests=False, right=False, eta=None):
    """sum_K (-D)^K dL/du^a_K per label a = (namespace, name, grade) of the
    jet symbols in `expr`, and of its test-function symbols too when
    `vary_tests`, from left (or right) partials; see `_horner`."""
    parts = {}
    for s in expr.symbols():
        if s.ns == "jet" or vary_tests and s.ns == "tf":
            partial = expr.dright(s) if right else expr.dleft(s)
            parts.setdefault((s.ns, s.name, s.grade), {})[_pad(s.index, n)] = \
                JetExpr(partial, n)
    return {label: _horner(p, n, label, eta) for label, p in parts.items()}


def euler_lagrange_density(density: JetExpr, right=False):
    """EL derivatives of a density with respect to its fields; returns dict
    (name, grade) -> JetExpr over the field labels the density holds."""
    out = _euler_operator(density.expr, density.dim, right=right)
    return {(name, grade): v for (_, name, grade), v in sorted(out.items())}


def is_total_divergence(density: JetExpr) -> bool:
    """Exact test: a polynomial density is a total divergence iff every
    Euler-Lagrange derivative, with respect to its fields and its
    test-function symbols alike, vanishes.  A density of the base
    coordinates alone is one (it is D_0 of its x_0-integral)."""
    els = _euler_operator(density.expr, density.dim, vary_tests=True)
    return all(v.is_zero() for v in els.values())


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


def homotopy_primitive(omega: LagForm, check: bool = True):
    """Primitive of a closed Lagrangian p-form with polynomial coefficients.

    Returns (eta, obstruction) with d(eta) = omega - obstruction.

    p = 0: a closed 0-form is a constant c; eta = 0 and the obstruction is c.
    Otherwise the obstruction is 0.

    p = n: omega = L dx_0^...^dx_{n-1}.  Test-function symbols are varied
    as fields are (as in is_total_divergence), so L is exact iff every
    Euler-Lagrange derivative of L vanishes; otherwise ExactnessDefect
    carries the nonzero ones, keyed by (namespace, name, grade): a test
    function w reads ("tf", "w", 0).
    The primitive is the closed-form homotopy operator of the variational
    bicomplex (Olver, Applications of Lie Groups to Differential Equations,
    sec. 5.4), evaluated without a lambda-integral.  Scale the part of field
    degree d >= 1 by 1/d and let P_K be the left partials of the result; by
    Euler's identity the field-dependent part of L is sum_K u_K P_K.  The Euler operator's
    recursion R_m = P_m - D R_{m+1} (`_horner`) gives, in dim 1,
    u_m P_m = u_m R_m - u_{m+1} R_{m+1} + D(u_m R_{m+1}), so the sum is
    u R_0 + D(sum_m u_m R_{m+1}), and R_0 = sum_d E(L_d) / d = 0.  Hence
    eta = sum_m u_m R_{m+1}, summed over the fields.  In dim n the recursion
    is nested with axis 0 outermost, and on axis i under the leading
    multi-index `lead` each step adds u_(lead, m) R_{m+1} to eta^i.  The
    field-independent part, a polynomial in x, is integrated in x_0.
    Component eta^i sits under the key range(n) minus i with sign (-1)^i, so
    that horizontal_diff(eta) = sum_i D_i eta^i dx_0^...^dx_{n-1}.

    0 < p < n: NotClosedError if d(omega) != 0 (when `check`), else
    NotImplementedError.
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
    if p < n:
        if check:
            d = horizontal_diff(omega)
            if not d.is_zero():
                raise NotClosedError(d)
        raise NotImplementedError(
            "homotopy primitives of %d-forms in dimension %d" % (p, n))
    density = omega.component(tuple(range(n)))
    # each monomial of field degree d >= 1 scaled by 1/d; degree 0 kept apart
    scaled, base = {}, {}
    for mono, c in density.expr.terms.items():
        d = sum(e for s, e in mono if s.ns != "x")
        if d:
            scaled[mono] = c / d
        else:
            base[mono] = c
    scaled = Expr(scaled)
    x0 = xsym(0)
    eta = [Expr.zero()] * n
    for mono, c in base.items():
        a = dict(mono).get(x0, 0)
        eta[0] = eta[0] + Expr({mono: c / (a + 1)}) * Expr.sym(x0)
    # R_0 = sum_d E(L_d) / d is 0 iff E(L) is, as E lowers the degree by 1
    r0 = _euler_operator(scaled, n, vary_tests=True, eta=eta)
    if not all(r.is_zero() for r in r0.values()):
        els = _euler_operator(density.expr, n, vary_tests=True)
        raise ExactnessDefect({k: v for k, v in sorted(els.items())
                               if not v.is_zero()})
    comps = {}
    for i, e in enumerate(eta):
        comps[tuple(j for j in range(n) if j != i)] = -e if i % 2 else e
    return LagForm(n - 1, n, comps), QI(0)

# ---------------------------------------------------------------------------
# Numeric evaluation of local functionals
# ---------------------------------------------------------------------------

def _density_value(density: JetExpr, t, fields):
    """The density on the line at `t`, a point or an array of points; a
    test-function symbol raises `KeyError`, as it has no sample."""
    assign = {}
    for s in density.expr.symbols():
        if s.ns == "x":
            assign[s] = t
        elif s.ns == "jet":
            try:
                fld = fields[s.name]
            except KeyError:
                raise KeyError("no sample for field %r" % s.name)
            assign[s] = fld.jet(t, s.index)
        else:
            raise KeyError("no sample for test function %r" % s.name)
    return density.expr.evalf(assign)


def evaluate_local(lagform: LagForm, weight, fields, tol=1e-10):
    """Integral of (density at the sampled field) * weight, one
    `bvfact.quadrature.integrate` call over the hull of the weight's support.

    The form is a top form on the line and the weight a region.Bump.  The
    field samples are evaluated on the node arrays.  Returns a complex
    number, or a float when the imaginary part is 0; raises `QuadratureError`
    when the rule misses `tol`.
    """
    if lagform.degree != lagform.dim:
        raise ValueError("evaluate_local needs a top-degree form")
    if lagform.dim != 1:
        raise NotImplementedError("evaluate_local supports dim 1 only")
    density = lagform.component((0,))
    hull = weight.support.bounds()
    if density.is_zero() or hull is None:
        return 0.0
    # numpy loads with the quadrature, and only the numeric path needs it
    from .quadrature import integrate
    val = integrate(lambda t: _density_value(density, t, fields) * weight(t),
                    hull, tol=tol)
    return val.real if isinstance(val, complex) and not val.imag else val


# ---------------------------------------------------------------------------
# Text syntax
# ---------------------------------------------------------------------------

def jetexpr_to_text(je: JetExpr) -> str:
    """Write `je` in the textual syntax of `symexpr.to_text`."""
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

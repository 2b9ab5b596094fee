"""Renormalization of time-ordered products at desk scale: scaling degrees,
distributional extension across the origin, ambiguity bases, the renormalized
two-fold time-ordered product for the oscillator model, and the comparison of
two renormalization schemes as a renormalization-group element.

The extension scheme is Taylor subtraction: for a kernel t of scaling degree
sd on R, the extension pairs t with

    f(x) - chi(x) * sum_{a <= sd-1} x^a/a! (d^a f)(0)

where chi is a fixed cutoff bump equal to 1 near 0, and then adds the scheme
weights as delta counterterms:

    <t-bar, f> = <t, f - chi*Taylor> + sum_a w_a * (-1)^a (d^a f)(0).

Scaling any Taylor term instead of adding counterterms would leave a
non-integrable remainder, so the freedom lives entirely in the w_a: the
difference of two weight choices is exactly a combination of delta
derivatives at 0 -- the extension ambiguity.  When sd < 1 the extension is
unique and the weights are ignored.

Every pairing is a `bvfact.quadrature.integrate` call per piece of the
support, cut at 0 and at the edges of supp f, so a missed tolerance raises
`QuadratureError`.  On the pieces that touch 0 a kernel of degree k/q in
lowest terms is integrated in s = |x|^(1/q), where x^(k/q) is smooth.

Only the two-fold product is renormalized (`t2_build`).  The inductive
contract for T_n, n >= 3: causal factorization fixes T_n away from the small
diagonal in terms of the T_k, k < n, on the cover of the complement by
ordered charts; the resulting kernels extend across the small diagonal by
the same W-subtraction, with ambiguity parametrized by delta derivatives of
order bounded by the scaling degree minus the codimension.
"""

import math
import warnings
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .quadrature import integrate
from .region import Bump, mollifier, not_later, window
from .freeq import (OscillatorModel, PropagatorKernel, DiagramPoly, tprod,
                    field_obs, eval_poly, max_abs, _fuse, _hbar_weight,
                    _mixed_states, _overlap_integral)


class RegressionError(Exception):
    """Scaled-pairing regression did not settle on a slope."""


# ---------------------------------------------------------------------------
# Distributional kernels
# ---------------------------------------------------------------------------

class DistKernel:
    """Closed-form kernel on the line minus the origin, in the relative time
    coordinate.

    `func` maps a node array of the quadrature to the kernel's values on
    it, in one call (a float to one value).  `degree` is the declared
    scaling degree (a Fraction) or None for "unknown, measure it"; its
    extension across 0 subtracts Taylor terms to order floor(degree - 1),
    1 being the dimension of the line.  Pairing with a test function
    supported away from 0 is a plain quadrature.
    """

    def __init__(self, func, degree=None, name=None):
        self.func = func
        self.degree = None if degree is None else Fraction(degree)
        self.name = name or "kernel"

    def __call__(self, x):
        return self.func(x)

    def pair(self, f, tol=1e-10):
        """<t, f>; the integrand must be integrable on supp f."""
        return _pair_subtracted(self, f, order=None, weights=None,
                                chi=None, tol=tol)

    def __repr__(self):
        return "DistKernel(%s, degree=%s)" % (self.name, self.degree)


def theta_power(p):
    """theta(x)/x^p on R; scaling degree p."""
    p = Fraction(p)
    pf = float(p)
    # x^-p is formed only where x > 0, so 0^-p never warns
    return DistKernel(lambda x: np.power(x, -pf, out=np.zeros(np.shape(x)),
                                         where=np.greater(x, 0))[()],
                      degree=p, name="theta/x^%s" % p)


def smooth_kernel(func, name="smooth"):
    """A kernel smooth across the origin: scaling degree 0 (if func(0) != 0).
    `func` takes one float; `np.frompyfunc` wraps it once, here."""
    values = np.frompyfunc(func, 1, 1)  # its values are Python numbers
    return DistKernel(lambda x: np.array(np.asarray(values(x)).tolist())[()],
                      degree=0, name=name)


def feynman_power(model: OscillatorModel, m):
    """(G^F)^m(t - s) in the relative coordinate; bounded, so degree 0."""
    gf = PropagatorKernel("feynman", model.omega)
    # np.power: `** 2` rounds a 0-d array and a longer one differently
    return DistKernel(lambda x: np.power(gf.value(np.asarray(x, float)), m),
                      degree=0, name="feynman^%d" % m)


# ---------------------------------------------------------------------------
# Scaling degree
# ---------------------------------------------------------------------------

def scaling_degree(t, exact=True, tol=1e-9):
    """Scaling degree of a kernel: t(lam x) ~ lam^(-sd) as lam -> 0.

    Declared degrees of library kernels are returned exactly; otherwise the
    degree is measured by pairing with shrinking rescaled test functions
    supported away from 0 and regressing log|value| against log(scale),
    snapped to the nearest rational with denominator <= 4.  The probe is
    the mollifier on (1/2, 3/2).
    """
    if exact and getattr(t, "degree", None) is not None:
        return t.degree
    probe = mollifier(1, Fraction(1, 2))
    lams = [2.0 ** -j for j in range(2, 10)]
    ys = []
    for lam in lams:
        if not callable(t):
            # extension-like object: pair with a shrunk copy of the probe
            v = t.pair(mollifier(Fraction(lam), Fraction(lam) / 2),
                       tol=tol) / lam
        else:
            v = integrate(lambda x: t(x) * probe(x / lam) / lam,
                          (0.5 * lam, 1.5 * lam), tol=tol)
        if abs(v) < 1e-300:
            raise RegressionError("pairing vanished at scale %g" % lam)
        ys.append(math.log(abs(v)))
    # successive slopes; use the finest pair, demanding convergence
    slopes = [(ys[j + 1] - ys[j]) / -math.log(2) for j in range(len(ys) - 1)]
    if abs(slopes[-1] - slopes[-2]) > 0.15:
        raise RegressionError("scaled pairings not settling: slopes %.3g, "
                              "%.3g" % (slopes[-2], slopes[-1]))
    return Fraction(-slopes[-1]).limit_denominator(4)


def ambiguity_basis(t: DistKernel):
    """Labels {d^a delta : a <= sd - 1}; empty when sd < 1 (unique)."""
    sd = scaling_degree(t)
    return [(a,) for a in range(math.floor(sd - 1) + 1)]


# ---------------------------------------------------------------------------
# Extension across the origin
# ---------------------------------------------------------------------------

def standard_cutoff():
    """The fixed chi: 1 on [-1/2, 1/2], supported in (-1, 1)."""
    return window(-1, Fraction(-1, 2), Fraction(1, 2), 1)


class ExtendedDist:
    """W-subtraction extension of a DistKernel across the origin, with the
    cutoff chi of `standard_cutoff`."""

    def __init__(self, kernel: DistKernel, weights=None):
        sd = scaling_degree(kernel)
        self.kernel = kernel
        self.degree = sd
        self.order = math.floor(sd - 1)  # 1: the dimension of the line
        if self.order < 0:
            if weights:
                warnings.warn("scaling degree below the dimension: the "
                              "extension is unique, weights ignored")
            self.weights = {}
        else:
            self.weights = dict(weights or {})
        self.chi = standard_cutoff()

    def pair(self, f, tol=1e-9):
        """<t-bar, f> with the Taylor-subtracted integrand."""
        order = self.order if self.order >= 0 else None
        return _pair_subtracted(self.kernel, f, order, self.weights,
                                self.chi, tol)

    def __repr__(self):
        return "ExtendedDist(%r, order=%d)" % (self.kernel, self.order)


def extend(t: DistKernel, weights=None) -> ExtendedDist:
    return ExtendedDist(t, weights=weights)


def _delta_terms(weights, derivs):
    """sum_a w_a (-1)^|a| (d^a f)(0) for the counterterm weights."""
    out = 0.0
    for alpha, w in (weights or {}).items():
        if alpha in derivs:
            out += float(w) * (-1) ** sum(alpha) * derivs[alpha]
    return out


def _pair_subtracted(kernel, f, order, weights, chi, tol):
    fb = f.support.bounds()
    if fb is None:
        return 0.0
    lo, hi = float(fb[0]), float(fb[1])
    cuts = {lo, hi, 0.0}
    f0 = []
    if order is not None:
        # the subtracted integrand also lives on supp chi, inside [-1, 1]
        f0 = [f.deriv(0.0, a) for a in range(order + 1)]
        lo, hi = min(lo, -1.0), max(hi, 1.0)
        cuts |= {lo, hi}
    cuts = sorted(c for c in cuts if lo <= c <= hi)

    def integrand(x):
        v = f(x)
        if f0:
            v = v - chi(x) * sum(x ** a / math.factorial(a) * d
                                 for a, d in enumerate(f0))
        return kernel(x) * v

    # |x|^(k/q) is smooth in s = |x|^(1/q) on the pieces that touch 0
    q = kernel.degree.denominator if kernel.degree is not None else 1
    base = 0.0
    for a, b in zip(cuts, cuts[1:]):
        if q > 1 and 0.0 in (a, b):
            sign = 1.0 if b > 0 else -1.0
            base += integrate(
                lambda s: integrand(sign * s ** q) * q * s ** (q - 1),
                (0.0, abs(a + b) ** (1.0 / q)), tol=tol)
        else:
            base += integrate(integrand, (a, b), tol=tol)
    if isinstance(base, complex) and not base.imag:
        base = base.real
    if order is not None and weights:
        base += _delta_terms(weights, {(a,): d for a, d in enumerate(f0)})
    return base


# ---------------------------------------------------------------------------
# Renormalized two-fold time-ordered product
# ---------------------------------------------------------------------------

class TimeOrder2:
    """A renormalization scheme for the two-fold time-ordered product.

    Away from the diagonal the kernels are fixed by the star-ordering (one
    closed form covers both branches since G^F agrees with the ordered
    two-point function off the diagonal).  At the diagonal the m-edge kernel
    (G^F)^m is extended; in this 1-d model its scaling degree is 0 < 1, so
    the extension is unique and equals the naive kernel.  `shifts` injects a
    deliberate non-minimal choice: shifts[m] = c adds c*delta(t-s) to the
    m-edge kernel, producing contact terms -- the freedom the
    renormalization-group comparison quantifies.

    `apply` is bilinear: each unordered pair of diagrams is expanded once
    per scheme, with unit coefficients, and kept on the instance; the
    reversed pair reads the same terms times the graded-symmetry sign
    (-1)^(|d1| |d2|), |d| the diagram's antifield-leg count mod 2.  `shifts`
    is read-only so that the kept expansions stay valid.
    """

    def __init__(self, model=None, shifts=None, orders=(3, 2)):
        self.model = model if model is not None else OscillatorModel(1, orders)
        self.orders = tuple(orders)
        self._shifts = dict(shifts or {})
        for m in self._shifts:
            if not (1 <= m <= self.orders[0]):
                raise ValueError("shift order %r out of hbar range" % (m,))
        self._pairs = {}  # (d1 key, d2 key, orders) -> (terms, sign)

    @property
    def shifts(self):
        """The diagonal choice {m: c}, fixed at construction."""
        return MappingProxyType(self._shifts)

    def apply(self, F: DiagramPoly, G: DiagramPoly) -> DiagramPoly:
        """T(F, G): for each diagram pair, c1 c2 times the pair's
        expansion."""
        out = DiagramPoly(orders=F.orders)
        for d1, c1 in F.terms.values():
            for d2, c2 in G.terms.values():
                terms, sign = self._pair(d1, d2, F.orders)
                c = c1 * c2 if sign > 0 else -(c1 * c2)
                for d, e in terms:
                    out._add(d, e * c)
        return out

    def _pair(self, d1, d2, orders):
        """The terms of tprod plus the contact terms on the unit-coefficient
        pair (d1, d2), and the sign they are read with: the pair is expanded
        on first use, and (d2, d1) then reads its terms."""
        key = (d1.key(), d2.key(), orders)
        hit = self._pairs.get(key)
        if hit is None:
            F = DiagramPoly([(d1, 1)], orders)
            G = DiagramPoly([(d2, 1)], orders)
            P = tprod(F, G)
            for m, c in self._shifts.items():
                if c:
                    P = P + _contact_terms(F, G, m, c)
            terms = list(P.terms.values())
            odd = all(sum(v.au for v in d.verts) % 2 for d in (d1, d2))
            self._pairs[key[1], key[0], orders] = (terms, -1 if odd else 1)
            hit = self._pairs[key] = (terms, 1)
        return hit

    def __repr__(self):
        return "TimeOrder2(omega=%g, shifts=%r)" % (self.model.omega,
                                                    self._shifts)


def _contact_terms(F: DiagramPoly, G: DiagramPoly, m, c) -> DiagramPoly:
    """c * delta(t_i - s_j) in place of the m-edge bundle between one F-vertex
    and one G-vertex: mirror of the m-fold contraction combinatorics, with
    the kernel replaced by a point merge."""
    out = DiagramPoly(orders=F.orders)
    w = _hbar_weight(m, F.orders) * c
    for n1, verts0, edges0, _, c12 in _mixed_states(F, G):
        for i in range(n1):
            for j in range(n1, len(verts0)):
                vi, vj = verts0[i], verts0[j]
                count = math.perm(vi.u, m) * math.perm(vj.u, m)
                if not count:
                    continue
                verts = list(verts0)
                verts[i] = vi.replace(u=vi.u - m)
                verts[j] = vj.replace(u=vj.u - m)
                out._add(_fuse(verts, edges0, ((i, j),)), c12 * w * count)
    return out


def t2_build(F: DiagramPoly, G: DiagramPoly, choice=None,
             model=None) -> DiagramPoly:
    """Renormalized T_2(F, G) under the scheme with the given diagonal
    choice; symmetric in F and G by construction."""
    scheme = TimeOrder2(model=model, shifts=choice, orders=F.orders)
    return scheme.apply(F, G)


# ---------------------------------------------------------------------------
# Renormalization-group comparison
# ---------------------------------------------------------------------------

class RGElement:
    """Formal diffeomorphism to second order: Z(F) = F + (1/2) Z2(F, F),
    with Z2 bilinear, symmetric and diagonal-supported; Z(0) = 0."""

    def __init__(self, z2, shifts=None):
        self.z2 = z2            # bilinear callable on DiagramPoly pairs
        self.shifts = dict(shifts or {})

    def apply(self, F: DiagramPoly) -> DiagramPoly:
        return F + self.z2(F, F).scale(Fraction(1, 2))

    def compose(self, other):
        """(Z o Z')(F) to second order: z2 components add."""
        def z2(F, G):
            return self.z2(F, G) + other.z2(F, G)
        shifts = dict(self.shifts)
        for m, c in other.shifts.items():
            shifts[m] = shifts.get(m, 0) + c
        return RGElement(z2, shifts)

    @classmethod
    def identity(cls):
        return cls(lambda F, G: DiagramPoly(orders=F.orders), {})


def main_theorem_check(T: TimeOrder2, T2: TimeOrder2, battery,
                       model=None, fields=None, tol=1e-8):
    """Compare two schemes: Z2 = T2 - T, packaged as an RGElement, with
    checks that Z2 is diagonal-supported, that Z(0) = 0, that composing the
    first scheme with Z reproduces the second, and the Hammerstein identity
    on ordered disjoint triples, read once per ordered pair.

    `battery` is a list of DiagramPoly observables F_a.  Z2 is bilinear, so
    the checks read one table Z2(F_a, F_b) over all n^2 ordered pairs, built
    with 2 n^2 `TimeOrder2.apply` calls (2 more go to Z(0)); the diagonal
    T(F_a, F_a), T2(F_a, F_a) are kept for the scheme transport.  Pairs with
    disjoint supports feed the diagonal-support check, and ordered ones the
    Hammerstein check.  The table is eager, so items whose series orders
    differ raise `ValueError` even where no check reads their pair.  A
    (Pu)-(Pu) contraction raises `NotImplementedError`: it needs (Pu) legs
    in both items, so the diagonal pair of either meets it too.
    `fields` is a list of field samples (dicts with entry "u") for numeric
    evaluation, by default one quadratic u.
    """
    model = model or T.model
    if fields is None:
        from .numfields import Poly1D
        fields = [{"u": Poly1D([0.3, -0.2, 0.1])}]

    def z2(F, G):
        return T2.apply(F, G) - T.apply(F, G)

    shifts = {m: T2.shifts.get(m, 0) - T.shifts.get(m, 0)
              for m in set(T.shifts) | set(T2.shifts)}
    Z = RGElement(z2, shifts)

    report = {"tol": tol}

    # Z(0) = 0
    zero = DiagramPoly(orders=battery[0].orders if battery else (3, 2))
    report["z_of_zero_is_zero"] = Z.apply(zero).is_zero()

    n = len(battery)
    table, transport = {}, True
    for a, F in enumerate(battery):
        for b, G in enumerate(battery):
            t, t2 = T.apply(F, G), T2.apply(F, G)
            table[a, b] = t2 - t
            if a == b:
                # composition: T(F,F) + Z2(F,F) = T2(F,F), symbolically
                transport = transport and (t + table[a, a]) == t2
    report["scheme_transport"] = transport

    supports = [F.support() for F in battery]

    # diagonal support: Z2 on disjointly supported pairs vanishes
    disjoint = [(a, b) for a in range(n) for b in range(a + 1, n)
                if supports[a].disjoint_from(supports[b])]
    dev = max((max_abs(table[ab], model, fields, tol) for ab in disjoint),
              default=0.0)
    report["diagonal_support_pairs"] = len(disjoint)
    report["diagonal_support_dev"] = dev

    # Hammerstein on ordered disjoint triples (F1, F, F2) = (F_a, F_b, F_c):
    # with Z(F) = F + Z2(F, F)/2, the residual
    # Z(F1+F+F2) - Z(F1+F) + Z(F) - Z(F2+F) is (Z2(F1, F2) + Z2(F2, F1))/2
    # whatever F is, so it is read from the table once for each pair (a, c)
    # that has a third item b
    pairs = [(a, c) for a in range(n) for c in range(n)
             if a != c and n >= 3 and supports[a].disjoint_from(supports[c])
             and not_later(supports[a], supports[c])]
    hdev = max((max_abs((table[a, c] + table[c, a]).scale(Fraction(1, 2)),
                        model, fields, tol)
                for a, c in pairs), default=0.0)
    report["hammerstein_pairs"] = len(pairs)
    report["hammerstein_dev"] = hdev

    report["ok"] = (report["z_of_zero_is_zero"] and
                    report["scheme_transport"] and
                    dev <= tol and hdev <= tol)
    return Z, report


def recover_delta_coefficient(T: TimeOrder2, T2: TimeOrder2, f: Bump,
                              g: Bump, model=None, tol=1e-8):
    """Measure the c in Z2 = c*delta at one Feynman edge, from the numeric
    value of Z2(u(f), u(g)) = c * hbar * int f g."""
    from .numfields import Poly1D
    model = model or T.model
    F = field_obs(f)
    G = field_obs(g)
    diff = T2.apply(F, G) - T.apply(F, G)
    vals = eval_poly(diff, model, {"u": Poly1D([1.0])}, tol=tol * 1e-2)
    num = vals.get((1, 0), 0.0)
    den = _overlap_integral(f, g, tol * 1e-2)
    if den == 0:
        raise ValueError("f and g must overlap")
    return num / den

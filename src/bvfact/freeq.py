"""Free quantum theory of the 1-d harmonic oscillator, P = -(d^2/dt^2 + w^2):
closed-form propagator kernels, the Peierls bracket, the star product, the
time-ordering map and the deformed (time-ordered) product, causal
factorization, and the free quantum BV differential s0.

Kernel conventions (see the convention notes in the README):
  Delta^R(tau) = -theta(tau) sin(w tau)/w      so that P Delta^R = delta
  Delta       = Delta^R - Delta^A = -sin(w tau)/w
  H           = cos(w tau)/(2w)                (vacuum Hadamard choice)
  W           = (i/2) Delta + H = e^{-i w tau}/(2w)
  G^F         = e^{-i w |tau|}/(2w)            (= W for tau > 0; P G^F = i delta)

hbar placement: each W-contraction in the star product carries one power of
hbar, and the time-ordering map is exp((hbar/2) d_{G^F}); with these choices
the star commutator equals i hbar times the Peierls bracket and causal
factorization reduces to G^F = W on {t > s}.

Contraction rules: star, tprod, tmap and peierls share one step, `_contract`,
which contracts one leg at vertex i with one leg at vertex j (i == j
allowed), by leg species:
  u-u        adds a kernel edge, in u_i u_j ways (C(u, 2) when i == j);
  (Pu)-u     under G^F is P G^F = i delta: the two vertices fuse, factor i.
             At one vertex, or between vertices already fused, the pair is
             pointwise: it contributes i and the vertex just loses the two
             legs (no delta(0) is formed);
  (Pu)-u     under W and Delta gives nothing: both are bi-solutions,
             P W = P Delta = 0, so (Pu) legs are inert;
  (Pu)-(Pu)  under G^F raises NotImplementedError: i P delta has no vertex
             form.
tprod contracts only F-legs with G-legs and fuses only when it emits a
term, so it equals T(T^-1 F . T^-1 G).
"""

import functools
import math
from fractions import Fraction
from itertools import permutations, product as iproduct

import numpy as np

from .symexpr import I, FormalSeries, koszul_sign
from .region import Bump, not_later, union_of
from .quadrature import Grid, converge, integrate


# ---------------------------------------------------------------------------
# Propagator kernels
# ---------------------------------------------------------------------------

KERNEL_KINDS = ("retarded", "advanced", "pauli-jordan", "wightman",
                "symmetric", "feynman")


class OscillatorModel:
    """1-d model with operator P = -(d^2/dt^2 + omega^2); omega >= 0."""

    def __init__(self, omega=1, orders=(3, 2)):
        if omega < 0:
            raise ValueError("omega must be nonnegative")
        self.omega = float(omega)
        self.orders = tuple(orders)

    def p_apply(self, field, t):
        """(P u)(t) for a sampled field."""
        return -(field.jet(t, (2,)) + self.omega ** 2 * field.jet(t, (0,)))

    def __repr__(self):
        return "OscillatorModel(omega=%g)" % self.omega


class PropagatorKernel:
    """Closed-form two-point kernel K(t, s) = k(t - s) for the model, held as
    its table of separable terms on either side of tau = 0."""

    def __init__(self, kind, omega):
        if kind not in KERNEL_KINDS:
            raise ValueError("unknown kernel kind %r" % kind)
        self.kind = kind
        self.omega = float(omega)

    def terms(self, side):
        """k where the sign of tau is `side`, as separable terms: a list of
        (c, fx, fy) with k(t_x - t_y) = sum c * fx(t_x) * fy(t_y) there, fx
        and fy names of `_factor`."""
        w = self.omega
        if w == 0 and self.kind in ("symmetric", "wightman", "feynman"):
            raise ValueError("no %s vacuum kernel at omega = 0" % self.kind)
        return [(c / w if w else c, fx, fy)
                for c, fx, fy in _SEPARABLE[self.kind][side < 0]]

    def value(self, tau):
        """k(tau) at a float, or at every point of an array of tau: the
        terms of the side of tau at t_x = tau, t_y = 0."""
        t = np.asarray(tau, dtype=float)
        w = self.omega
        sides = [sum(c * _factor(fx, w, t) * _factor(fy, w, 0.0)
                     for c, fx, fy in self.terms(s)) for s in (1, -1)]
        out = np.where(t > 0, *sides)
        return out if isinstance(tau, np.ndarray) else out.item()

    def __repr__(self):
        return "PropagatorKernel(%r, omega=%g)" % (self.kind, self.omega)


# each kind's kernel on tau > 0 and on tau < 0 as separable terms (c, fx, fy),
# c/w fx(t_x) fy(t_y), by the addition theorems and e^{-i w tau} = e^{-i w
# t_x} e^{i w t_y}; at w = 0 (Pauli-Jordan family only) sin(w t)/w is t
_PJ = [(-1.0, "sin", "cos"), (1.0, "cos", "sin")]
_SEPARABLE = {
    "symmetric": ([(0.5, "cos", "cos"), (0.5, "sin", "sin")],) * 2,
    "wightman": ([(0.5, "e-", "e+")],) * 2,
    "feynman": ([(0.5, "e-", "e+")], [(0.5, "e+", "e-")]),
    "pauli-jordan": (_PJ, _PJ),
    "retarded": (_PJ, []),
    "advanced": ([], [(-c, fx, fy) for c, fx, fy in _PJ]),
}


def _factor(name, w, t):
    """A factor of `_SEPARABLE` at the points t; sin is t at w = 0."""
    if name == "cos":
        return np.cos(w * t)
    if name == "sin":
        return np.sin(w * t) if w else t
    return np.exp((1j if name == "e+" else -1j) * w * t)


def green(model: OscillatorModel, kind: str) -> PropagatorKernel:
    return PropagatorKernel(kind, model.omega)


def pair_kernel(kernel, f: Bump, g: Bump, tol=1e-10):
    """<f (x) g, K> = int f(t) K(t,s) g(s) dt ds, a two-vertex `_ordered`
    sum; pass `f.d(a)` to pair a derivative."""
    return _ordered([(f, f.support.bounds()), (g, g.support.bounds())],
                    [(0, 1, kernel.kind)], kernel.omega, tol)


def green_defect(model, f: Bump, g: Bump, tol=1e-9):
    """| <P^T f (x) g, Delta^R> - int f g |, the weak Green-function defect:
    an `_ordered` pairing (no term where t < s) and an `integrate` call."""
    def pf(t):  # P is formally self-adjoint: pair Delta^R with (P f)(t) g(s)
        v = f.values(t, 2)
        return -(2 * v[2] + model.omega ** 2 * v[0])
    val = _ordered([(pf, f.support.bounds()), (g, g.support.bounds())],
                   [(0, 1, "retarded")], model.omega, tol)
    return abs(val - _overlap_integral(f, g, tol))


def _overlap_integral(f: Bump, g: Bump, tol):
    """int f g over supp f & supp g, one `integrate` call; 0.0 when the
    supports do not meet."""
    b = f.support.intersection(g.support).bounds()
    return 0.0 if b is None else integrate(lambda t: f(t) * g(t), b, tol)


def _ordered(factors, edges, omega, tol):
    """int prod_i f_i(t_i) prod_(x, y, kind) k(t_x - t_y) over all t, for
    `factors` (f_i, hull_i), f_i a function of a node array that vanishes
    off its hull (lo_i, hi_i), or None, and kernel `edges` (x, y, kind).

    A sum over the orderings t_s1 < ... < t_sk, in each of which every
    kernel is one-sided, a sum of separable terms (`PropagatorKernel.terms`).
    Each choice of one term per edge is k nested cumulative integrals on one
    `Grid` that breaks at every support end, F_1 = cum(g_s1), F_j = cum(g_sj
    F_{j-1}), value int g_sk F_{k-1}, with g_i the f_i times the terms'
    factors at vertex i (taken at t less the middle of the grid); as in
    `converge`, `QuadratureError` if the rules miss `tol`.
    """
    if any(hull is None for _, hull in factors):
        return 0.0
    hulls = [(float(lo), float(hi)) for _, (lo, hi) in factors]
    ends = sorted({e for hull in hulls for e in hull})
    panels = [(a, b) for a, b in zip(ends, ends[1:])
              if any(lo <= a and b <= hi for lo, hi in hulls)]
    chains = []  # (coefficient, ordering, factor names at each vertex)
    for order in permutations(range(len(factors))):
        rows = [PropagatorKernel(kind, omega).terms(order.index(x)
                                                    - order.index(y))
                for x, y, kind in edges]
        for choice in iproduct(*rows):
            names = [[] for _ in factors]
            for (x, y, _), (_, fx, fy) in zip(edges, choice):
                names[x].append(fx)
                names[y].append(fy)
            chains.append((math.prod(c for c, _, _ in choice), order, names))
    used = {name for _, _, names in chains for at in names for name in at}

    def rule(n):
        grid = Grid(panels, n)
        vals = [f(grid.nodes) for f, _ in factors]
        s = grid.nodes - (ends[0] + ends[-1]) / 2
        fac = {name: _factor(name, omega, s) for name in used}
        total = 0.0
        for c, order, names in chains:
            acc = c
            for i in order:
                acc = vals[i] * acc
                for name in names[i]:
                    acc = acc * fac[name]
                if i != order[-1]:
                    acc = grid.cumulative(acc)
            total += grid.integral(acc)
        return total
    return converge(rule, tol)


# ---------------------------------------------------------------------------
# Diagram polynomials
# ---------------------------------------------------------------------------

class Vertex:
    """Point vertex u^a (u~)^b (Pu)^p smeared with a Bump."""

    __slots__ = ("u", "au", "p", "w")

    def __init__(self, u=0, au=0, p=0, w=None):
        self.u = u
        self.au = au
        self.p = p
        self.w = w

    @property
    def odd(self):
        return self.au % 2 == 1

    def key(self):
        return (self.u, self.au, self.p, () if self.w is None else self.w.key)

    def replace(self, **kw):
        vals = {"u": self.u, "au": self.au, "p": self.p, "w": self.w}
        vals.update(kw)
        return Vertex(**vals)

    def __repr__(self):
        bits = []
        if self.u:
            bits.append("u^%d" % self.u if self.u > 1 else "u")
        if self.p:
            bits.append("(Pu)^%d" % self.p if self.p > 1 else "(Pu)")
        if self.au:
            bits.append("u~^%d" % self.au if self.au > 1 else "u~")
        return "[%s]" % " ".join(bits) if bits else "[1]"


# an edge is (i, j, kind, orient): kernel evaluated at
# orient * (t_i - t_j); symmetric kinds are normalized to orient +1.
_SYMMETRIC = {"symmetric", "feynman"}


def _norm_edge(i, j, kind, orient=1):
    if i > j:
        i, j = j, i
        orient = -orient
    if kind in _SYMMETRIC:
        orient = 1
    return (i, j, kind, orient)


class Diagram:
    """Vertices plus kernel edges, in canonical form.

    `sign` multiplies the coefficient `DiagramPoly._add` gives the diagram:
    the Koszul sign of reaching the canonical vertex order (and of a vertex
    fusion, see `_fuse`), or 0 for a diagram that is zero.  `key()` is
    computed once.
    """

    __slots__ = ("verts", "edges", "sign", "_key")

    def __init__(self, verts, edges, canonicalize=True):
        self._key = None
        if not canonicalize:
            self.verts = tuple(verts)
            self.edges = tuple(sorted(edges))
            self.sign = 1
            return
        best = None
        verts = tuple(verts)
        edges = tuple(edges)
        n = len(verts)
        keys = [v.key() for v in verts]
        odd = [v.odd for v in verts]
        order = sorted(range(n), key=lambda i: (keys[i], i))
        # group identical vertices; permute inside groups for the minimal
        # edge multiset, tracking the Koszul sign of odd-vertex swaps
        groups = []
        for i in order:
            if groups and keys[groups[-1][-1]] == keys[i]:
                groups[-1].append(i)
            else:
                groups.append([i])
        for perm_parts in iproduct(*[permutations(g) for g in groups]):
            perm = [i for part in perm_parts for i in part]  # new -> old
            pos = {old: new for new, old in enumerate(perm)}
            es = tuple(sorted(_norm_edge(pos[a], pos[b], k, o)
                              for a, b, k, o in edges))
            sgn = koszul_sign(perm, odd)
            if best is None or es < best[0]:
                best = [es, tuple(perm), sgn]
            elif es == best[0] and sgn != best[2]:
                # an automorphism with Koszul sign -1: the diagram equals
                # its own negative
                best[2] = 0
        perm = best[1]
        self.verts = tuple(verts[i] for i in perm)
        self.edges = best[0]
        self.sign = best[2]

    def key(self):
        if self._key is None:
            self._key = (tuple(v.key() for v in self.verts), self.edges)
        return self._key

    def __repr__(self):
        es = ",".join("%d-%d:%s" % (a, b, k) for a, b, k, _ in self.edges)
        return "Diag(%s%s)" % ("".join(map(repr, self.verts)),
                               ";" + es if es else "")


def _concat(d1, d2):
    """The vertices and edges of d1 followed by those of d2, d2's edges
    shifted past d1's vertices."""
    n = len(d1.verts)
    return (d1.verts + d2.verts,
            d1.edges + tuple((a + n, b + n, k, o) for a, b, k, o in d2.edges))


class DiagramPoly:
    """Formal-series combination of diagrams."""

    def __init__(self, terms=None, orders=(3, 2)):
        self.orders = tuple(orders)
        self.terms = {}  # key -> (Diagram, FormalSeries)
        for diag, coeff in (terms or []):
            self._add(diag, coeff)

    def _add(self, diag, coeff):
        if diag.sign == 0:
            return  # odd under one of its automorphisms, so zero
        if any(v.w is not None and v.w.support.is_empty() for v in diag.verts):
            return  # a vertex weight with empty support is the zero functional
        if not isinstance(coeff, FormalSeries):
            coeff = FormalSeries.const(coeff, self.orders)
        if diag.sign < 0:
            coeff = -coeff
        k = diag.key()
        old = self.terms.get(k)
        if old is not None:
            c = old[1] + coeff
            if c.is_zero():
                del self.terms[k]
            else:
                self.terms[k] = (old[0], c)
        elif not coeff.is_zero():
            if diag.sign != 1:
                diag = Diagram(diag.verts, diag.edges, canonicalize=False)
            self.terms[k] = (diag, coeff)

    # -- ring structure --------------------------------------------------

    def __add__(self, other):
        out = DiagramPoly(orders=self.orders)
        for d, c in self.terms.values():
            out._add(d, c)
        for d, c in other.terms.values():
            out._add(d, c)
        return out

    def __sub__(self, other):
        out = DiagramPoly(orders=self.orders)
        out.terms = dict(self.terms)
        for d, c in other.terms.values():
            out._add(d, -c)
        return out

    def scale(self, c):
        out = DiagramPoly(orders=self.orders)
        for d, coeff in self.terms.values():
            out._add(d, coeff * c)
        return out

    def __mul__(self, other):
        """Pointwise (graded-commutative) product: diagram concatenation."""
        out = DiagramPoly(orders=self.orders)
        for d1, c1 in self.terms.values():
            for d2, c2 in other.terms.values():
                out._add(Diagram(*_concat(d1, d2)), c1 * c2)
        return out

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, DiagramPoly):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        return " + ".join("(%s)*%r" % (c, d)
                          for d, c in self.terms.values()) or "0"

    def support(self):
        return union_of(v.w.support for d, _ in self.terms.values()
                        for v in d.verts if v.w is not None)


def unit(orders=(3, 2)):
    return DiagramPoly([(Diagram((), ()), 1)], orders)


def field_obs(f: Bump, power=1, afpower=0, orders=(3, 2)):
    """int u(t)^power u~(t)^afpower f(t) dt as a one-vertex diagram."""
    if afpower > 1:
        raise ValueError("u~ is odd: u~(t)^2 = 0, so a vertex carries at "
                         "most one antifield leg")
    return DiagramPoly([(Diagram((Vertex(u=power, au=afpower, w=f),), ()), 1)],
                       orders)


# ---------------------------------------------------------------------------
# Contraction machinery
# ---------------------------------------------------------------------------

def _contract(verts, i, j, kind):
    """The ways to contract one leg at vertex i with one leg at vertex j
    (i == j allowed) by the `kind` kernel: a list of (verts, edges, links,
    count), the vertices with the two legs dropped, the kernel edges and
    delta links the contraction adds, and its multiplicity.

    The rules are in the module docstring; `kind` is "feynman" or a
    bi-solution, "wightman" or "pauli-jordan".  A (Pu)-u pair under G^F is
    returned as a link (i, j) with factor i, which `_fuse` applies when the
    term is emitted; at one vertex, or between vertices already linked, the
    link changes nothing, so the pair is pointwise.
    """
    vi, vj = verts[i], verts[j]
    same = i == j
    if kind == "feynman" and vi.p and vj.p and (vi.p > 1 or not same):
        raise NotImplementedError("a (Pu)-(Pu) contraction under G^F is "
                                  "i P delta, which has no vertex form")
    out = []
    uu = vi.u * (vi.u - 1) // 2 if same else vi.u * vj.u
    if uu:
        out.append((_drop(verts, i, "u", j, "u"), ((i, j, kind, 1),), (), uu))
    if kind == "feynman":
        pu = [("p", "u", vi.p * vj.u)]
        if not same:
            pu.append(("u", "p", vi.u * vj.p))
        for si, sj, n in pu:
            if n:
                out.append((_drop(verts, i, si, j, sj), (), ((i, j),),
                            n * 1j))
    return out


def _drop(verts, i, si, j, sj):
    """The vertices with one `si` leg gone at vertex i and one `sj` leg at
    vertex j."""
    verts = list(verts)
    verts[i] = verts[i].replace(**{si: getattr(verts[i], si) - 1})
    verts[j] = verts[j].replace(**{sj: getattr(verts[j], sj) - 1})
    return verts


def _fuse(verts, edges, links):
    """The diagram with each link's delta(t_i - t_j) applied: for a link
    (i, j), vertex j is fused into vertex i, their weights multiplied.

    The Koszul sign of moving vj's odd content next to vi, across the
    vertices between, goes into the diagram's sign.  The sign is 0 if the
    fused vertex would carry two antifield legs: u~ is odd, so u~(t)^2 = 0
    pointwise.  A link between vertices already fused is pointwise.
    """
    verts = list(verts)
    at = list(range(len(verts)))  # vertex of `verts` -> its fused vertex
    sign = 1
    for a, b in links:
        i, j = at[a], at[b]
        if i == j:
            continue
        vi, vj = verts[i], verts[j]
        if vi.w is None or vj.w is None:
            w = vj.w if vi.w is None else vi.w
        else:
            w = vi.w * vj.w
        if vi.au + vj.au >= 2:
            sign = 0
        elif vj.au % 2 and sum(v.au for v in
                               verts[min(i, j) + 1:max(i, j)]) % 2:
            sign = -sign
        verts[i] = Vertex(u=vi.u + vj.u, au=vi.au + vj.au, p=vi.p + vj.p, w=w)
        del verts[j]
        at = [i if k == j else k for k in at]
        at = [k - (k > j) for k in at]
    d = Diagram(verts, [(at[a], at[b], kind, o) for a, b, kind, o in edges])
    d.sign *= sign
    return d


def _delta_contract(verts, edges, iu, ia):
    """delta-contraction of one u leg at vertex iu with one u~ leg at vertex
    ia: the fused diagram (pointwise when iu == ia) and its multiplicity,
    signed by the parity of the antifield legs before vertex ia; None if
    there is no such pair of legs."""
    count = verts[iu].u * verts[ia].au
    if not count:
        return None
    if sum(v.au for v in verts[:ia]) % 2:
        count = -count
    return _fuse(_drop(verts, iu, "u", ia, "au"), edges, ((iu, ia),)), count


# ---------------------------------------------------------------------------
# Star product, time ordering, deformed product
# ---------------------------------------------------------------------------

@functools.cache
def _hbar_weight(k, orders, sign=1):
    """hbar^k / k! as a FormalSeries, with an optional (-1)^k for inverses;
    kept after its first use (a series is never changed in place)."""
    return FormalSeries({(k, 0): Fraction(sign ** k, math.factorial(k))},
                        orders)


def _mixed_states(F: DiagramPoly, G: DiagramPoly):
    """One state (n1, verts, edges, links, coefficient) per pair of an F and
    a G diagram: their concatenation, the first n1 vertices from F."""
    return [(len(d1.verts),) + _concat(d1, d2) + ((), c1 * c2)
            for d1, c1 in F.terms.values() for d2, c2 in G.terms.values()]


def _mixed_layer(states, kind):
    """Every state with one more contraction from an F-leg to a G-leg."""
    return [(n1, verts2, edges + e, links + lk, c * cnt)
            for n1, verts, edges, links, c in states
            for i in range(n1) for j in range(n1, len(verts))
            for verts2, e, lk, cnt in _contract(verts, i, j, kind)]


def _contraction_exp(F: DiagramPoly, G: DiagramPoly, kind) -> DiagramPoly:
    """m o exp(hbar D_kind): kernel contractions from F-legs to G-legs, one
    power of hbar each.  Iterated single contractions; the k-fold layer
    carries hbar^k / k!.  Links are fused only when a term is emitted, so
    F-legs and G-legs stay apart after a delta."""
    hmax = F.orders[0]
    total = DiagramPoly(orders=F.orders)
    states = _mixed_states(F, G)
    for k in range(hmax + 1):
        w = _hbar_weight(k, F.orders)
        for _, verts, edges, links, c in states:
            total._add(_fuse(verts, edges, links), c * w)
        if k == hmax:
            break
        states = _mixed_layer(states, kind)
        if not states:
            break
    return total


def star(F: DiagramPoly, G: DiagramPoly) -> DiagramPoly:
    """m o exp(hbar D_W): Wightman contractions from F-legs to G-legs."""
    return _contraction_exp(F, G, "wightman")


def tmap(F: DiagramPoly, inverse=False) -> DiagramPoly:
    """T = exp((hbar/2) d_{G^F}): Feynman self-contractions, one power of
    hbar per contraction (the 1/2 is absorbed into unordered-pair counts)."""
    hmax = F.orders[0]
    sign = -1 if inverse else 1
    total = DiagramPoly(orders=F.orders)
    layer = list(F.terms.values())
    for k in range(hmax + 1):
        w = _hbar_weight(k, F.orders, sign)
        for d, c in layer:
            total._add(d, c * w)
        if k == hmax:
            break
        nxt = DiagramPoly(orders=F.orders)
        for d, c in layer:
            n = len(d.verts)
            for i in range(n):
                for j in range(i, n):
                    for verts, e, lk, cnt in _contract(d.verts, i, j,
                                                       "feynman"):
                        nxt._add(_fuse(verts, d.edges + e, lk), c * cnt)
        layer = list(nxt.terms.values())
        if not layer:
            break
    return total


def tmap_inv(F: DiagramPoly) -> DiagramPoly:
    return tmap(F, inverse=True)


def tprod(F: DiagramPoly, G: DiagramPoly) -> DiagramPoly:
    """Time-ordered product T(T^-1 F . T^-1 G): equivalently, exp(hbar
    d_{G^F}) over mixed F-G legs only."""
    return _contraction_exp(F, G, "feynman")


# ---------------------------------------------------------------------------
# Peierls bracket
# ---------------------------------------------------------------------------

def peierls(F: DiagramPoly, G: DiagramPoly) -> DiagramPoly:
    """Classical Peierls bracket: single Pauli-Jordan contraction between
    F-legs and G-legs; (Pu) legs are inert, since P Delta = 0."""
    out = DiagramPoly(orders=F.orders)
    for _, verts, edges, _, c in _mixed_layer(_mixed_states(F, G),
                                              "pauli-jordan"):
        out._add(Diagram(verts, edges), c)
    return out


# ---------------------------------------------------------------------------
# Numeric evaluation of diagrams
# ---------------------------------------------------------------------------

def eval_diagram(diag: Diagram, model: OscillatorModel, fields,
                 tol=1e-10) -> complex:
    """Integral of the diagram over its vertex positions: the product of the
    values of the connected components of its kernel edges (`_fuse` has
    applied the delta links), an edge from a vertex to itself being k(0).
    A component of one vertex is one `integrate` call over its weight's
    hull, one of two or three is an `_ordered` sum over its time orderings
    (each to `tol`, or `QuadratureError`), and a larger one raises
    `NotImplementedError`.
    """
    verts = diag.verts
    hulls = [None if v.w is None else v.w.support.bounds() for v in verts]
    if None in hulls:
        return 0.0
    comps = _components(len(verts), diag.edges)
    if max(map(len, comps), default=0) > 3:
        raise NotImplementedError("diagram evaluation supports connected "
                                  "components of at most 3 vertices")
    value = complex(math.prod(PropagatorKernel(k, model.omega).value(0.0)
                              for a, b, k, _ in diag.edges if a == b))
    for comp in comps:
        factors = [(functools.partial(_vertex_factor, verts[i], model,
                                      fields), hulls[i]) for i in comp]
        if len(comp) == 1:
            value *= integrate(*factors[0], tol)
            continue
        at = {v: i for i, v in enumerate(comp)}
        edges = [(at[a], at[b], kind) if o > 0 else (at[b], at[a], kind)
                 for a, b, kind, o in diag.edges if a != b and a in at]
        value *= _ordered(factors, edges, model.omega, tol)
    return complex(value)


def _components(n, edges):
    """The vertex lists of the connected components of the edges."""
    comps = [[i] for i in range(n)]
    for a, b, *_ in edges:
        ca, cb = (next(c for c in comps if v in c) for v in (a, b))
        if ca is not cb:
            comps.remove(cb)
            ca.extend(cb)
    return comps


def _vertex_factor(v, model, fields, t):
    """A vertex's weight times its legs' field values at the points t."""
    out = v.w(t)
    if v.u:
        out = out * fields["u"].jet(t, (0,)) ** v.u
    if v.p:
        out = out * model.p_apply(fields["u"], t) ** v.p
    if v.au:
        out = out * fields["u~"].jet(t, (0,)) ** v.au
    return out


def eval_poly(P: DiagramPoly, model, fields, tol=1e-10):
    """Dict (hbar, lambda) order -> complex value."""
    out = {}
    for d, c in P.terms.values():
        v = eval_diagram(d, model, fields, tol=tol)
        if v == 0:
            continue
        for pq, e in c.coeffs.items():
            z = e.to_complex() * v
            if z:
                out[pq] = out.get(pq, 0) + z
    return out


def max_abs(P: DiagramPoly, model, fields_list, tol):
    """The largest |value| of P over the field samples `fields_list`, each
    evaluated at tol * 1e-2; 0.0 for a zero polynomial."""
    if P.is_zero():
        return 0.0
    return max((abs(v) for fields in fields_list
                for v in eval_poly(P, model, fields, tol=tol * 1e-2).values()),
               default=0.0)


# ---------------------------------------------------------------------------
# Causal factorization
# ---------------------------------------------------------------------------

class CausalReport:
    def __init__(self, branch, max_dev=None, skipped=False, note=""):
        self.branch = branch
        self.max_dev = max_dev
        self.skipped = skipped
        self.note = note

    def __repr__(self):
        if self.skipped:
            return "CausalReport(skipped: %s)" % self.note
        return "CausalReport(%s, max_dev=%g)" % (self.branch, self.max_dev)


class IncomparableSupports(ValueError):
    pass


def causal_check(F: DiagramPoly, G: DiagramPoly, model, fields_list,
                 tol=1e-8) -> CausalReport:
    """Verify time-ordered/star factorization for causally ordered supports:
    F .T G = F * G when no point of supp G is later than supp F, and
    F .T G = G * F in the flipped case."""
    sF, sG = F.support(), G.support()
    if sF == sG:
        return CausalReport(None, skipped=True,
                            note="equal supports; no causal order")
    g_before_f = not_later(sG, sF)
    f_before_g = not_later(sF, sG)
    if g_before_f and f_before_g:
        return CausalReport(None, skipped=True,
                            note="supports are simultaneous; both branches "
                                 "degenerate")
    if not g_before_f and not f_before_g:
        raise IncomparableSupports("supports are not causally ordered")
    tp = tprod(F, G)
    st = star(F, G) if g_before_f else star(G, F)
    branch = "F*G" if g_before_f else "G*F"
    dev = 0.0
    for fields in fields_list:
        a = eval_poly(tp, model, fields, tol=tol * 1e-2)
        b = eval_poly(st, model, fields, tol=tol * 1e-2)
        for k in set(a) | set(b):
            dev = max(dev, abs(a.get(k, 0) - b.get(k, 0)))
    if dev > tol:
        raise AssertionError("causal factorization violated: dev=%g" % dev)
    return CausalReport(branch, max_dev=dev)


# ---------------------------------------------------------------------------
# The free quantum BV differential
# ---------------------------------------------------------------------------

def delta_s0(F: DiagramPoly) -> DiagramPoly:
    """Classical free BV differential: replace one u~ leg by a (Pu) leg."""
    out = DiagramPoly(orders=F.orders)
    for d, c in F.terms.values():
        for i, v in enumerate(d.verts):
            if not v.au:
                continue
            sign = 1
            if sum(d.verts[k].au for k in range(i)) % 2:
                sign = -1
            verts = list(d.verts)
            verts[i] = v.replace(au=v.au - 1, p=v.p + 1)
            out._add(Diagram(verts, list(d.edges)),
                     c * Fraction(sign * v.au))
    return out


def bv_laplacian(F: DiagramPoly) -> DiagramPoly:
    """Graded BV Laplacian: delta-contraction of one u leg with one u~ leg."""
    out = DiagramPoly(orders=F.orders)
    for d, c in F.terms.values():
        for i in range(len(d.verts)):
            for j in range(len(d.verts)):
                term = _delta_contract(d.verts, d.edges, i, j)
                if term:
                    out._add(term[0], c * Fraction(term[1]))
    return out


def shat0(F: DiagramPoly) -> DiagramPoly:
    """Free quantum BV differential s0 = T^-1 o delta_S0 o T in its closed
    form delta_S0 - i hbar Laplacian."""
    ihbar = FormalSeries({(1, 0): I}, F.orders)
    return delta_s0(F) - bv_laplacian(F).scale(ihbar)

"""Multilocal observables: finite sums of degree-m terms, each a product of
m one-slot local integrands with a product weight, carried by a region and a
formal-series scalar.

Canonical form is S_m-symmetrized with Koszul signs, so a degree-m term and
any slot relabeling of it compare equal (up to the graded sign, which the
symmetrization absorbs).
"""

import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np

from .symexpr import Expr, QI, FormalSeries, koszul_sign
from .jetcalc import JetExpr, LagForm, _density_value, evaluate_local
from .region import Region, Bump, union_of


class SupportError(ValueError):
    pass


def _graded_components(expr: Expr):
    buckets = {}
    for mono, c in expr.terms.items():
        g = sum(s.grade * e for s, e in mono)
        buckets.setdefault(g, []).append((mono, c))
    return {g: Expr.from_terms(pairs) for g, pairs in buckets.items()}


class MLTerm:
    """One degree-m summand: coeff * prod_s int slot_s(jets) w_s."""

    __slots__ = ("slots", "weights", "coeff")

    def __init__(self, slots, weights, coeff):
        if len(slots) != len(weights):
            raise ValueError("slot/weight arity mismatch")
        self.slots = tuple(slots)      # JetExprs, one per slot
        self.weights = tuple(weights)  # Bumps, one per slot
        self.coeff = coeff             # FormalSeries

    @property
    def degree(self):
        return len(self.slots)

    def key(self):
        return tuple((s.expr, w.key) for s, w in zip(self.slots, self.weights))

    def support(self):
        return union_of(w.support for w in self.weights)


def _series(c, orders):
    if isinstance(c, FormalSeries):
        return c
    return FormalSeries.const(c, orders)


class MultilocalObs:
    """S_m-symmetrized multilocal observable over a region."""

    def __init__(self, terms, region: Region, orders=(3, 2)):
        self.region = region
        self.orders = tuple(orders)
        self.constant = FormalSeries.const(0, self.orders)
        acc = {}

        def _add(term):
            k = term.key()
            if k in acc:
                acc[k] = (acc[k][0], acc[k][1] + term.coeff)
            else:
                acc[k] = (term, term.coeff)

        for term in terms:
            if term.degree == 0:
                self.constant = self.constant + _series(term.coeff, self.orders)
                continue
            coeff = _series(term.coeff, self.orders)
            # split non-homogeneous slots into graded components first; a
            # grade-homogeneous slot is kept as it is
            dim = term.slots[0].dim
            pieces = [()]
            for s in term.slots:
                comps = _graded_components(s.expr)
                opts = [s] if len(comps) == 1 else [JetExpr(e, dim)
                                                    for e in comps.values()]
                pieces = [done + (o,) for done in pieces for o in opts]
            for slots in pieces:
                odd = [s.expr.homogeneous_grade() % 2 for s in slots]
                m = len(slots)
                inv = Fraction(1, math.factorial(m))
                for perm in permutations(range(m)):
                    sgn = koszul_sign(perm, odd)
                    c = coeff * (inv * sgn)
                    _add(MLTerm(tuple(slots[i] for i in perm),
                                tuple(term.weights[i] for i in perm), c))
        self.terms = [MLTerm(t.slots, t.weights, c) for t, c in acc.values()
                      if not c.is_zero()]

    # -- observables -----------------------------------------------------

    def degrees(self):
        out = sorted({t.degree for t in self.terms})
        if not self.constant.is_zero():
            out = [0] + out
        return out

    def support(self):
        # one normalisation of every weight's support; a weight shared by
        # many terms is read once
        weights = {id(w): w for t in self.terms for w in t.weights}
        return union_of(w.support for w in weights.values())

    def evaluate(self, fields, tol=1e-10):
        """Dict (hbar power, lambda power) -> numeric value."""
        out = {}
        for (p, q), c in self.constant.coeffs.items():
            v = c.to_complex()
            if v:
                out[(p, q)] = out.get((p, q), 0) + v
        for t in self.terms:
            prod = 1.0
            for s, w in zip(t.slots, t.weights):
                prod *= evaluate_local(LagForm.top(s, s.dim), w, fields, tol=tol)
            for (p, q), c in t.coeff.coeffs.items():
                v = c.to_complex() * prod
                if v:
                    out[(p, q)] = out.get((p, q), 0) + v
        return {k: v for k, v in out.items() if v != 0}

    def kernel(self, points, fields):
        """The symmetrized integrand at each row of the (n, m) array
        `points`, n complex values: the sum over terms of c * sum_perm prod_i
        slot_i(x_perm(i)) * w_i(x_perm(i)), c the term's order-(0, 0)
        coefficient.  Every term must have degree m; the constant part is
        left out.  Each weight and slot is evaluated once per column."""
        pts = np.asarray(points, dtype=float)
        n, m = pts.shape
        cols = {}

        def col(f, j):
            key = (id(f), j)
            if key not in cols:
                cols[key] = (f(pts[:, j]) if isinstance(f, Bump)
                             else _density_value(f, pts[:, j], fields))
            return cols[key]

        tot = np.zeros(n, dtype=complex)
        for t in self.terms:
            if t.degree != m:
                raise ValueError("term of degree %d at %d points"
                                 % (t.degree, m))
            c = t.coeff[0, 0].to_complex()
            if c:
                tot = tot + c * sum(
                    math.prod(col(s, j) * col(w, j)
                              for s, w, j in zip(t.slots, t.weights, perm))
                    for perm in permutations(range(m)))
        return tot

    def scalar(self, fields, tol=1e-10):
        """Numeric value when the series is concentrated at order (0,0)."""
        vals = self.evaluate(fields, tol=tol)
        if set(vals) - {(0, 0)}:
            raise ValueError("observable has nontrivial series orders")
        return vals.get((0, 0), 0.0)

    def __eq__(self, other):
        if not isinstance(other, MultilocalObs):
            return NotImplemented
        if not (self.constant - other.constant).is_zero():
            return False
        a = {t.key(): t.coeff for t in self.terms}
        b = {t.key(): t.coeff for t in other.terms}
        if set(a) != set(b):
            return False
        return all((a[k] - b[k]).is_zero() for k in a)

    def __repr__(self):
        return "MultilocalObs(%d terms, degrees %s)" % (
            len(self.terms), self.degrees())


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def local_observable(integrand: JetExpr, weight: Bump, region=None,
                     coeff=1, orders=(3, 2)) -> MultilocalObs:
    region = region or weight.support
    return MultilocalObs([MLTerm((integrand,), (weight,), coeff)],
                         region, orders)


def constant_observable(value, region=None, orders=(3, 2)):
    region = region or Region.empty()
    return MultilocalObs([MLTerm((), (), value)], region, orders)


# ---------------------------------------------------------------------------
# Precosheaf structure
# ---------------------------------------------------------------------------

def extend(F: MultilocalObs, V: Region) -> MultilocalObs:
    """Extension along U subset V; evaluation-invariant by construction."""
    if not V.contains_region(F.region):
        raise SupportError("target region does not contain the source")
    out = MultilocalObs([], V, F.orders)
    out.terms = list(F.terms)
    out.constant = F.constant
    return out


def disjoint_product(F: MultilocalObs, G: MultilocalObs) -> MultilocalObs:
    """Product of observables with disjoint supports; degrees add.  Each
    constant part enters as a degree-0 term, so it multiplies the other
    factor's terms and constant."""
    if not F.region.disjoint_from(G.region):
        raise SupportError("regions overlap")
    fs = F.terms + [MLTerm((), (), F.constant)]
    gs = G.terms + [MLTerm((), (), G.constant)]
    return MultilocalObs([MLTerm(a.slots + b.slots, a.weights + b.weights,
                                 a.coeff * b.coeff) for a in fs for b in gs],
                         F.region.union(G.region), F.orders)


def structure_map(parts, V: Region) -> MultilocalObs:
    """Prefactorization structure map: parts (observable, region), pairwise
    disjoint regions inside V; disjoint products followed by extension."""
    checked = []
    for obs, reg in parts:
        if not V.contains_region(reg):
            raise SupportError("part region not inside the target")
        if not reg.contains_region(obs.support()):
            raise SupportError("observable not supported in its region")
        for _, other in checked:
            if not reg.disjoint_from(other):
                raise SupportError("part regions overlap")
        checked.append((obs, reg))
    if not checked:
        raise ValueError("structure_map needs at least one part")
    acc = None
    for obs, reg in checked:
        cur = extend(obs, reg) if reg.contains_region(obs.region) else obs
        acc = cur if acc is None else disjoint_product(acc, cur)
    return extend(acc, V)


# ---------------------------------------------------------------------------
# Weiss decomposition
# ---------------------------------------------------------------------------

class WeissDecompositionError(ValueError):
    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


_WEISS_ROUNDS = 6  # refinements of 4, 8, ..., 128 intervals


def weiss_decompose(F: MultilocalObs, cover):
    """Split F into pieces supported (slotwise) in single cover elements.

    Returns a list of (MultilocalObs, cover index).  Uses a partition of
    unity on a refinement of the cover; the refinement is halved until every
    assignment tuple fits inside one cover element, which terminates for a
    Weiss cover at the arity of F.  A product psi_k * w whose two supports
    are disjoint vanishes identically and is not emitted, and a piece left
    with no terms is omitted.
    """
    from .region import (CoverError, containers, partition_of_unity,
                         is_weiss_cover)

    arity = max([t.degree for t in F.terms], default=1)
    compact = F.support()
    hull = compact.bounds()
    if hull is None:
        return [(F, 0)]
    rep = is_weiss_cover(cover, F.region, arity)
    if not rep.ok:
        raise WeissDecompositionError(
            "cover fails the Weiss condition at arity %d" % arity,
            witness=rep.witness)

    lo, hi = hull
    pieces = len(cover)
    for round_ in range(_WEISS_ROUNDS):
        pairs = _refinement(lo, hi, 4 * 2 ** round_)
        try:
            psis = partition_of_unity([Region.interval(a, b)
                                       for a, b in pairs], compact)
        except CoverError:
            continue
        # which cover elements contain which small intervals
        assignment = _assign(F, psis, containers(cover, pairs), pieces)
        if assignment is not None:
            return assignment
    # no witness: a Weiss cover fails here only below the finest refinement
    raise WeissDecompositionError("could not refine the partition of unity "
                                  "to fit the cover", witness=None)


def _refinement(lo, hi, n):
    """The n small intervals (lo + (k - 1/2) step, lo + (k + 3/2) step),
    step = (hi - lo) / n: neighbours overlap by a step so the small cover is
    open, and the ends overshoot the hull by half a step so the closure of
    the support is covered (weights must close up inside the region)."""
    half = Fraction(hi - lo, 2 * n)
    ends = [lo + (2 * j - 1) * half for j in range(n + 2)]
    return list(zip(ends, ends[2:]))


def _assign(F, psis, containers, pieces):
    sets = [set(c) for c in containers]
    buckets = {j: [] for j in range(pieces)}
    products = {}
    for t in F.terms:
        # (k, psi_k * w) for the k whose support meets w's: the other
        # products vanish identically
        factors = []
        for w in t.weights:
            if w.key not in products:
                products[w.key] = [(k, psi * w) for k, psi in enumerate(psis)
                                   if psi.support.intersects(w.support)]
            factors.append(products[w.key])
        for combo in product(*factors):
            common = set.intersection(*(sets[k] for k, _ in combo))
            if not common:
                return None
            buckets[min(common)].append(
                MLTerm(t.slots, tuple(pw for _, pw in combo), t.coeff))
    out = []
    for j in range(pieces):
        has_const = j == 0 and not F.constant.is_zero()
        if not buckets[j] and not has_const:
            continue
        # F's slots are graded and no two combos share a key, so the
        # pieces skip the normalisation of MultilocalObs.__init__
        obs = MultilocalObs([], F.region, F.orders)
        obs.terms = buckets[j]
        if has_const:
            obs.constant = F.constant
        out.append((obs, j))
    return out


# ---------------------------------------------------------------------------
# Taylor coproduct
# ---------------------------------------------------------------------------

def coproduct(alpha: JetExpr):
    """Finite sum alpha_(1) (x) alpha_(2) with jets split u -> u' + u''.

    Returns a list of (left: JetExpr, right: JetExpr, coeff: QI) with left
    jets renamed to "name'" and right jets to "name''".  Substituting
    (j psi, j phi) for the two groups reproduces alpha(j psi + j phi)
    exactly for polynomial integrands.
    """
    from .symexpr import Symbol

    dim = alpha.dim
    table = {}
    for s in alpha.expr.symbols():
        if s.ns == "jet":
            left = Symbol("jet", s.name + "'", s.index, s.grade)
            right = Symbol("jet", s.name + "''", s.index, s.grade)
            table[s] = Expr.sym(left) + Expr.sym(right)
    split = alpha.expr.subs(table)
    # each monomial is its own (left, right) pair, with a nonzero coefficient
    out = []
    for mono, c in split.terms.items():
        lmono, rmono = [], []
        sign = 1
        odd_in_right = 0
        for s, e in mono:
            if s.ns == "jet" and s.name.endswith("''"):
                rmono.append((s, e))
                if s.grade % 2:
                    odd_in_right += e
            else:
                lmono.append((s, e))
                if s.grade % 2 and odd_in_right % 2:
                    sign = -sign
        left = JetExpr(Expr.from_terms([(tuple(lmono), QI.of(1))]), dim)
        right = JetExpr(Expr.from_terms([(tuple(rmono), QI.of(1))]), dim)
        out.append((left, right, c if sign > 0 else -c))
    return out


def coproduct_eval(pairs, left_subs, right_subs):
    """Recombine a coproduct by substituting jets on each side."""
    total = Expr.zero()
    for left, right, c in pairs:
        l = left.expr.subs(left_subs)
        r = right.expr.subs(right_subs)
        total = total + (l * r).map_coeff(lambda q: q * c)
    return total

"""Regions of the time line, causal order, Weiss covers, bump functions.

A region is a finite union of open intervals with rational ends, held in
normal form: intervals sorted, overlapping ones merged, touching ones apart.
Queries read that form directly, and causal order and Weiss covers are
decided exactly from the interval ends.

Bumps are closed-form compactly supported smooth functions built from the
mollifier exp(-1/(1-t^2)) under affine placement, sums, products and
quotients.  A call on one number, `f(t)`, runs the node tree's `value(t)`,
plain `math` on one float, and the bump keeps the last three points it
evaluated with their values, so a repeat is read back (a Weiss piece's
shared weight is read at every point of a term's slots); everything else
(arrays, `values`, `series`, `deriv`, `derivs`) evaluates with derivatives
to any order through Taylor-series arithmetic (`_Taylor`), and the two
agree bit for bit at order 0.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------

def _fr(x):
    return x if isinstance(x, Fraction) else Fraction(x)


class Region:
    """Finite union of open intervals of the line, in normal form.

    `_ivs` holds the intervals (lo, hi), sorted, no two of them overlapping
    (two may touch); so an interval inside the region lies inside one of
    them, and the first and last give the hull.  No other module reads it.
    """

    __slots__ = ("_ivs",)

    def __init__(self, pairs=()):
        ivs = []
        for lo, hi in pairs:
            lo, hi = _fr(lo), _fr(hi)
            if lo < hi:
                ivs.append((lo, hi))
        self._ivs = tuple(_merge_intervals(ivs))

    @staticmethod
    def interval(lo, hi):
        return Region([(lo, hi)])

    @staticmethod
    def intervals(pairs):
        return Region(pairs)

    @staticmethod
    def empty():
        return Region()

    def is_empty(self):
        return not self._ivs

    def union(self, other):
        return union_of((self, other))

    def intersection(self, other):
        return Region([(max(l1, l2), min(h1, h2))
                       for l1, h1 in self._ivs for l2, h2 in other._ivs])

    def contains_point(self, t):
        return any(lo < t < hi for lo, hi in self._ivs)

    def contains_region(self, other):
        # the intervals of the normal form are disjoint and their ends lie
        # outside the region, so an interval inside it lies inside one
        return all(any(lo <= a and b <= hi for lo, hi in self._ivs)
                   for a, b in other._ivs)

    def intersects(self, other):
        return any(max(l1, l2) < min(h1, h2)
                   for l1, h1 in self._ivs for l2, h2 in other._ivs)

    def disjoint_from(self, other):
        return not self.intersects(other)

    def bounds(self):
        """The hull (lo, hi), or None for the empty region."""
        if not self._ivs:
            return None
        return self._ivs[0][0], self._ivs[-1][1]

    def __eq__(self, other):
        if not isinstance(other, Region):
            return NotImplemented
        return self._ivs == other._ivs

    def __hash__(self):
        return hash(self._ivs)

    def __repr__(self):
        if not self._ivs:
            return "Region(empty)"
        return "Region(%s)" % " u ".join("(%s,%s)" % iv for iv in self._ivs)


def union_of(regions):
    """The union of `regions`, normalised once."""
    return Region([iv for R in regions for iv in R._ivs])


def _merge_intervals(ivs, closed=False):
    """`ivs` sorted, overlapping ones merged, touching ones too if `closed`."""
    ivs = sorted(ivs)
    out = []
    for lo, hi in ivs:
        if out and (lo < out[-1][1] or closed and lo == out[-1][1]):
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


# ---------------------------------------------------------------------------
# Causal structure
# ---------------------------------------------------------------------------

def not_later(A: Region, B: Region) -> bool:
    """True iff A does not intersect the causal future of B: on the line,
    A's last end is at most B's first start."""
    if A.is_empty() or B.is_empty():
        return True
    return A._ivs[-1][1] <= B._ivs[0][0]


# ---------------------------------------------------------------------------
# Weiss covers
# ---------------------------------------------------------------------------

class WeissReport:
    def __init__(self, ok, witness=None):
        self.ok = ok
        self.witness = witness  # point tuple violating the condition

    def __bool__(self):
        return self.ok


def is_weiss_cover(cover, U: Region, k: int):
    """Check that every <=k-point configuration in U lies inside a single
    cover element, exactly, by endpoint combinatorics."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # elementary intervals: arrangement of all endpoints restricted to U
    endpoints = set()
    for R in [U, *cover]:
        for iv in R._ivs:
            endpoints.update(iv)
    endpoints = sorted(endpoints)
    # representative points: elementary-interval midpoints plus the
    # arrangement endpoints themselves (membership flips exactly there, so
    # midpoints alone can miss uncovered boundary configurations)
    cells = []
    for lo, hi in zip(endpoints, endpoints[1:]):
        mid = (lo + hi) / 2
        if U.contains_point(mid):
            cells.append(mid)
    for p in endpoints:
        if U.contains_point(p):
            cells.append(p)
    if not cells:
        return WeissReport(True)
    if not cover:
        return WeissReport(False, (float(cells[0]),) * k)
    member = [[V.contains_point(c) for V in cover] for c in cells]
    # first: every point must be covered (ordinary cover condition at arity 1)
    for idx, row in enumerate(member):
        if not any(row):
            return WeissReport(False, (float(cells[idx]),) * k)
    for combo in itertools.combinations_with_replacement(range(len(cells)), k):
        if not any(all(member[c][j] for c in combo) for j in range(len(cover))):
            return WeissReport(False, tuple(float(cells[c]) for c in combo))
    return WeissReport(True)


def containers(cover, intervals):
    """For each interval (a, b) of `intervals`, the indices of the cover
    elements that contain it, increasing.

    The left ends and the right ends must both be sorted, as on a uniform
    grid; then the intervals inside one cover interval (l, h) are one run,
    from the first with a >= l to the last with b <= h, found by bisection.
    """
    from bisect import bisect_left, bisect_right

    lefts = [a for a, _ in intervals]
    rights = [b for _, b in intervals]
    out = [[] for _ in intervals]
    for j, V in enumerate(cover):
        for lo, hi in V._ivs:
            for k in range(bisect_left(lefts, lo), bisect_right(rights, hi)):
                out[k].append(j)
    return out


# ---------------------------------------------------------------------------
# Bumps: Taylor-series arithmetic nodes
# ---------------------------------------------------------------------------
#
# A node's `taylor(ev, n)` returns n rows: row k holds the Taylor
# coefficient f^(k)(t)/k! at the points `ev.t`.  A row is a float when the
# points are one float, and an array or a constant float when they are an
# array; the same arithmetic serves both, with `_where`, `_any` and `_expf`
# choosing numpy or math.  Children are requested through `ev.rows`, which
# computes each (node, n) once per evaluation, so a subtree shared inside a
# tree is evaluated once.  A node's `key`, built once from its parameters and
# its children's keys, names the function it computes: a tag, then the
# parameters.
#
# `Bump(t)` on one int or float skips `_Taylor`: `node.value(t)` is plain
# `math` on one float.  It makes the float operations of the order-0
# `_Taylor` row in the same order, including the early 0.0 of `_Prod` and
# `_Quot`, so the two paths agree bit for bit; `_Deriv` runs `_Taylor` (the
# base `_Node.value`).  A `_Quot` whose denominator is a `_Sum` holding the
# numerator node (a step of a window, a psi_k of a partition of unity)
# evaluates the numerator once and adds that value in its place in the sum,
# as `_Taylor` reads it from its memo.  The denominator of psi_k sums only
# the windows whose supports meet w_k's, found by one sweep over the support
# intervals sorted by left end (`_meeting_pairs`), not by testing every pair.

def _where(cond, x, y):
    if isinstance(cond, np.ndarray):
        return np.where(cond, x, y)
    return x if cond else y


def _any(cond):
    return cond.any() if isinstance(cond, np.ndarray) else bool(cond)


def _same_sign(x, y):
    return math.copysign(1.0, x) == math.copysign(1.0, y)


def _expf(x):
    return np.exp(x) if isinstance(x, np.ndarray) else math.exp(x)


def _nonzero(rows):
    """Per point: does the series differ from 0 in some row?"""
    live = rows[0] != 0
    for r in rows[1:]:
        live = live | (r != 0)
    return live


def _mul(a, b):
    out = []
    for k in range(len(a)):
        s = a[0] * b[k]
        for i in range(1, k + 1):
            s = s + a[i] * b[k - i]
        out.append(s)
    return out


def _div(a, b):
    """a / b for b[0] != 0 at every point."""
    out = [a[0] / b[0]]
    for i in range(1, len(a)):
        s = out[0] * b[i]
        for j in range(1, i):
            s = s + out[j] * b[i - j]
        out.append((a[i] - s) / b[0])
    return out


def _exp(a):
    out = [_expf(a[0])]
    for i in range(1, len(a)):
        s = a[1] * out[i - 1]
        for j in range(2, i + 1):
            s = s + j * a[j] * out[i - j]
        out.append(s / i)
    return out


class _Taylor:
    """One evaluation of a node tree at the points `t`."""

    __slots__ = ("t", "memo")

    def __init__(self, t):
        self.t = t
        self.memo = {}

    def rows(self, node, n):
        key = (id(node), n)
        out = self.memo.get(key)
        if out is None:
            out = self.memo[key] = node.taylor(self, n)
        return out


class Bump:
    """Smooth function with tracked support, evaluable with derivatives.

    `key` is the node tree's structural key: bumps built alike from the same
    parameters compare equal, whatever their identity or construction order.
    """

    def __init__(self, node, support: Region):
        self.node = node
        self.support = support

    @property
    def key(self):
        return self.node.key

    # evaluation ---------------------------------------------------------
    def values(self, ts, order=0):
        """Taylor coefficients f^(k)(t)/k!, k = 0..order, at every point of
        `ts`: an array of shape (order + 1,) + shape(ts)."""
        if np.ndim(ts) == 0:
            return np.array(_Taylor(float(ts)).rows(self.node, order + 1))
        t = np.asarray(ts, dtype=float)
        flat = t.reshape(-1)
        out = np.empty((order + 1, flat.size))
        for k, row in enumerate(_Taylor(flat).rows(self.node, order + 1)):
            out[k] = row
        return out.reshape((order + 1,) + t.shape)

    def series(self, t, order):
        """Taylor coefficients f(t), f'(t)/1!, ..., f^(order)(t)/order!."""
        return self.values(t, order)

    # the last three points of scalar calls and their values, newest first:
    # a piece weight psi_k * w is read at up to three points in a row, one
    # per slot of the degree-3 terms that hold it (nan never matches).  The
    # tuple is replaced whole, so a reader never sees a half-written entry.
    _last = (math.nan, 0.0) * 3

    def __call__(self, t):
        if type(t) is not float:
            if not isinstance(t, (int, float)):  # np.float64 is a float
                v = self.series(t, 0)[0]
                return v if np.ndim(v) else float(v)
            t = float(t)
        a, va, b, vb, c, vc = last = self._last
        # equal floats have equal bits, except 0.0 and -0.0
        if t == a and (t or _same_sign(t, a)):
            return va
        if t == b and (t or _same_sign(t, b)):
            return vb
        if t == c and (t or _same_sign(t, c)):
            return vc
        v = self.node.value(t)
        self._last = (t, v) + last[:4]
        return v

    def __getstate__(self):
        # the memo of scalar calls stays behind: a copy starts empty
        state = dict(self.__dict__)
        state.pop("_last", None)
        return state

    def deriv(self, t, k):
        v = self.series(t, k)[k] * math.factorial(k)
        return v if np.ndim(v) else float(v)

    def derivs(self, t, order):
        s = self.series(t, order)
        scale = [math.factorial(k) for k in range(order + 1)]
        return s * np.reshape(scale, (-1,) + (1,) * (s.ndim - 1))

    # algebra ------------------------------------------------------------
    def __add__(self, other):
        other = _as_bump(other)
        return Bump(_Sum([self.node, other.node]),
                    self.support.union(other.support))

    def __mul__(self, other):
        other = _as_bump(other)
        return Bump(_Prod([self.node, other.node]),
                    self.support.intersection(other.support))

    def __rmul__(self, c):
        return Bump(_Prod([_Const(float(c)), self.node]), self.support)

    def d(self, k=1):
        """The k-th derivative as a Bump (same support)."""
        if k == 0:
            return self
        return Bump(_Deriv(self.node, k), self.support)

    def __repr__(self):
        return "Bump(supp=%r)" % (self.support,)


def _as_bump(x):
    if isinstance(x, Bump):
        return x
    raise TypeError("expected Bump")


class _Node:
    """Base of the Taylor nodes: f(t) for one float t from the order-0
    Taylor row, for a node with no `value` of its own (`_Deriv`)."""

    def value(self, t):
        return _Taylor(t).rows(self, 1)[0]


class _Const(_Node):
    def __init__(self, c):
        self.c = float(c)
        self.key = ("c", self.c)

    def taylor(self, ev, n):
        return [self.c] + [0.0] * (n - 1)

    def value(self, t):
        return self.c


class _Poly(_Node):
    """Polynomial sum c_k t^k."""

    def __init__(self, coeffs):
        self.coeffs = [float(c) for c in coeffs]
        self.key = ("p",) + tuple(self.coeffs)

    def taylor(self, ev, n):
        t = ev.t
        # row j is sum_k c_k C(k, j) t^(k-j), the polynomial shifted to t
        rows = []
        for j in range(n):
            val = 0.0
            for k in range(len(self.coeffs) - 1, j - 1, -1):
                val = val * t + self.coeffs[k] * math.comb(k, j)
            rows.append(val)
        return rows

    def value(self, t):
        val = 0.0
        for c in reversed(self.coeffs):
            val = val * t + c
        return val


class _Sum(_Node):
    def __init__(self, children):
        self.children = children
        self.key = ("+",) + tuple(ch.key for ch in children)

    def taylor(self, ev, n):
        out = ev.rows(self.children[0], n)
        for ch in self.children[1:]:
            out = [a + b for a, b in zip(out, ev.rows(ch, n))]
        return out

    def value(self, t):
        children = iter(self.children)
        val = next(children).value(t)
        for ch in children:
            val = val + ch.value(t)
        return val


class _Prod(_Node):
    def __init__(self, children):
        self.children = children
        # nested products flattened and factors sorted: f*g, g*f and
        # (f*g)*h = f*(g*h) get one key
        factors = []
        for ch in children:
            factors.extend(ch.key[1:] if ch.key[0] == "*" else [ch.key])
        self.key = ("*",) + tuple(sorted(factors))

    def taylor(self, ev, n):
        out = ev.rows(self.children[0], n)
        for ch in self.children[1:]:
            live = _nonzero(out)
            if not _any(live):
                return [0.0] * n
            out = _mul(out, ev.rows(ch, n))
            if n > 1:
                # a factor vanishing to all orders at a point zeroes the
                # product there, whatever the other factors are
                out = [_where(live, r, 0.0) for r in out]
        return out

    def value(self, t):
        children = iter(self.children)
        val = next(children).value(t)
        for ch in children:
            if val == 0:
                return 0.0
            val = val * ch.value(t)
        return val


_ZERO_DEN = "series division by zero constant term"


class _Quot(_Node):
    """Numerator/denominator; 0 where the numerator vanishes to all orders
    (the denominator is then allowed to vanish too)."""

    def __init__(self, num, den):
        self.num = num
        self.den = den
        self.key = ("/", num.key, den.key)

    def taylor(self, ev, n):
        a = ev.rows(self.num, n)
        live = _nonzero(a)
        if not _any(live):
            return [0.0] * n
        b = ev.rows(self.den, n)
        zero = b[0] == 0
        if _any(zero):
            if _any(zero & live):
                raise ZeroDivisionError(_ZERO_DEN)
            b = [_where(zero, 1.0, b[0])] + [_where(zero, 0.0, r)
                                             for r in b[1:]]
        return _div(a, b)

    def value(self, t):
        num = self.num
        a = num.value(t)
        if a == 0:
            return 0.0
        if isinstance(self.den, _Sum):
            # the sum's additions in its order, with the numerator's value
            # read in its place (a step of a window, a psi_k)
            terms = iter(self.den.children)
            ch = next(terms)
            b = a if ch is num else ch.value(t)
            for ch in terms:
                b = b + (a if ch is num else ch.value(t))
        else:
            b = self.den.value(t)
        if b == 0:
            raise ZeroDivisionError(_ZERO_DEN)
        return a / b


class _ExpInv(_Node):
    """exp(-1/g(t)) where g > 0, extended by 0 where g <= 0."""

    def __init__(self, arg):
        self.arg = arg
        self.key = ("e", arg.key)

    def taylor(self, ev, n):
        g = ev.rows(self.arg, n)
        # exp(-1/g) is 0.0 in double for 0 < g <= 1e-3 (1/g >= 1000 > 745.2),
        # so -1/g is formed only above that, where it cannot overflow
        pos = g[0] > 1e-3
        if not _any(pos):
            return [0.0] * n
        value = _where(pos, _expf(-1.0 / _where(pos, g[0], 1.0)), 0.0)
        if n == 1:
            return [value]
        # where exp(-1/g) underflows to 0 every derivative is 0 as well (the
        # series would overflow there and give inf * 0)
        pos = value > 0
        g = [_where(pos, g[0], 1.0)] + [_where(pos, r, 0.0) for r in g[1:]]
        h = [-r for r in _div([1.0] + [0.0] * (n - 1), g)]
        return [_where(pos, r, 0.0) for r in _exp(h)]

    def value(self, t):
        g = self.arg.value(t)
        return math.exp(-1.0 / g) if g > 0 else 0.0


def mollifier(center=0, radius=1):
    """exp(-1/(1 - ((t-c)/r)^2)) on (c-r, c+r)."""
    c, r = float(center), float(radius)
    # 1 - ((t-c)/r)^2 as a polynomial in t
    poly = _Poly([1 - c * c / r ** 2, 2 * c / r ** 2, -1 / r ** 2])
    return Bump(_ExpInv(poly), Region.interval(Fraction(center) - Fraction(radius),
                                               Fraction(center) + Fraction(radius)))


def _exps(a, b):
    # exp(-1/s) and exp(-1/(1-s)), s = (t-a)/(b-a), floats a < b
    w = b - a
    return (_ExpInv(_Poly([-a / w, 1.0 / w])),
            _ExpInv(_Poly([b / w, -1.0 / w])))


def _window_node(a, b, c, d):
    # up from a to b, e^(-1/s) / (e^(-1/s) + e^(-1/(1-s))), s = (t-a)/(b-a),
    # times down from c to d, e^(-1/(1-s)) / (e^(-1/(1-s)) + e^(-1/s)),
    # s = (t-c)/(d-c)
    up, up_rest = _exps(a, b)
    down_rest, down = _exps(c, d)
    return _Prod([_Quot(up, _Sum([up, up_rest])),
                  _Quot(down, _Sum([down, down_rest]))])


def window(a, b, c, d):
    """Plateau bump: 0 outside (a,d), 1 on [b,c]; a < b <= c < d."""
    node = _window_node(float(a), float(b), float(c), float(d))
    return Bump(node, Region.interval(Fraction(a).limit_denominator(10**12),
                                      Fraction(d).limit_denominator(10**12)))


class _Deriv(_Node):
    def __init__(self, child, k):
        self.child = child
        self.k = k
        self.key = ("d", k, child.key)

    def taylor(self, ev, n):
        k = self.k
        s = ev.rows(self.child, n + k)
        return [s[j + k] * math.factorial(j + k) / math.factorial(j)
                for j in range(n)]


# ---------------------------------------------------------------------------
# Partitions of unity
# ---------------------------------------------------------------------------

class CoverError(ValueError):
    pass


def partition_of_unity(cover, compact: Region):
    """Bumps psi_i with supp psi_i inside cover[i] and sum = 1 on `compact`.

    The cover must cover the closure of `compact`.
    """
    if compact.is_empty():
        return [Bump(_Const(0.0), Region.empty()) for _ in cover]
    closure = compact._ivs
    delta = _delta(cover, closure)
    half = delta / 2
    windows = []
    for V in cover:
        nodes, ivs = [], []
        for lo, hi in V._ivs:
            if hi - lo <= delta:
                continue
            a, b = lo + half, hi - half
            inner_lo, inner_hi = lo + delta, hi - delta
            if inner_lo >= inner_hi:
                inner_lo = inner_hi = (a + b) / 2
            nodes.append(_window_node(float(a), float(inner_lo),
                                      float(inner_hi), float(b)))
            ivs.append((a, b))
        windows.append(Bump(_Sum(nodes) if nodes else _Const(0.0),
                            Region.intervals(ivs)))
    # psi_k = w_k / (sum of the windows whose supports meet w_k's): on supp
    # w_k the windows left out are exactly 0.0, and off it psi_k is 0.0
    # before its denominator is read, so every value is that of w_k / (sum
    # of all windows)
    near = [{k} for k in range(len(windows))]
    for i, j in _meeting_pairs([w.support for w in windows]):
        near[i].add(j)
        near[j].add(i)
    return [Bump(_Quot(w.node, _Sum([windows[j].node for j in sorted(ks)])),
                 w.support) for w, ks in zip(windows, near)]


def _meeting_pairs(regions):
    """The pairs (i, j), i < j, of regions that meet, by one sweep over
    their intervals sorted by left end; open intervals that only touch do
    not meet."""
    ivs = sorted(((lo, hi, i) for i, R in enumerate(regions)
                  for lo, hi in R._ivs), key=lambda iv: iv[0])
    live, out = [], set()
    for lo, hi, i in ivs:
        # the intervals begun before this one still open past its left end
        live = [(h, j) for h, j in live if h > lo]
        out.update((j, i) if j < i else (i, j) for _, j in live if j != i)
        live.append((hi, i))
    return out


def _delta(cover, closure):
    """The first delta = 1/2, 1/4, ..., 1/2^39 whose shrunk cover covers the
    closed intervals `closure`, or CoverError."""
    # an end x of `closure` lies in a shrunk interval [l + delta, h - delta]
    # only if delta <= min(x - l, h - x): every delta above the least such
    # depth fails, so the search starts at the first 1/2^k below it
    depth = min(max([min(x - l, h - x) for V in cover for l, h in V._ivs
                     if l < x < h], default=0)
                for iv in closure for x in iv)
    if depth > 0:
        for k in range(max(1, (math.ceil(1 / depth) - 1).bit_length()), 40):
            d = Fraction(1, 2 ** k)
            if _shrunk_covers(cover, closure, d):
                return d
    raise CoverError("cover does not cover the closure of the compact region")


def _shrunk_covers(cover, closed_intervals, delta):
    # each closed interval must lie in one closed shrunk interval [lo+delta,
    # hi-delta] after the intervals that meet or touch are merged
    shrunk = _merge_intervals([(lo + delta, hi - delta) for V in cover
                               for lo, hi in V._ivs
                               if hi - lo > 2 * delta], closed=True)
    return all(any(a <= lo and hi <= b for a, b in shrunk)
               for lo, hi in closed_intervals)

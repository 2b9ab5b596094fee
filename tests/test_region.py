"""Regions, causal ordering, Weiss covers, and smooth compactly supported
weight functions."""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bvfact.region import (Region, not_later, is_weiss_cover, Bump,
                           mollifier, window, partition_of_unity)


class TestRegion:
    def test_union_merges_overlaps(self):
        r = Region.interval(0, 1).union(Region.interval(Fraction(1, 2), 2))
        assert r == Region.interval(0, 2)

    def test_containment(self):
        r = Region.intervals([(0, 1), (2, 3)])
        assert r.contains_point(0.5)
        assert not r.contains_point(1.5)
        assert r.contains_region(Region.interval(Fraction(1, 4),
                                                 Fraction(3, 4)))

    def test_disjoint(self):
        assert Region.interval(0, 1).disjoint_from(Region.interval(2, 3))
        assert not Region.interval(0, 1).disjoint_from(
            Region.interval(Fraction(1, 2), 2))


class TestCausalOrder:
    def test_earlier_interval(self):
        assert not_later(Region.interval(0, 1), Region.interval(2, 3))
        assert not not_later(Region.interval(2, 3), Region.interval(0, 1))

    def test_overlap_not_ordered(self):
        A = Region.interval(0, 2)
        B = Region.interval(1, 3)
        assert not not_later(A, B) and not not_later(B, A)


class TestWeissCover:
    def test_good_cover(self):
        U = Region.interval(0, 1)
        cover = [Region.interval(0, Fraction(7, 10)),
                 Region.interval(Fraction(3, 10), 1),
                 Region.intervals([(0, Fraction(2, 5)),
                                   (Fraction(3, 5), 1)])]
        assert is_weiss_cover(cover, U, k=2).ok
        assert is_weiss_cover(cover, U, k=1).ok

    def test_bad_cover_has_witness(self):
        U = Region.interval(0, 1)
        bad = [Region.interval(0, Fraction(2, 3)),
               Region.interval(Fraction(1, 3), 1)]
        rep = is_weiss_cover(bad, U, k=2)
        assert not rep.ok
        x, y = rep.witness
        # the witness pair fits in no single cover element
        for C in bad:
            assert not (C.contains_point(x) and C.contains_point(y))


class TestBump:
    def test_mollifier_support_and_positivity(self):
        w = mollifier(Fraction(1, 2), Fraction(1, 2))
        assert w.support.bounds() == (Fraction(0), Fraction(1))
        assert w(0.5) > 0
        assert w(-0.1) == 0.0 and w(1.1) == 0.0

    def test_derivative_matches_finite_difference(self):
        w = mollifier(0, 1)
        h = 1e-6
        for t in (-0.6, -0.1, 0.3, 0.8):
            fd = (w(t + h) - w(t - h)) / (2 * h)
            assert abs(w.deriv(t, 1) - fd) < 1e-6

    def test_second_derivative(self):
        w = mollifier(0, 1)
        h = 1e-4
        for t in (-0.5, 0.2):
            fd = (w(t + h) - 2 * w(t) + w(t - h)) / (h * h)
            assert abs(w.deriv(t, 2) - fd) < 1e-4

    def test_d_operator_is_derivative(self):
        w = mollifier(0, 1)
        dw = w.d(1)
        for t in (-0.4, 0.1, 0.7):
            assert abs(dw(t) - w.deriv(t, 1)) < 1e-12

    def test_algebra(self):
        a = mollifier(0, 1)
        b = mollifier(Fraction(1, 2), 1)
        s = a + b
        p = a * b
        for t in (-0.3, 0.1, 0.4):
            assert abs(s(t) - (a(t) + b(t))) < 1e-14
            assert abs(p(t) - a(t) * b(t)) < 1e-14

    def test_window_plateau(self):
        w = window(-1, Fraction(-1, 2), Fraction(1, 2), 1)
        assert w(0.0) == 1.0
        assert w(0.49) == 1.0
        assert w(-2.0) == 0.0 and w(2.0) == 0.0
        assert 0 < w(0.75) < 1

    def test_window_rising_edge_monotone(self):
        s = window(0, 1, 2, 3)
        assert s(-0.1) == 0.0 and s(1.1) == 1.0
        vals = [s(x / 10) for x in range(11)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_window_plateau_is_flat(self):
        c = window(0, 1, 200, 201)
        assert c(123.0) == 1.0 and c.deriv(5.0, 1) == 0.0


class TestPartitionOfUnity:
    # cover elements extend past the compact's closure so subordinate
    # supports fit strictly inside
    COVER = [(Fraction(-1, 10), Fraction(7, 10)),
             (Fraction(3, 10), Fraction(11, 10))]

    def test_sums_to_one_on_subject(self):
        U = Region.interval(0, 1)
        cover = [Region.interval(a, b) for a, b in self.COVER]
        parts = partition_of_unity(cover, U)
        assert len(parts) == len(cover)
        for t in (0.0, 0.35, 0.5, 0.65, 1.0):
            tot = sum(p(t) for p in parts)
            assert abs(tot - 1.0) < 1e-12

    def test_supported_in_cover_elements(self):
        U = Region.interval(0, 1)
        cover = [Region.interval(a, b) for a, b in self.COVER]
        parts = partition_of_unity(cover, U)
        for p, C in zip(parts, cover):
            assert C.contains_region(p.support)

    def test_empty_compact_set_gives_zero_bumps(self):
        cover = [Region.interval(a, b) for a, b in self.COVER]
        parts = partition_of_unity(cover, Region.empty())
        assert len(parts) == len(cover)
        for p in parts:
            assert p.support.is_empty()
            assert p(0.5) == 0.0 and p.deriv(0.5, 1) == 0.0


# ---------------------------------------------------------------------------
# Scalar calls: `value(t)` against the order-0 Taylor rows
# ---------------------------------------------------------------------------

import copy
import pickle

import numpy as np
import pytest
from hypothesis import example

from bvfact.region import _Const, _Quot, _Sum, _Taylor

_QUARTERS = st.integers(-4, 4).map(lambda k: Fraction(k, 4))
_WIDTHS = st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])


def _psis(n, lo=Fraction(0), hi=Fraction(1)):
    """The partition of unity of n overlapping intervals over [lo, hi], as
    `weiss_decompose` refines a cover."""
    step = (hi - lo) / n
    cover = [Region.interval(lo + k * step - step / 2,
                             lo + (k + 1) * step + step / 2)
             for k in range(n)]
    return partition_of_unity(cover, Region.interval(lo, hi))


@st.composite
def _leaves(draw):
    """(bump, support edges) of one bump built by `region`."""
    kind = draw(st.sampled_from(["mollifier", "step", "window", "psi-w"]))
    c, r = draw(_QUARTERS), draw(_WIDTHS)
    if kind == "mollifier":
        return mollifier(c, r), [c - r, c + r]
    if kind == "step":
        # a window whose plateau runs past every sampled point: a step up
        return window(c, c + r, c + 8, c + 9), [c, c + r]
    if kind == "window":
        return window(c - r, c - r / 2, c + r / 2, c + r), [c - r, c + r]
    n = draw(st.sampled_from([2, 8]))
    psis = _psis(n, c - r, c + r)
    psi = psis[draw(st.integers(0, n - 1))]
    # each cover element of `_psis` is one interval, so psi's support is one
    edges = list(psi.support.bounds())
    return psi * mollifier(c, r / 2), edges + [c - r / 2, c + r / 2]


def _trees(leaves):
    def grow(children):
        pair = st.tuples(children, children)
        return st.one_of(
            pair.map(lambda p: (p[0][0] * p[1][0], p[0][1] + p[1][1])),
            pair.map(lambda p: (p[0][0] + p[1][0], p[0][1] + p[1][1])),
            st.tuples(st.sampled_from([3.0, -0.5, 0.0, -0.0]), children).map(
                lambda p: (p[0] * p[1][0], p[1][1])),
            st.tuples(children, st.integers(1, 2)).map(
                lambda p: (p[0][0].d(p[1]), p[0][1])))
    return st.recursive(leaves, grow, max_leaves=4)


def _outcome(f, t):
    try:
        v = f(t)
    except ZeroDivisionError:
        return "ZeroDivisionError"
    assert type(v) is float
    return v.hex()  # tells -0.0 from 0.0


class TestScalarPath:
    @settings(max_examples=80, deadline=None)
    @given(_trees(_leaves()),
           st.lists(st.sampled_from([-0.3, -1e-3, -1e-300, 0.0, 1e-300,
                                     1e-3, 0.3]), min_size=1, max_size=4),
           st.lists(st.floats(-3, 3), max_size=6))
    # a product whose running value is -0.0 gives 0.0, not -0.0
    @example((-0.0 * mollifier(0, 1), [-1, 1]), [0.3], [])
    def test_call_matches_order0_taylor_rows(self, tree, offsets, extra):
        b, edges = tree
        pts = [float(e) + o for e in edges for o in offsets] + extra + \
            [0.0, -0.0]
        for t in pts:
            assert _outcome(b, t) == _outcome(
                lambda x: float(_Taylor(x).rows(b.node, 1)[0]), t)

    def test_vanishing_denominator_raises_on_both_paths(self):
        q = Bump(_Quot(_Const(1.0), mollifier(0, 1).node),
                 Region.interval(-2, 2))
        with pytest.raises(ZeroDivisionError):
            q(1.5)
        with pytest.raises(ZeroDivisionError):
            q.values(1.5)
        with pytest.raises(ZeroDivisionError):
            q(np.array([0.0, 1.5]))
        assert q(0.5) == q.values(0.5)[0]

    def test_result_types(self):
        m = mollifier(0, 1)
        for t in (0, 0.25, np.float64(0.25)):
            assert type(m(t)) is float
        assert m(0) == m(0.0) and m(np.float64(0.25)) == m(0.25)
        arr = m(np.array([0.0, 0.25]))
        assert isinstance(arr, np.ndarray) and arr.shape == (2,)
        assert arr[1] == m(0.25)

    def test_pickle_and_deepcopy_after_a_scalar_call(self):
        b = _psis(8)[3] * mollifier(Fraction(1, 3), Fraction(1, 4))
        v = b(0.35)
        for twin in (pickle.loads(pickle.dumps(b)), copy.deepcopy(b)):
            assert twin(0.35) == v and twin.key == b.key
            assert twin.support == b.support


class TestLocalPartitionDenominators:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_values_equal_full_denominator_quotient(self, n):
        psis = _psis(n)
        # psi_k = w_k / (local sum): its numerator is the window w_k
        total = _Sum([p.node.num for p in psis])
        ts = np.linspace(-0.25, 1.25, 20001)
        # one evaluation for every reference, so `total` is computed once;
        # the references are kept alive, since the memo is keyed by id
        ev = _Taylor(ts)
        refs = [_Quot(p.node.num, total) for p in psis]
        for p, ref in zip(psis, refs):
            want = np.empty((3, ts.size))
            for k, row in enumerate(ev.rows(ref, 3)):
                want[k] = row
            assert p.values(ts, 2).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_sums_to_one_on_the_compact_set(self, n):
        ts = np.linspace(0, 1, 20001)
        tot = sum(p.values(ts)[0] for p in _psis(n))
        assert np.all(np.abs(tot - 1.0) <= 1e-12)


# ---------------------------------------------------------------------------
# Windows: the falling edge against the reflected rising step
# ---------------------------------------------------------------------------

from unittest import mock

import bvfact.region
from bvfact.region import _ExpInv, _Node, _Poly, _Prod


class _Mirror(_Node):
    """t -> child(-t): the child's rows at -t, in an evaluation of their
    own, with the odd rows negated."""

    def __init__(self, child):
        self.child = child
        self.key = ("r", child.key)

    def taylor(self, ev, n):
        rows = _Taylor(-ev.t).rows(self.child, n)
        return [-r if k % 2 else r for k, r in enumerate(rows)]

    def value(self, t):
        return self.child.value(-t)


def _rising(a, b):
    # exp(-1/s) / (exp(-1/s) + exp(-1/(1-s))), s = (t-a)/(b-a)
    w = b - a
    num = _ExpInv(_Poly([-a / w, 1.0 / w]))
    return _Quot(num, _Sum([num, _ExpInv(_Poly([b / w, -1.0 / w]))]))


def _reflected_window_node(a, b, c, d):
    # up from a to b, times the step up from -d to -c reflected
    return _Prod([_rising(a, b), _Mirror(_rising(-d, -c))])


_ENDS = st.integers(-8, 8).map(lambda k: Fraction(k, 8))
_GAPS = st.integers(1, 8).map(lambda k: Fraction(k, 8))


@st.composite
def _plateaus(draw):
    """(bump, its reflected reference, edges): a window, a step up or down
    (a window with one edge far off), or a function of a partition of
    unity, with ends on a grid that holds 0."""
    kind = draw(st.sampled_from(["window", "step up", "step down", "psi"]))
    if kind == "psi":
        n = draw(st.sampled_from([2, 3, 8]))
        lo = draw(_ENDS)
        hi = lo + draw(_GAPS)
        k = draw(st.integers(0, n - 1))
        with mock.patch.object(bvfact.region, "_window_node",
                               _reflected_window_node):
            ref = _psis(n, lo, hi)[k]
        return _psis(n, lo, hi)[k], ref, [lo, hi]
    a = draw(_ENDS)
    b = a + draw(_GAPS)
    c = b + draw(st.sampled_from([0, Fraction(1, 8), Fraction(1, 2)]))
    d = c + draw(_GAPS)
    edges = [a, b, c, d]
    if kind == "step up":
        c, d = b + 8, b + 9
    elif kind == "step down":
        a, b = c - 9, c - 8
    got = window(a, b, c, d)
    # -float(-c) keeps the sign of a zero end through the reflection
    node = _reflected_window_node(float(a), float(b), -float(-c), -float(-d))
    return got, Bump(node, got.support), edges


class TestWindowConstruction:
    @settings(max_examples=80, deadline=None)
    @given(_plateaus(),
           st.lists(st.sampled_from([-0.3, -1e-3, -1e-300, 0.0, 1e-300,
                                     1e-3, 0.3]), min_size=1, max_size=4),
           st.lists(st.floats(-3, 3), max_size=4))
    def test_equals_the_reflected_rising_step(self, case, offsets, extra):
        got, ref, edges = case
        pts = [float(e) + o for e in edges for o in offsets] + extra + \
            [0.0, -0.0]
        ts = np.array(pts)
        assert got.values(ts, 3).tobytes() == ref.values(ts, 3).tobytes()
        for t in pts:
            assert _outcome(got, t) == _outcome(ref, t)
            assert got.values(t, 3).tobytes() == ref.values(t, 3).tobytes()
        for k in range(4):
            assert got.deriv(0.0, k).hex() == ref.deriv(0.0, k).hex()


# ---------------------------------------------------------------------------
# Partitions of unity: the sweep for meeting supports and the delta search
# ---------------------------------------------------------------------------

from bvfact.region import CoverError, _delta, _merge_intervals, _meeting_pairs

# ends on a grid of eighths, so intervals often touch or share an end
_EIGHTHS = st.integers(-16, 16).map(lambda k: Fraction(k, 8))


@st.composite
def _unions(draw, min_ivs=0, max_ivs=3):
    """A region: a union of `min_ivs` to `max_ivs` rational intervals,
    possibly touching one another."""
    ivs = []
    for _ in range(draw(st.integers(min_ivs, max_ivs))):
        lo = draw(_EIGHTHS)
        ivs.append((lo, lo + draw(st.integers(1, 12)) * Fraction(1, 8)))
    return Region.intervals(ivs)


@st.composite
def _chain_covers(draw):
    """(cover, compact): a chain of intervals across the compact set's hull,
    each overlapping the next by 0 to 3/8 and spread over a few cover
    elements.  An overlap of 0 or a chain that starts or ends on the hull
    leaves a point of the closure uncovered."""
    compact = draw(_unions(min_ivs=1, max_ivs=2))
    lo, hi = compact.bounds()
    eighth = Fraction(1, 8)
    ivs, cur = [], lo - draw(st.integers(0, 3)) * eighth
    while True:
        length = draw(st.integers(1, 8))
        end = cur + length * eighth
        ivs.append((cur, end))
        if end >= hi:
            break
        cur = end - draw(st.integers(0, min(3, length - 1))) * eighth
    parts = [[] for _ in range(draw(st.integers(1, len(ivs))))]
    for iv in ivs:
        parts[draw(st.integers(0, len(parts) - 1))].append(iv)
    return [Region.intervals(p) for p in parts], compact


def _retry_delta(cover, closure):
    """The retry loop that picked delta before, with its coverage test:
    1/2, 1/4, ... until the shrunk cover covers."""
    def shrunk_covers(delta):
        shrunk = []
        for V in cover:
            for lo, hi in V._ivs:
                if hi - lo > 2 * delta:
                    shrunk.append((lo + delta, hi - delta))
        shrunk = _merge_intervals(shrunk)
        for lo, hi in closure:
            cur = lo
            progressed = True
            while progressed:
                progressed = False
                for a, b in shrunk:
                    if a <= cur <= b and b > cur:
                        cur = b
                        progressed = True
                if cur >= hi:
                    break
            if cur < hi:
                return False
            if not any(a <= lo <= b for a, b in shrunk):
                return False
            if not any(a <= hi <= b for a, b in shrunk):
                return False
        return True

    for k in range(1, 40):
        d = Fraction(1, 2 ** k)
        if shrunk_covers(d):
            return d
    raise CoverError("cover does not cover the closure of the compact region")


def _outcome_of(fn, *args):
    try:
        return fn(*args)
    except CoverError:
        return "CoverError"


class TestPartitionSweep:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_unions(), max_size=8))
    @example([Region.interval(0, 1), Region.interval(1, 2),
              Region.intervals([(Fraction(-1), 0), (2, 3)]), Region.empty()])
    def test_meeting_pairs_equal_pairwise_intersects(self, regions):
        want = {(i, j) for i in range(len(regions))
                for j in range(i + 1, len(regions))
                if regions[i].intersects(regions[j])}
        assert _meeting_pairs(regions) == want

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_chain_covers(),
                     st.tuples(st.lists(_unions(), min_size=1, max_size=6),
                               _unions(min_ivs=1, max_ivs=2))),
           st.sampled_from([1, 3, 5, 64, 1000]))
    # (-1, 1) and (1, 3) leave the point 1 uncovered
    @example(([Region.interval(-1, 1), Region.interval(1, 3)],
              Region.interval(0, 2)), 1)
    def test_delta_equals_the_retry_loop(self, case, denom):
        cover, compact = case
        # the compact set scaled by 1/denom reaches deep deltas; `_delta`
        # reads the stored intervals, as `partition_of_unity` passes them
        closure = [(lo / denom, hi / denom) for lo, hi in compact._ivs]
        cover = [Region.intervals([(lo / denom, hi / denom)
                                   for lo, hi in V._ivs])
                 for V in cover]
        assert _outcome_of(_delta, cover, closure) == \
            _outcome_of(_retry_delta, cover, closure)

    def test_a_cover_with_a_gap_raises(self):
        cover = [Region.interval(-1, 1), Region.interval(1, 3)]
        with pytest.raises(CoverError):
            partition_of_unity(cover, Region.interval(0, 2))

    def test_32_intervals_without_limit_denominator_or_n_squared_meets(
            self, monkeypatch):
        calls = {"limit_denominator": 0, "intersects": 0}

        def counted(cls, name):
            orig = getattr(cls, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return orig(*args, **kwargs)
            monkeypatch.setattr(cls, name, wrapper)

        counted(Fraction, "limit_denominator")
        counted(Region, "intersects")
        n = 32
        assert len(_psis(n)) == n
        assert calls["limit_denominator"] == 0
        assert calls["intersects"] <= 4 * n


# ---------------------------------------------------------------------------
# Region queries from the normal form against references on the raw draws
# ---------------------------------------------------------------------------

import warnings

from bvfact.region import union_of


@st.composite
def _raw_intervals(draw):
    """Up to four intervals with ends on a grid of eighths, as drawn: they
    may overlap, touch, nest, repeat or be empty (lo >= hi)."""
    return [(draw(_EIGHTHS), draw(_EIGHTHS))
            for _ in range(draw(st.integers(0, 4)))]


# probes on a grid of sixteenths: the odd ones lie inside the cells between
# ends, the even ones are ends; a region whose ends are on the grid of
# eighths is fixed by which probes it contains
_PROBES = [Fraction(k, 16) for k in range(-34, 35)]


# References computed from the raw intervals alone.  A region is the union
# of the open intervals (a common end of two that touch is not in it), so a
# probe lies in it iff it lies in one of them.

def _ref_contains_point(ivs, x):
    return any(lo < x < hi for lo, hi in ivs)


def _ref_contains_region(ivs_a, ivs_b):
    return all(_ref_contains_point(ivs_a, x) for x in _PROBES
               if _ref_contains_point(ivs_b, x))


def _ref_intersects(ivs_a, ivs_b):
    return any(_ref_contains_point(ivs_a, x) and _ref_contains_point(ivs_b, x)
               for x in _PROBES)


def _ref_bounds(ivs):
    ivs = [(lo, hi) for lo, hi in ivs if lo < hi]
    if not ivs:
        return None
    return min(lo for lo, _ in ivs), max(hi for _, hi in ivs)


def _ref_not_later(ivs_a, ivs_b):
    a, b = _ref_bounds(ivs_a), _ref_bounds(ivs_b)
    return a is None or b is None or a[1] <= b[0]


def _ref_union_fold(regions):
    out = Region.empty()
    for R in regions:
        out = out.union(R)
    return out


def _assert_normal(R):
    ivs = R._ivs
    assert all(lo < hi for lo, hi in ivs)
    # sorted, and no two overlapping
    assert all(h1 <= l2 for (_, h1), (l2, _) in zip(ivs, ivs[1:]))


class TestNormalFormQueries:
    @settings(max_examples=400, deadline=None)
    @given(_raw_intervals(), _raw_intervals())
    @example([(0, Fraction(1, 2)), (Fraction(1, 2), 1)], [(0, 1)])
    @example([(0, 1), (2, 3)], [(0, 1), (2, 3)])
    @example([(0, 1), (2, 3)], [(Fraction(1, 2), Fraction(5, 2))])
    def test_queries_equal_the_generic_loops(self, ra, rb):
        # (region, its raw intervals): those of a union are its parts', those
        # of an intersection the pairwise intersections of its parts'
        A = (Region.intervals(ra), ra)
        B = (Region.intervals(rb), rb)
        union = (A[0].union(B[0]), ra + rb)
        meet = (A[0].intersection(B[0]),
                [(max(l1, l2), min(h1, h2)) for l1, h1 in ra for l2, h2 in rb])
        for R, r in (A, B, union, meet):
            _assert_normal(R)
            for x in _PROBES:
                assert R.contains_point(x) == _ref_contains_point(r, x)
        for x in _PROBES:
            assert meet[0].contains_point(x) == \
                (_ref_contains_point(ra, x) and _ref_contains_point(rb, x))
        # the regions from the queries share ends with A and B
        for (R, r), (S, s) in [(A, B), (B, A), (A, A), (A, union), (union, A),
                               (A, meet), (meet, B)]:
            assert R.contains_region(S) == _ref_contains_region(r, s)
            assert R.intersects(S) == _ref_intersects(r, s)
            assert R.disjoint_from(S) == (not _ref_intersects(r, s))
            assert not_later(R, S) == _ref_not_later(r, s)
            assert R.bounds() == _ref_bounds(r)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_raw_intervals(), max_size=4))
    def test_union_of_equals_a_fold_of_unions(self, raws):
        regions = [Region.intervals(r) for r in raws]
        U = union_of(regions)
        _assert_normal(U)
        assert U == _ref_union_fold(regions)
        every = [iv for r in raws for iv in r]
        assert U.bounds() == _ref_bounds(every)
        for x in _PROBES:
            assert U.contains_point(x) == _ref_contains_point(every, x)


class TestExpInvTinyArgument:
    def test_subnormal_argument_makes_no_overflow_warning(self):
        # at t = 1e-310 the step's argument t is subnormal: -1/t would
        # overflow to -inf, where exp(-1/t) is 0.0 anyway
        s = window(0, 1, 2, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            vals = s.values(np.array([1e-310, 0.5]), 1)
        assert vals[0, 0] == 0.0 and vals[1, 0] == 0.0
        assert vals[0, 1] == s(0.5) == s.values(0.5, 1)[0]
        assert vals[1, 1] == s.values(0.5, 1)[1]
        assert s(1e-310) == 0.0


# ---------------------------------------------------------------------------
# Scalar calls: the memo of the last points
# ---------------------------------------------------------------------------

from bvfact.region import _Poly


def _identity():
    # t -> t, read from coefficients (-0.0, 1.0): -0.0 at -0.0 and 0.0 at
    # 0.0, so a memo that takes one zero for the other returns the wrong sign
    return Bump(_Poly([-0.0, 1.0]), Region.interval(-1, 1)), [-1, 1]


_MEMO_POINTS = [0.0, -0.0, math.nan, 0.3, -0.3, 0.05, 1e9, -1e9, 0, 1,
                np.float64(0.3), np.float64(-0.0)]


class TestScalarMemo:
    @settings(max_examples=80, deadline=None)
    @given(_trees(st.one_of(_leaves(), st.builds(_identity))),
           st.lists(st.integers(0, len(_MEMO_POINTS) + 5), min_size=1,
                    max_size=6),
           st.lists(st.integers(0, 5), min_size=1, max_size=20))
    def test_every_call_equals_a_fresh_evaluation(self, tree, picks, order):
        b, edges = tree
        # fixed points, plus the support edges and points just inside them
        pool = _MEMO_POINTS + [float(e) + o for e in edges[:3]
                               for o in (0.0, 1e-3)]
        pts = [pool[i % len(pool)] for i in picks]
        # repeats and interleavings of a few points
        for i in order:
            t = pts[i % len(pts)]
            got = _outcome(b, t)
            assert got == _outcome(lambda x: b.node.value(float(x)), t)
            assert got == _outcome(lambda x: float(b.values(x)[0]), t)

    def test_signed_zeros_are_different_points(self):
        b, _ = _identity()
        for t in (0.0, -0.0, 0.0, -0.0, 0, np.float64(-0.0)):
            assert b(t).hex() == float(t).hex()

    def test_nan_is_evaluated_every_time(self):
        b, _ = _identity()
        calls = []
        fn = b.node.value
        b.node.value = lambda t: calls.append(t) or fn(t)
        for t in (math.nan, math.nan, 0.5, math.nan, 0.5):
            assert b(t).hex() == t.hex()
        assert len(calls) == 4

    def test_a_call_that_raises_stores_nothing(self):
        q = Bump(_Quot(_Const(1.0), mollifier(0, 1).node),
                 Region.interval(-2, 2))
        ok = q(0.5)
        for _ in range(3):
            with pytest.raises(ZeroDivisionError):
                q(1.5)
            assert q(0.5) == ok
        with pytest.raises(ZeroDivisionError):
            q(1.5)

    def test_memo_holds_three_points(self):
        b = mollifier(0, 1)
        calls = []
        fn = b.node.value
        b.node.value = lambda t: calls.append(t) or fn(t)
        for t in (0.1, 0.2, 0.3, 0.1, 0.2, 0.3, 0.4, 0.1):
            assert b(t) == fn(t)
        assert calls == [0.1, 0.2, 0.3, 0.4, 0.1]

    def test_memo_stays_out_of_pickles(self):
        b = mollifier(0, 1)
        v = b(0.25)
        assert "_last" not in pickle.loads(pickle.dumps(b)).__dict__
        assert pickle.loads(pickle.dumps(b))(0.25) == v


# ---------------------------------------------------------------------------
# Open intervals that only touch stay apart: their common end is not a point
# of the region
# ---------------------------------------------------------------------------

_HALF = Fraction(1, 2)
_SPLIT = Region.intervals([(0, _HALF), (_HALF, 1)])


class TestTouchingIntervals:
    def test_the_common_end_is_not_in_the_region(self):
        assert not _SPLIT.contains_point(_HALF)
        assert _SPLIT.contains_point(Fraction(1, 4))
        assert _SPLIT.contains_point(Fraction(3, 4))
        assert _SPLIT != Region.interval(0, 1)
        assert not _SPLIT.contains_region(Region.interval(Fraction(1, 4),
                                                          Fraction(3, 4)))
        assert _SPLIT.bounds() == (0, 1)

    def test_a_union_of_touching_regions_keeps_them_apart(self):
        R = Region.interval(0, _HALF).union(Region.interval(_HALF, 1))
        assert R == _SPLIT and not R.contains_point(_HALF)
        assert union_of([Region.interval(0, _HALF),
                         Region.interval(_HALF, 1)]) == _SPLIT

    def test_no_weiss_cover_across_the_common_end(self):
        rep = is_weiss_cover([_SPLIT], Region.interval(Fraction(1, 8),
                                                       Fraction(7, 8)), 2)
        assert not rep.ok
        assert 0.5 in rep.witness

    def test_no_partition_of_unity_across_the_common_end(self):
        with pytest.raises(CoverError):
            partition_of_unity([_SPLIT], Region.interval(Fraction(1, 8),
                                                         Fraction(7, 8)))

    def test_a_partition_of_unity_vanishes_at_the_common_end(self):
        compact = Region.intervals([(Fraction(1, 8), Fraction(3, 8)),
                                    (Fraction(5, 8), Fraction(7, 8))])
        psi, = partition_of_unity([_SPLIT], compact)
        assert _SPLIT.contains_region(psi.support)
        assert psi(0.5) == 0.0
        for t in (0.125, 0.25, 0.375, 0.625, 0.75, 0.875):
            assert abs(psi(t) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Constructors refuse a support the bump would not have
# ---------------------------------------------------------------------------

class TestConstructorsCheckTheirSupport:
    @pytest.mark.parametrize("radius", [-1, 0, Fraction(-1, 4), -0.0,
                                        float("nan")])
    def test_mollifier_needs_a_positive_radius(self, radius):
        # the formula at radius -1 is e^-1 at 0, off an empty support
        with pytest.raises(ValueError):
            mollifier(0, radius)

    @pytest.mark.parametrize("ends", [
        (1, 0, 2, 3),                   # a > b: the formula is 1 at -5
        (0, 1, 2, 2),                   # c = d: a division by zero
        (0, 0, 1, 2),                   # a = b
        (0, 2, 1, 3),                   # b > c
        (3, 2, 1, 0),
        (0, 1, 2, float("nan")),
    ])
    def test_window_needs_ordered_ends(self, ends):
        with pytest.raises(ValueError):
            window(*ends)

    def test_a_window_may_have_a_one_point_plateau(self):
        w = window(0, 1, 1, 2)
        assert w.support.bounds() == (0, 2)
        assert w(1.0) == 1.0 and w(-0.5) == 0.0 and w(2.5) == 0.0

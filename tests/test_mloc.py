"""Multilocal observables: extension, disjoint products, structure maps,
the coproduct, and Weiss-cover decomposition."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bvfact.symexpr import Expr, QI
from bvfact.jetcalc import JetExpr, jet, _density_value
from bvfact.region import Region, mollifier
from bvfact.mloc import (MultilocalObs, MLTerm, local_observable,
                         constant_observable, extend, disjoint_product,
                         structure_map, weiss_decompose, coproduct,
                         coproduct_eval, SupportError,
                         WeissDecompositionError)
from bvfact.numfields import Poly1D

U = JetExpr.of(jet("u", (), 0), 1)
U2 = U * U
FIELDS = {"u": Poly1D([0.3, 1.2, -0.7])}


def make_FG():
    w1 = mollifier(Fraction(1, 4), Fraction(1, 4))   # supp (0, 1/2)
    w2 = mollifier(Fraction(3, 4), Fraction(1, 8))   # supp (5/8, 7/8)
    return local_observable(U2, w1), local_observable(U, w2)


class TestExtension:
    def test_functorial(self):
        F, _ = make_FG()
        V = Region.interval(-1, 1)
        W = Region.interval(-2, 2)
        assert extend(extend(F, V), W) == extend(F, W)

    def test_evaluation_invariant(self):
        F, _ = make_FG()
        a = F.scalar(FIELDS)
        b = extend(F, Region.interval(-2, 2)).scalar(FIELDS)
        assert abs(a - b) < 1e-12


class TestProducts:
    def test_disjoint_product_factorizes(self):
        F, G = make_FG()
        P = disjoint_product(F, G)
        pa = P.scalar(FIELDS)
        pb = F.scalar(FIELDS) * G.scalar(FIELDS)
        assert abs(pa - pb) < 1e-10

    def test_overlapping_product_rejected(self):
        F, _ = make_FG()
        with pytest.raises(SupportError):
            disjoint_product(F, F)


class TestStructureMaps:
    def test_single_part_is_extension(self):
        F, _ = make_FG()
        W = Region.interval(-2, 2)
        S = structure_map([(F, Region.interval(0, Fraction(1, 2)))], W)
        assert S == extend(F, W)

    def test_relabeling_equivariance(self):
        F, G = make_FG()
        W = Region.interval(-2, 2)
        pf = (F, Region.interval(0, Fraction(1, 2)))
        pg = (G, Region.interval(Fraction(5, 8), Fraction(7, 8)))
        assert structure_map([pf, pg], W) == structure_map([pg, pf], W)

    def test_constant_observable(self):
        C = constant_observable(QI.of(Fraction(3)))
        assert C.support().is_empty()


class TestCoproduct:
    def test_square(self):
        assert len(coproduct(U2)) == 3

    def test_recombination_oracle(self):
        ux = JetExpr.of(jet("u", (1,), 0), 1)
        alpha = U * U * U * ux
        pairs = coproduct(alpha)
        subsL = {s: Expr.sym(jet("a", s.index, 0))
                 for s in (jet("u'", (), 0), jet("u'", (1,), 0))}
        subsR = {s: Expr.sym(jet("b", s.index, 0))
                 for s in (jet("u''", (), 0), jet("u''", (1,), 0))}
        lhs = coproduct_eval(pairs, subsL, subsR)
        split = {jet("u", (), 0): Expr.sym(jet("a", (), 0))
                 + Expr.sym(jet("b", (), 0)),
                 jet("u", (1,), 0): Expr.sym(jet("a", (1,), 0))
                 + Expr.sym(jet("b", (1,), 0))}
        direct = alpha.expr.subs(split)
        assert (lhs - direct).is_zero()


def symmetrized_kernel(obs, pts, fields):
    """Pointwise value of the permutation-symmetrized integrand of a
    homogeneous-degree observable at a tuple of points: the scalar reference
    of `MultilocalObs.kernel`."""
    import itertools
    tot = 0.0
    for t in obs.terms:
        c = t.coeff.coeffs.get((0, 0))
        c = c.constant_part().to_complex() if c is not None else 0
        if not c:
            continue
        for perm in itertools.permutations(pts):
            prod = c
            for s, w, x in zip(t.slots, t.weights, perm):
                prod *= _density_value(s, x, fields) * w(x)
            tot += prod
    return tot


GOOD_COVER = [Region.interval(0, Fraction(7, 10)),
              Region.interval(Fraction(3, 10), 1),
              Region.intervals([(0, Fraction(2, 5)), (Fraction(3, 5), 1)])]


class TestWeissDecomposition:
    def test_roundtrip_degree2(self):
        h1 = mollifier(Fraction(1, 3), Fraction(1, 4))
        h2 = mollifier(Fraction(2, 3), Fraction(1, 4))
        F = MultilocalObs([MLTerm((U2, U), (h1, h2), 1)],
                          Region.interval(0, 1))
        parts = weiss_decompose(F, GOOD_COVER)
        assert all(GOOD_COVER[j].contains_region(p.support())
                   for p, j in parts)
        rng = random.Random(11)
        for _ in range(5):
            pts = (rng.uniform(0, 1), rng.uniform(0, 1))
            ref = symmetrized_kernel(F, pts, FIELDS)
            got = sum(symmetrized_kernel(p, pts, FIELDS) for p, _ in parts)
            assert abs(got - ref) < 1e-10

    def test_roundtrip_degree3(self):
        # all unions of three of four overlapping intervals: Weiss at
        # arity 3, since any three points meet at most three intervals
        base = [(Fraction(0), Fraction(3, 10)),
                (Fraction(2, 10), Fraction(55, 100)),
                (Fraction(45, 100), Fraction(8, 10)),
                (Fraction(7, 10), Fraction(1))]
        import itertools
        cover3 = [Region.intervals(list(sub))
                  for sub in itertools.combinations(base, 3)]
        ws = [mollifier(Fraction(c, 6), Fraction(1, 8))
              for c in (1, 3, 5)]
        F = MultilocalObs([MLTerm((U, U, U2), tuple(ws), 1)],
                          Region.interval(0, 1))
        parts = weiss_decompose(F, cover3)
        rng = random.Random(12)
        for _ in range(3):
            pts = tuple(rng.uniform(0, 1) for _ in range(3))
            ref = symmetrized_kernel(F, pts, FIELDS)
            got = sum(symmetrized_kernel(p, pts, FIELDS) for p, _ in parts)
            assert abs(got - ref) < 1e-10

    def test_non_weiss_rejected_with_witness(self):
        h1 = mollifier(Fraction(1, 3), Fraction(1, 4))
        h2 = mollifier(Fraction(2, 3), Fraction(1, 4))
        F = MultilocalObs([MLTerm((U2, U), (h1, h2), 1)],
                          Region.interval(0, 1))
        bad = [Region.interval(0, Fraction(2, 3)),
               Region.interval(Fraction(1, 3), 1)]
        with pytest.raises(WeissDecompositionError) as ei:
            weiss_decompose(F, bad)
        assert ei.value.witness is not None

    def test_no_terms_is_its_own_piece(self):
        # nothing to cut: the observable is returned whole, with element 0
        F = MultilocalObs([], Region.interval(0, 1))
        assert weiss_decompose(F, GOOD_COVER) == [(F, 0)]


class TestStructuralKeys:
    def test_equal_weights_built_apart_compare_equal(self):
        def build():
            return MultilocalObs(
                [MLTerm([U, U], [mollifier(0, Fraction(1, 2)),
                                 mollifier(0, Fraction(1, 2))], 1)],
                Region.interval(-1, 1))
        a, b = build(), build()
        assert len(a.terms) == 1 and len(b.terms) == 1
        assert a == b


def _degree2(c1, r1, c2, r2):
    return MultilocalObs([MLTerm((U2, U), (mollifier(c1, r1),
                                           mollifier(c2, r2)), 1)],
                         Region.interval(0, 1))


class TestWeissPieces:
    def test_no_weight_with_empty_support(self):
        F = _degree2(Fraction(1, 3), Fraction(1, 4),
                     Fraction(2, 3), Fraction(1, 4))
        parts = weiss_decompose(F, GOOD_COVER)
        assert parts
        assert all(not w.support.is_empty()
                   for p, _ in parts for t in p.terms for w in t.weights)

    def test_piece_support_inside_its_cover_element(self):
        F = _degree2(Fraction(1, 4), Fraction(1, 5),
                     Fraction(3, 4), Fraction(1, 5))
        parts = weiss_decompose(F, GOOD_COVER)
        for p, j in parts:
            assert p.terms
            assert GOOD_COVER[j].contains_region(p.support())

    # centres in [1/4, 3/4] and radii in [1/20, 1/5], in twentieths, so
    # every closed support lies inside (0, 1); points as offsets in
    # units of each weight's radius
    @settings(max_examples=15, deadline=None)
    @given(st.integers(5, 15), st.integers(1, 4),
           st.integers(5, 15), st.integers(1, 4),
           st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
                    min_size=3, max_size=3))
    def test_pieces_reproduce_kernel(self, c1, r1, c2, r2, offsets):
        c1, r1, c2, r2 = (Fraction(v, 20) for v in (c1, r1, c2, r2))
        F = _degree2(c1, r1, c2, r2)
        parts = weiss_decompose(F, GOOD_COVER)
        for a, b in offsets:
            pts = (float(c1 + r1 * a), float(c2 + r2 * b))
            ref = symmetrized_kernel(F, pts, FIELDS)
            got = sum(symmetrized_kernel(p, pts, FIELDS) for p, _ in parts)
            assert abs(got - ref) < 1e-10


def _union_fold(regions):
    reg = Region.empty()
    for r in regions:
        reg = reg.union(r)
    return reg


class TestSupportsInOnePass:
    def test_supports_equal_a_fold_of_unions(self):
        import itertools
        base = [(Fraction(0), Fraction(3, 10)),
                (Fraction(2, 10), Fraction(55, 100)),
                (Fraction(45, 100), Fraction(8, 10)),
                (Fraction(7, 10), Fraction(1))]
        cover3 = [Region.intervals(list(sub))
                  for sub in itertools.combinations(base, 3)]
        ws = [mollifier(Fraction(c, 6), Fraction(1, 8)) for c in (1, 3, 5)]
        F = MultilocalObs([MLTerm((U, U, U2), tuple(ws), 1)],
                          Region.interval(0, 1))
        parts = weiss_decompose(F, cover3)
        assert parts
        for p, _ in [(F, None)] + parts:
            for t in p.terms:
                assert t.support() == _union_fold(w.support
                                                  for w in t.weights)
            assert p.support() == _union_fold(t.support() for t in p.terms)


class TestProductConstants:
    def test_constants_multiply_through(self):
        """Both factors carry constant parts; the product equals its hand
        expansion (F0 + F1)(G0 + G1) = F0 G0 + F0 G1 + F1 G0 + F1 G1."""
        w1 = mollifier(Fraction(1, 4), Fraction(1, 4))    # supp (0, 1/2)
        w1b = mollifier(Fraction(1, 4), Fraction(1, 8))   # supp (1/8, 3/8)
        w2 = mollifier(Fraction(3, 4), Fraction(1, 8))    # supp (5/8, 7/8)
        RF, RG = Region.interval(0, Fraction(1, 2)), Region.interval(
            Fraction(5, 8), Fraction(7, 8))
        f0, f1, f2 = QI(2), QI(1, 1), QI(Fraction(-1, 3))
        g0, g1 = QI(3, -1), QI(-1)
        F = MultilocalObs([MLTerm((), (), f0), MLTerm((U2,), (w1,), f1),
                           MLTerm((U, U), (w1, w1b), f2)], RF)
        G = MultilocalObs([MLTerm((U,), (w2,), g1), MLTerm((), (), g0)], RG)
        P = disjoint_product(F, G)
        expected = MultilocalObs([
            MLTerm((), (), f0 * g0),
            MLTerm((U,), (w2,), f0 * g1),
            MLTerm((U2,), (w1,), f1 * g0),
            MLTerm((U, U), (w1, w1b), f2 * g0),
            MLTerm((U2, U), (w1, w2), f1 * g1),
            MLTerm((U, U, U), (w1, w1b, w2), f2 * g1)], RF.union(RG))
        assert P == expected
        assert len(P.terms) == len(expected.terms)
        assert abs(P.scalar(FIELDS) - F.scalar(FIELDS) * G.scalar(FIELDS)) \
            < 1e-10


class TestWeissDecomposeErrors:
    def test_a_bug_in_the_partition_is_not_taken_for_a_bad_cover(
            self, monkeypatch):
        # only CoverError sends weiss_decompose on to a finer refinement;
        # any other error inside partition_of_unity reaches the caller
        import bvfact.region

        def broken(cover, compact):
            raise TypeError("broken partition of unity")
        monkeypatch.setattr(bvfact.region, "partition_of_unity", broken)
        F, _ = make_FG()
        with pytest.raises(TypeError, match="broken partition"):
            weiss_decompose(F, GOOD_COVER)


# ---------------------------------------------------------------------------
# Weiss pieces: each shared weight evaluated once per point, and the
# containers of the refinement found in one pass
# ---------------------------------------------------------------------------

import itertools
import pickle

from bvfact.mloc import _refinement
from bvfact.region import containers


def _cover3():
    base = [(Fraction(0), Fraction(3, 10)),
            (Fraction(2, 10), Fraction(55, 100)),
            (Fraction(45, 100), Fraction(8, 10)),
            (Fraction(7, 10), Fraction(1))]
    return [Region.intervals(list(sub))
            for sub in itertools.combinations(base, 3)]


class TestSharedWeightEvaluations:
    @pytest.mark.parametrize("case", ["degree2", "degree3"])
    def test_compiled_evaluations_equal_distinct_weight_points(self, case):
        if case == "degree2":
            F = _degree2(Fraction(1, 3), Fraction(1, 4),
                         Fraction(2, 3), Fraction(1, 4))
            cover, npts = GOOD_COVER, 3
        else:
            ws = [mollifier(Fraction(c, 6), Fraction(1, 8)) for c in (1, 3, 5)]
            F = MultilocalObs([MLTerm((U, U, U2), tuple(ws), 1)],
                              Region.interval(0, 1))
            cover, npts = _cover3(), 2
        parts = weiss_decompose(F, cover)
        weights = {id(w): w for p, _ in parts for t in p.terms
                   for w in t.weights}
        evals = []
        for w in weights.values():
            fn = w.node.value
            w.node.value = lambda t, fn=fn, w=w: (evals.append((id(w), t))
                                                  or fn(t))
        rng = random.Random(13)
        distinct = set()
        for _ in range(npts):
            pts = tuple(rng.uniform(0.1, 0.9) for _ in range(F.degrees()[-1]))
            distinct.update((i, x) for i in weights for x in pts)
            ref = symmetrized_kernel(F, pts, FIELDS)
            got = sum(symmetrized_kernel(p, pts, FIELDS) for p, _ in parts)
            assert abs(got - ref) < 1e-10
        assert len(evals) == len(distinct) and set(evals) == distinct


@st.composite
def _grid_cases(draw):
    """A hull, a refinement size n and a cover whose elements are unions of
    up to three intervals, with ends on the refinement's grid or off it."""
    lo = Fraction(draw(st.integers(-8, 8)), 8)
    hi = lo + Fraction(draw(st.integers(1, 16)), 8)
    n = draw(st.integers(4, 64))
    half = (hi - lo) / (2 * n)
    end = st.one_of(
        st.integers(-2, 2 * n + 4).map(lambda j: lo + (2 * j - 1) * half),
        st.integers(-200, 200).map(
            lambda k: lo + (hi - lo) * Fraction(k, 97)))
    ivs = st.lists(st.tuples(end, end).map(sorted), min_size=1, max_size=3)
    cover = draw(st.lists(ivs.map(Region.intervals), min_size=1, max_size=5))
    return lo, hi, n, cover


class TestContainersInOnePass:
    @settings(max_examples=200, deadline=None)
    @given(_grid_cases())
    def test_containers_equal_the_contains_region_loop(self, case):
        lo, hi, n, cover = case
        pairs = _refinement(lo, hi, n)
        step = (hi - lo) / n
        small = [Region.interval(lo + k * step - step / 2,
                                 lo + (k + 1) * step + step / 2)
                 for k in range(n)]
        assert [Region.interval(a, b) for a, b in pairs] == small
        assert containers(cover, pairs) == [
            [j for j in range(len(cover)) if cover[j].contains_region(s)]
            for s in small]


class TestJetExprHash:
    def test_hash_is_kept_and_stays_out_of_pickles(self):
        J = U2 * U + U
        h = hash(J)
        assert hash(J) == h == hash((J.dim, J.expr))
        assert J.__reduce__() == (JetExpr, (J.expr, J.dim))
        twin = pickle.loads(pickle.dumps(J))
        assert twin == J and hash(twin) == h


# ---------------------------------------------------------------------------
# The symmetrized kernel on arrays against the scalar loop
# ---------------------------------------------------------------------------

import numpy as np

from bvfact.symexpr import FormalSeries

UX = JetExpr.of(jet("u", (1,), 0), 1)
_EVEN_SLOTS = [U, U2, UX, U * UX]


def _rows(draw, weight_lists):
    """One to three rows of points: each row puts its points, in some order,
    inside the supports of one list of weights, so some term is nonzero
    there."""
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        ws = draw(st.sampled_from(weight_lists))
        row = []
        for k in draw(st.permutations(range(len(ws)))):
            lo, hi = ws[k].support.bounds()
            step = Fraction(draw(st.integers(0, 64)), 64)
            row.append(float(lo + (hi - lo) * step))
        rows.append(row)
    return rows


@st.composite
def _observables(draw, degree):
    """(F, rows): F has one or two input terms of `degree`, even slots,
    mollifier weights whose closed supports lie inside (0, 1), and a series
    coefficient with a complex order-(0, 0) part, possibly zero, and an hbar
    part."""
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        ws = [mollifier(Fraction(draw(st.integers(5, 15)), 20),
                        Fraction(draw(st.integers(1, 4)), 20))
              for _ in range(degree)]
        c00 = QI(Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))),
                 Fraction(draw(st.integers(-1, 1)), 2))
        coeff = FormalSeries({(0, 0): c00, (1, 0): draw(st.integers(-2, 2))})
        terms.append(MLTerm([draw(st.sampled_from(_EVEN_SLOTS))
                             for _ in range(degree)], ws, coeff))
    F = MultilocalObs(terms, Region.interval(0, 1))
    return F, _rows(draw, [t.weights for t in terms])


@st.composite
def _pieces(draw):
    """(piece, rows): a piece of the Weiss decomposition of the degree-1, 2
    or 3 observable of the Weiss tests above, with rows of points inside
    the supports of that observable's weights."""
    degree = draw(st.integers(1, 3))
    if degree == 3:
        ws = [mollifier(Fraction(c, 6), Fraction(1, 8)) for c in (1, 3, 5)]
        slots, cover = (U, U, U2), _cover3()
    else:
        ws = [mollifier(Fraction(1, 3), Fraction(1, 4)),
              mollifier(Fraction(2, 3), Fraction(1, 4))][:degree]
        slots, cover = (U2, U)[:degree], GOOD_COVER
    F = MultilocalObs([MLTerm(slots, ws, 1)], Region.interval(0, 1))
    parts = weiss_decompose(F, cover)
    return draw(st.sampled_from(parts))[0], _rows(draw, [ws])


def _assert_kernel_matches_reference(obs, rows):
    got = obs.kernel(np.array(rows), FIELDS)
    assert got.shape == (len(rows),)
    for g, row in zip(got, rows):
        ref = symmetrized_kernel(obs, tuple(row), FIELDS)
        assert abs(g - ref) <= 1e-12 * (1 + abs(ref))


class TestKernelOnArrays:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3).flatmap(_observables))
    def test_kernel_equals_the_scalar_loop(self, case):
        _assert_kernel_matches_reference(*case)

    @settings(max_examples=25, deadline=None)
    @given(_pieces())
    def test_pieces_kernels_equal_the_scalar_loop(self, case):
        _assert_kernel_matches_reference(*case)

    def test_a_term_of_another_degree_raises(self):
        F, _ = make_FG()
        with pytest.raises(ValueError):
            F.kernel(np.array([[0.25, 0.75]]), FIELDS)


# ---------------------------------------------------------------------------
# Branches of mloc that the scenarios do not reach
# ---------------------------------------------------------------------------

from bvfact.jetcalc import testfn as tfn

C = JetExpr.of(jet("c", (), 1), 1)
D = JetExpr.of(jet("d", (), 1), 1)


class TestGradedSlotSplit:
    def test_mixed_grade_slot_splits_into_its_components(self):
        w1 = mollifier(Fraction(1, 4), Fraction(1, 8))
        w2 = mollifier(Fraction(3, 4), Fraction(1, 8))
        whole = MultilocalObs([MLTerm((U + C, U), (w1, w2), 1)],
                              Region.interval(0, 1))
        split = MultilocalObs([MLTerm((U, U), (w1, w2), 1),
                               MLTerm((C, U), (w1, w2), 1)],
                              Region.interval(0, 1))
        assert whole == split
        assert len(whole.terms) == 4
        assert all(len(t.slots[i].expr.terms) == 1
                   for t in whole.terms for i in range(2))


class TestOddCoproduct:
    def test_recombination_with_odd_jets_and_a_test_function(self):
        # f u c d: the odd jet c'' sorts before d', so a pair pays the
        # Koszul sign of moving d' left of it; f is no jet and stays left
        f = JetExpr.of(tfn("f"), 1)
        alpha = f * U * C * D
        pairs = coproduct(alpha)
        assert len(pairs) == 8
        left = {jet("u'", (), 0): Expr.sym(jet("a", (), 0)),
                jet("c'", (), 1): Expr.sym(jet("p", (), 1)),
                jet("d'", (), 1): Expr.sym(jet("q", (), 1))}
        right = {jet("u''", (), 0): Expr.sym(jet("b", (), 0)),
                 jet("c''", (), 1): Expr.sym(jet("r", (), 1)),
                 jet("d''", (), 1): Expr.sym(jet("s", (), 1))}
        direct = alpha.expr.subs(
            {jet("u", (), 0): Expr.sym(jet("a", (), 0))
             + Expr.sym(jet("b", (), 0)),
             jet("c", (), 1): Expr.sym(jet("p", (), 1))
             + Expr.sym(jet("r", (), 1)),
             jet("d", (), 1): Expr.sym(jet("q", (), 1))
             + Expr.sym(jet("s", (), 1))})
        assert (coproduct_eval(pairs, left, right) - direct).is_zero()
        assert any(c == QI.of(-1) for _, _, c in pairs)
        assert all(tfn("f") in l.expr.symbols() for l, _, _ in pairs)


class TestSupportErrors:
    def test_extend_into_a_region_that_misses_the_source(self):
        F, _ = make_FG()
        with pytest.raises(SupportError):
            extend(F, Region.interval(Fraction(1, 4), 2))

    def test_structure_map_rejects_bad_parts(self):
        F, G = make_FG()
        W = Region.interval(-2, 2)
        pf = (F, Region.interval(0, Fraction(1, 2)))
        with pytest.raises(SupportError, match="inside the target"):
            structure_map([pf], Region.interval(0, Fraction(1, 4)))
        with pytest.raises(SupportError, match="supported in its region"):
            structure_map([(F, Region.interval(0, Fraction(1, 4)))], W)
        with pytest.raises(SupportError, match="overlap"):
            structure_map([pf, (G, Region.interval(Fraction(1, 4), 1))], W)
        with pytest.raises(ValueError, match="at least one part"):
            structure_map([], W)

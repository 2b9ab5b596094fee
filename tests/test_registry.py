"""Model registry and numeric field samples."""

import math

import pytest

from bvfact.registry import available_models, load_model
from bvfact.bvalg import (check_cme, free_scalar, gauge_fix,
                          quartic_interaction, su2_gauge_fixing_fermion,
                          su2_yang_mills)
from bvfact.numfields import Poly1D, Harmonic1D, Gaussian1D, zero_field


class TestRegistry:
    def test_available(self):
        assert available_models() == ["scalar-free", "scalar-quartic",
                                      "su2-yang-mills"]

    def test_entries_satisfy_master_equation(self):
        for name in available_models():
            m = load_model(name)
            assert check_cme(m.lagrangian).is_zero, name

    def test_gauge_fixed_variant(self):
        m = load_model("su2-yang-mills")
        assert check_cme(m.gauge_fixed()).is_zero

    def test_unknown_model(self):
        with pytest.raises(KeyError, match="scalar-free, scalar-quartic, "
                                           "su2-yang-mills"):
            load_model("no-such-model")

    def test_entries_are_the_builders_at_their_defaults(self):
        builders = {
            "scalar-free": free_scalar(),
            "scalar-quartic": free_scalar() + quartic_interaction(1),
            "su2-yang-mills": su2_yang_mills(),
        }
        for name, L in builders.items():
            got = load_model(name).lagrangian
            assert got.density == L.density, name
            assert got.content == L.content, name
            assert got.testnames == L.testnames, name
            assert got.unit_on == L.unit_on, name

    def test_gauge_fixing_fermion(self):
        assert load_model("su2-yang-mills").gauge_fixed().density == \
            gauge_fix(su2_yang_mills(), su2_gauge_fixing_fermion()).density
        for name in ("scalar-free", "scalar-quartic"):
            m = load_model(name)
            assert m.gauge_fixed() is m.lagrangian, name


class TestNumFields:
    def test_poly_jets(self):
        u = Poly1D([1.0, 2.0, 3.0])       # 1 + 2t + 3t^2
        assert u.jet(0.5, (0,)) == 1 + 1 + 0.75
        assert u.jet(0.5, (1,)) == 2 + 3.0
        assert u.jet(0.5, (2,)) == 6.0
        assert u.jet(0.5, (3,)) == 0.0

    def test_harmonic_solves_oscillator(self):
        u = Harmonic1D(a=1.0, b=0.5, w=1.3)
        for t in (-1.0, 0.0, 2.5):
            assert abs(u.jet(t, (2,)) + 1.3 ** 2 * u.jet(t, (0,))) < 1e-12

    def test_gaussian_derivative(self):
        u = Gaussian1D(1.0, 0.5, 2.0)
        h = 1e-6
        fd = (u.jet(0.3 + h, (0,)) - u.jet(0.3 - h, (0,))) / (2 * h)
        assert abs(u.jet(0.3, (1,)) - fd) < 1e-6

    def test_zero_field(self):
        z = zero_field()
        assert z.jet(1.0, (0,)) == 0.0 and z.jet(1.0, (3,)) == 0.0

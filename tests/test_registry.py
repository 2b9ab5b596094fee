"""Model registry and numeric field samples."""

import math

import pytest

from bvfact.registry import available_models, load_model
from bvfact.bvalg import check_cme
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
        with pytest.raises(KeyError):
            load_model("no-such-model")


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

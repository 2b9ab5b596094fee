"""Reference values computed apart from bvfact, with numpy only.

Nothing here imports bvfact.  The test functions are re-derived from their
formulas (README "Conventions"), and integrals use composite Gauss-Legendre
rules, which converge to rounding error on the smooth integrands below.
"""

import math

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(20)


def integrate(func, lo, hi, panels=64):
    """Composite 20-point Gauss-Legendre rule for a vectorised `func`."""
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    w = (half[:, None] * _WEIGHTS[None, :]).ravel()
    return float(np.dot(w, func(x)))


def mollifier(x, center, radius):
    """exp(-1/(1 - s^2)) for s = (x - center)/radius in (-1, 1), else 0."""
    s = (np.asarray(x, dtype=float) - center) / radius
    inside = np.abs(s) < 1
    out = np.zeros_like(s)
    out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return out


def mollifier_derivs0(center, radius):
    """(m(0), m'(0)) of the mollifier, from m' = m * (-2s/(1-s^2)^2) / r."""
    s = (0.0 - center) / radius
    if abs(s) >= 1:
        return 0.0, 0.0
    m = math.exp(-1.0 / (1.0 - s * s))
    return m, m * (-2.0 * s / (1.0 - s * s) ** 2) / radius


def _smoothstep(x, a, b):
    """0 below a, 1 above b: e(s)/(e(s) + e(1-s)), e(s) = exp(-1/s)."""
    s = (np.asarray(x, dtype=float) - a) / (b - a)
    e0 = np.where(s > 0, np.exp(-1.0 / np.where(s > 0, s, 1.0)), 0.0)
    t = 1.0 - s
    e1 = np.where(t > 0, np.exp(-1.0 / np.where(t > 0, t, 1.0)), 0.0)
    return e0 / (e0 + e1)


def standard_cutoff(x):
    """The extension cutoff chi: 1 on [-1/2, 1/2], 0 outside (-1, 1)."""
    x = np.asarray(x, dtype=float)
    return _smoothstep(x, -1.0, -0.5) * _smoothstep(-x, -1.0, -0.5)


def transforms(center, radius, omega):
    """(C, S) = (int m cos(omega t) dt, int m sin(omega t) dt)."""
    lo, hi = center - radius, center + radius
    c = integrate(lambda t: mollifier(t, center, radius) * np.cos(omega * t),
                  lo, hi)
    s = integrate(lambda t: mollifier(t, center, radius) * np.sin(omega * t),
                  lo, hi)
    return c, s


def symmetric_pairing(f, g, omega):
    """<f (x) g, cos(omega (t - s))/(2 omega)> = (Cf Cg + Sf Sg)/(2 omega);
    f and g are (center, radius) pairs."""
    cf, sf = transforms(*f, omega)
    cg, sg = transforms(*g, omega)
    return (cf * cg + sf * sg) / (2 * omega)


def pauli_jordan_pairing(f, g, omega):
    """<f (x) g, -sin(omega (t - s))/omega> = -(Sf Cg - Cf Sg)/omega."""
    cf, sf = transforms(*f, omega)
    cg, sg = transforms(*g, omega)
    return -(sf * cg - cf * sg) / omega


def wightman_pairing(f, g, omega):
    """<f (x) g, exp(-i omega (t - s))/(2 omega)>
    = (Cf - i Sf)(Cg + i Sg)/(2 omega)."""
    cf, sf = transforms(*f, omega)
    cg, sg = transforms(*g, omega)
    return complex(cf, -sf) * complex(cg, sg) / (2 * omega)


def theta_over_x_extension(center, radius):
    """int_0^R (f(x) - f(0) chi(x))/x dx, R = max(1, right end of supp f):
    the W-subtracted extension of theta(x)/x paired with the mollifier f.
    The integrand is smooth at 0, so the rule needs no special point."""
    f0 = mollifier_derivs0(center, radius)[0]
    hi = max(1.0, center + radius)

    def integrand(x):
        return (mollifier(x, center, radius) - f0 * standard_cutoff(x)) / x
    return integrate(integrand, 0.0, hi, panels=256)


def delta_weight_difference(w1, w2, center, radius):
    """sum_a (w1_a - w2_a) (-1)^a f^(a)(0) for weights at orders a = 0, 1."""
    d = mollifier_derivs0(center, radius)
    return sum((w1[a] - w2[a]) * (-1) ** a * d[a] for a in (0, 1))

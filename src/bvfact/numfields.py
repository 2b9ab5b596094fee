"""Closed-form sampled fields on the line for numeric evaluation of
functionals.

A field sample is any object with ``jet(t, mu) -> float`` returning the
derivative of order mu[0] (0 for an empty mu) at the point t.  Given an
array of points, it returns an array.
"""

from __future__ import annotations

import math

import numpy as np


def _points(t):
    """A float, or a float array for an array of points."""
    if isinstance(t, np.ndarray):
        return t.astype(float, copy=False)
    return float(t)


class Poly1D:
    """Polynomial field sum c_k t^k."""

    def __init__(self, coeffs):
        self.coeffs = [float(c) for c in coeffs]

    def jet(self, t, mu):
        k = mu[0] if mu else 0
        t = _points(t)
        out = 0 * t
        for j, c in enumerate(self.coeffs):
            if j >= k:
                out = out + c * math.perm(j, k) * t ** (j - k)
        return out


class Harmonic1D:
    """a*cos(w t) + b*sin(w t)."""

    def __init__(self, a=1.0, b=0.0, w=1.0):
        self.a, self.b, self.w = float(a), float(b), float(w)

    def jet(self, t, mu):
        k = mu[0] if mu else 0
        a, b = self.a, self.b
        for _ in range(k):
            a, b = b * self.w, -a * self.w
        t = _points(t)
        if isinstance(t, np.ndarray):
            return a * np.cos(self.w * t) + b * np.sin(self.w * t)
        return a * math.cos(self.w * t) + b * math.sin(self.w * t)


class Gaussian1D:
    """a*exp(-s(t-c)^2), derivatives via Hermite recursion."""

    def __init__(self, a=1.0, s=1.0, c=0.0):
        self.a, self.s, self.c = float(a), float(s), float(c)

    def jet(self, t, mu):
        k = mu[0] if mu else 0
        x = _points(t) - self.c
        # derivative polynomials: p_{k+1} = p_k' - 2 s x p_k
        p = [self.a]
        for _ in range(k):
            q = [0.0] * (len(p) + 1)
            for j, c in enumerate(p):
                if j >= 1:
                    q[j - 1] += j * c
                q[j + 1] += -2 * self.s * c
            p = q
        val = sum(c * x ** j for j, c in enumerate(p))
        exp = np.exp if isinstance(x, np.ndarray) else math.exp
        return val * exp(-self.s * x * x)


def zero_field():
    return Poly1D([])

"""A tensor Gauss-Legendre rule on boxes of two or three axes, cut at every
diagonal x_a = x_b: the reference for the ordered diagram evaluator of
`bvfact.freeq`, which takes no box and no cut.

Axis 0 carries n nodes.  Every inner axis's interval is cut at the value of
each outer axis, so the integrand need only be smooth off the diagonals; a
kernel k(x_a - x_b) with a kink or a jump at 0 is.  The integrand
`func(x_0, ..., x_{d-1})` is called once per node of axis 0, on arrays that
broadcast against each other.  n doubles until two successive rules agree
within max(tol, tol * |value|).
"""

import numpy as np
from numpy.polynomial.legendre import leggauss


def tensor_integrate(func, bounds, tol, n_start=16, n_max=256):
    n = n_start
    prev = _tensor(func, bounds, n)
    while 2 * n <= n_max:
        cur = _tensor(func, bounds, 2 * n)
        if abs(cur - prev) <= max(tol, tol * abs(cur)):
            return cur
        prev, n = cur, 2 * n
    raise AssertionError("the reference rule did not converge to %g: "
                         "|Q_%d - Q_%d| = %g" % (tol, n // 2, n,
                                                 abs(cur - prev)))


def _pieces(lo, hi, cuts, x, w):
    """Nodes and weights on [lo, hi] cut at each of `cuts`, arrays of one
    shape S: arrays of shape S + (n (len(cuts) + 1),)."""
    shape = cuts[0].shape
    ends = np.concatenate([np.full(shape + (1,), lo),
                           np.sort(np.clip(np.stack(cuts, -1), lo, hi), -1),
                           np.full(shape + (1,), hi)], -1)
    half = 0.5 * np.diff(ends, axis=-1)[..., None]
    mid = 0.5 * (ends[..., 1:] + ends[..., :-1])[..., None]
    return ((mid + half * x).reshape(shape + (-1,)),
            (half * w).reshape(shape + (-1,)))


def _tensor(func, bounds, n):
    x, w = leggauss(n)
    (lo, hi), d = map(float, bounds[0]), len(bounds)
    total = 0.0
    for t0, w0 in zip(0.5 * (lo + hi) + 0.5 * (hi - lo) * x,
                      0.5 * (hi - lo) * w):
        xs, ws = [np.array(t0)], [np.array(w0)]
        for lo_b, hi_b in bounds[1:]:
            shape = xs[-1].shape
            cuts = [np.broadcast_to(a.reshape(a.shape + (1,) * (len(shape)
                                                               - a.ndim)),
                                    shape) for a in xs]
            nodes, weights = _pieces(float(lo_b), float(hi_b), cuts, x, w)
            xs.append(nodes)
            ws.append(weights)
        # pad every axis's arrays with trailing unit dimensions to rank d - 1
        xs = [a.reshape(a.shape + (1,) * (d - 1 - a.ndim)) for a in xs]
        weight = 1.0
        for a in ws:
            weight = weight * a.reshape(a.shape + (1,) * (d - 1 - a.ndim))
        total = total + np.sum(func(*xs) * weight)
    return complex(total) if np.iscomplexobj(total) else float(total)

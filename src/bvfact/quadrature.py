"""Fixed-rule quadrature on boxes, for smooth integrands with known kinks.

This is the one integrator of the package: it serves the `freeq` pairings
and diagrams, the `egren` pairings, `jetcalc.evaluate_local` and the CLI.
A box is a list of (lo, hi) pairs, one per axis; the callers take each from
the hull of a bump's support (`Region.bounds()`, one pair), so a one-axis
box over it is [hull].  `egren` cuts its intervals at 0 and at the edges of
supp f, and on the pieces that touch 0 integrates a kernel of degree k/q in
s = |x|^(1/q), where the endpoint singularity x^(k/q) becomes smooth.

An integral over the box prod_l [lo_l, hi_l] is taken with an n-point
Gauss-Legendre rule on every axis (a tensor rule).  n doubles until two
successive rules agree,

    |Q_n - Q_2n| <= max(tol, tol * |Q_2n|),

and Q_2n is returned.  A rule that would exceed the node cap raises
`QuadratureError` instead; an unconverged value is never returned.

The integrand `func(x_0, ..., x_{d-1})` is called on arrays shaped to
broadcast against each other: x_l has l + 1 dimensions, its last one running
over axis l's nodes, and its leading ones over the outer axes' nodes (they
are 1 where axis l's nodes do not depend on them).  So a factor that depends
on x_0 alone is computed once per x_0 node.  Complex integrands are summed in
one pass.

A kink (a, b) says that the integrand is not smooth across the diagonal
x_a = x_b (a kernel in x_b - x_a with a kink at 0).  With a < b, axis b's
interval is then cut at x_a for every node of the outer axes, and the rule
runs on each piece.  Integrating out an inner axis that is kinked against
two outer axes leaves a (two-sided) kink between those two, so the cuts are
closed under that rule.  A one-sided kink (a, b, +1) says moreover that the
integrand is 0 where x_b > x_a, and (a, b, -1) where x_b < x_a (a retarded
or advanced kernel): axis b's interval then ends (starts) at x_a, and the
box is first trimmed to where that leaves something, 0.0 if nowhere.  A kink
whose diagonal misses the interior of the trimmed box is dropped: its cut
would sit at an end of the interval at every node.

Outer nodes are processed in chunks, so memory stays bounded whatever the
number of points.
"""

import numpy as np


class QuadratureError(RuntimeError):
    """A numeric integral that did not converge to its tolerance.

    `estimate` is the last value computed, `error` the last difference
    |Q_n - Q_2n| and `nodes` the n of the larger rule.
    """

    def __init__(self, message, estimate=None, error=None, nodes=None):
        super().__init__(message)
        self.estimate = estimate
        self.error = error
        self.nodes = nodes


N_START = 32           # nodes per axis and piece of the first rule
N_MAX = 1024           # cap on the nodes per axis and piece
MAX_POINTS = 1 << 24   # cap on the integrand points of one rule
CHUNK_POINTS = 1 << 13  # integrand points evaluated at once

_RULES = {}


def _rule(n):
    """Gauss-Legendre nodes and weights on [-1, 1], in increasing order.

    The nodes are the roots of P_n, found by Newton's method from the
    asymptotic guesses cos(pi (k - 1/4) / (n + 1/2)); the three-term
    recurrence needs O(n) memory, where an eigenvalue solve needs O(n^2).
    """
    rule = _RULES.get(n)
    if rule is None:
        x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
        for _ in range(10):
            p, dp = _legendre(n, x)
            dx = p / dp
            x = x - dx
            if np.max(np.abs(dx)) < 1e-15:
                break
        _, dp = _legendre(n, x)
        w = 2 / ((1 - x) * (1 + x) * dp * dp)
        rule = (x[::-1].copy(), w[::-1].copy())
        for a in rule:
            a.flags.writeable = False
        _RULES[n] = rule
    return rule


def _legendre(n, x):
    """P_n(x) and P_n'(x)."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / ((x - 1) * (x + 1))


def integrate(func, bounds, tol=1e-10, kinks=()):
    """Integral of `func` over the box `bounds`, a list of (lo, hi) pairs,
    one per axis, with `kinks` (a, b) or (a, b, side) as in the module
    docstring.

    Returns a float for a real integrand and a complex for a complex one.
    Raises `QuadratureError` when the rules reach the node cap before two
    successive results agree within max(tol, tol * |value|).
    """
    bounds, cuts = _cuts([(float(lo), float(hi)) for lo, hi in bounds], kinks)
    if bounds is None:
        return 0.0
    pieces = 1
    for c in cuts:
        pieces *= len(c[0]) + 1
    n = N_START
    prev = _apply(func, bounds, cuts, n)
    err = None
    while 2 * n <= N_MAX and pieces * (2 * n) ** len(bounds) <= MAX_POINTS:
        cur = _apply(func, bounds, cuts, 2 * n)
        err = abs(cur - prev)
        if err <= max(tol, tol * abs(cur)):
            return cur
        prev, n = cur, 2 * n
    raise QuadratureError(
        "quadrature did not converge to tol %.3g: |Q_%d - Q_%d| = %s at the "
        "node cap" % (tol, n // 2, n, "?" if err is None else "%.3g" % err),
        estimate=prev, error=err, nodes=n)


def _cuts(bounds, kinks):
    """The box trimmed by the one-sided kinks, and per axis b three lists of
    outer axes a: at x_a its interval is cut, ends and starts.  (None, None)
    when the trimmed box is empty."""
    # (a, b, side) with a < b, side 0 for a two-sided kink
    norm = {(min(a, b), max(a, b), (s[0] if s else 0) * (1 if a < b else -1))
            for a, b, *s in kinks if a != b}
    lo, hi = map(list, zip(*bounds))
    for _ in bounds:  # trim to x_b <= x_a for side +1, x_a <= x_b for -1
        for p, q in [(b, a) if s > 0 else (a, b) for a, b, s in norm if s]:
            lo[q], hi[p] = max(lo[q], lo[p]), min(hi[p], hi[q])
    if any(l >= h for l, h in zip(lo, hi)):
        return None, None

    def meets(a, b):  # the diagonal x_a = x_b crosses the box interior
        return lo[a] < hi[b] and lo[b] < hi[a]
    norm = {k for k in norm if meets(k[0], k[1])}
    sided = {k[:2] for k in norm if k[2]}
    for b in range(len(bounds) - 1, 0, -1):
        outer = sorted({a for a, c, _ in norm if c == b})
        norm.update((x, y, 0) for i, x in enumerate(outer)
                    for y in outer[i + 1:] if meets(x, y))
    cuts = [([], [], []) for _ in bounds]
    for a, b, side in sorted(norm):
        if side or (a, b) not in sided:
            cuts[b][side].append(a)  # side -1 indexes the last list
    return list(zip(lo, hi)), cuts


def _apply(func, bounds, cuts, n):
    x, w = _rule(n)
    d = len(bounds)
    lo, hi = bounds[0]
    half = 0.5 * (hi - lo)
    x0 = 0.5 * (lo + hi) + half * x
    w0 = half * w
    inner = 1
    for c in cuts[1:]:
        inner *= n * (len(c[0]) + 1)
    step = max(1, CHUNK_POINTS // inner)
    total = 0.0
    for start in range(0, n, step):
        xs = [x0[start:start + step]]
        ws = [w0[start:start + step]]
        for axis in range(1, d):
            nodes, weights = _axis(bounds[axis], [[xs[a] for a in c]
                                                  for c in cuts[axis]],
                                   axis, x, w)
            xs.append(nodes)
            ws.append(weights)
        # pad every axis's arrays with trailing unit dimensions to rank d
        xs = [a.reshape(a.shape + (1,) * (d - 1 - l))
              for l, a in enumerate(xs)]
        weight = ws[0].reshape(ws[0].shape + (1,) * (d - 1))
        for l in range(1, d):
            weight = weight * ws[l].reshape(ws[l].shape + (1,) * (d - 1 - l))
        total = total + np.sum(func(*xs) * weight)
    if np.iscomplexobj(total):
        return complex(total)
    return float(total)


def _axis(bound, outer, axis, x, w):
    """Nodes and weights of one inner axis at the outer nodes `outer` (lists
    of arrays of rank <= axis at which its interval is cut, ends and starts,
    as from `_cuts`): arrays of rank axis + 1."""
    lo, hi = bound
    cut, above, below = outer
    ends = [a.reshape(a.shape + (1,) * (axis - a.ndim))
            for a in cut + above + below]
    if not ends:
        half = 0.5 * (hi - lo)
        shape = (1,) * axis + (-1,)
        return ((0.5 * (lo + hi) + half * x).reshape(shape),
                (half * w).reshape(shape))
    # one column per outer array, one row per outer point
    ends = np.stack(np.broadcast_arrays(*ends), axis=-1)
    k, m = len(cut), len(cut) + len(above)
    start = np.max(ends[..., m:], axis=-1, keepdims=True, initial=lo)
    end = np.min(ends[..., k:m], axis=-1, keepdims=True, initial=hi)
    end = np.maximum(end, start)
    ends = np.concatenate([start, np.sort(np.clip(ends[..., :k], start, end),
                                          axis=-1), end], axis=-1)
    half = 0.5 * np.diff(ends, axis=-1)[..., None]
    mid = 0.5 * (ends[..., 1:] + ends[..., :-1])[..., None]
    shape = ends.shape[:-1] + (-1,)
    return (mid + half * x).reshape(shape), (half * w).reshape(shape)

"""Fixed-rule Gauss-Legendre quadrature on one axis, and cumulative integrals
on a composite grid: the one integrator of the package.

`integrate(func, (lo, hi), tol)` calls `func` on one array of nodes, for
`egren` (which integrates a kernel of degree k/q in s = |x|^(1/q) on the
pieces that touch 0), `jetcalc.evaluate_local`, the CLI and the one-vertex
integrals of `freeq`.  A `Grid` puts an n-point rule on each of its panels
and serves `freeq`'s nested integrals over vertex time orderings: at every
node t it gives F(t), the integral over the panels up to t, from the values
at the nodes.  On a panel F is the earlier panels' integral plus the
half-width times S f, with S the Legendre integration matrix, S[j, m] =
int_{-1}^{x_j} l_m for the Lagrange basis l_m of the nodes (Greengard, SIAM
J. Numer. Anal. 28 (1991) 1071-1080): exact for a polynomial of degree < n.

Both run one doubling loop, `converge`: n doubles from `N_START` until

    |Q_n - Q_2n| <= max(tol, tol * |Q_2n|),

and Q_2n is returned; where 2n would pass `N_MAX`, `QuadratureError` is
raised instead, so an unconverged value is never returned.
"""

import numpy as np


class QuadratureError(RuntimeError):
    """A numeric integral that did not converge to its tolerance: `estimate`
    is the last value, `error` the last |Q_n - Q_2n| and `nodes` the n of
    the larger rule."""

    def __init__(self, message, estimate=None, error=None, nodes=None):
        super().__init__(message)
        self.estimate = estimate
        self.error = error
        self.nodes = nodes


N_START = 32   # nodes of the first rule, per panel of a grid
N_MAX = 1024   # cap on the nodes per panel

_RULES = {}
_MATRICES = {}


def _rule(n):
    """Gauss-Legendre nodes and weights on [-1, 1], in increasing order: the
    roots of P_n by Newton's method from cos(pi (k - 1/4) / (n + 1/2))."""
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
    """P_n(x) and P_n'(x), in O(n) memory."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / ((x - 1) * (x + 1))


def _integration_matrix(n):
    """S transposed, then the weights (the integral to x = 1) as a last
    column, once per n: l_m = sum_k (k + 1/2) w_m P_k(x_m) P_k, and
    int_{-1}^x P_k = (P_{k+1} - P_{k-1})(x) / (2k + 1), x + 1 for k = 0."""
    st = _MATRICES.get(n)
    if st is None:
        x, w = _rule(n)
        x1 = np.append(x, 1.0)
        p = np.empty((n + 1, n + 1))  # p[k, j] = P_k(x1_j)
        p[0], p[1] = 1.0, x1
        for k in range(2, n + 1):
            p[k] = ((2 * k - 1) * x1 * p[k - 1] - (k - 1) * p[k - 2]) / k
        q = np.empty((n, n + 1))  # q[k, j] = (k + 1/2) int_{-1}^{x1_j} P_k
        q[0], q[1:] = x1 + 1, p[2:]
        q[1:] -= p[:-2]
        q *= 0.5
        p[:n, :n] *= w  # in place, for the peak memory: p is spent
        st = np.einsum("km,kj->mj", p[:n, :n], q)
        st.flags.writeable = False
        _MATRICES[n] = st
    return st


def converge(rule, tol):
    """Q_2n of the first rules Q_n = `rule(n)` and Q_2n that agree within
    max(tol, tol * |Q_2n|); `QuadratureError` at the node cap."""
    n = N_START
    prev = rule(n)
    err = None
    while 2 * n <= N_MAX:
        cur = rule(2 * n)
        err = abs(cur - prev)
        if err <= max(tol, tol * abs(cur)):
            return cur
        prev, n = cur, 2 * n
    raise QuadratureError(
        "quadrature did not converge to tol %.3g: |Q_%d - Q_%d| = %s at the "
        "node cap" % (tol, n // 2, n, "?" if err is None else "%.3g" % err),
        estimate=prev, error=err, nodes=n)


def integrate(func, bounds, tol=1e-10):
    """Integral of `func` over the interval `bounds` = (lo, hi), a float for
    a real integrand and a complex for a complex one."""
    lo, hi = float(bounds[0]), float(bounds[1])
    half = 0.5 * (hi - lo)

    def rule(n):
        x, w = _rule(n)
        return _scalar(np.sum(func(0.5 * (lo + hi) + half * x) * (half * w)))
    return converge(rule, tol)


def _scalar(v):
    return complex(v) if np.iscomplexobj(v) else float(v)


class Grid:
    """An n-point Gauss-Legendre rule on each panel, the panels (a, b) in
    increasing order; `nodes` run over the panels in turn."""

    def __init__(self, panels, n):
        ends = np.array(panels, dtype=float)
        x, w = _rule(n)
        self.n = n
        self._half = 0.5 * (ends[:, 1] - ends[:, 0])
        mid = 0.5 * (ends[:, 1] + ends[:, 0])
        self.nodes = (mid[:, None] + self._half[:, None] * x).ravel()
        self.weights = (self._half[:, None] * w).ravel()

    def integral(self, values):
        """The integral over the panels, from the values at the nodes."""
        return _scalar(np.sum(values * self.weights))

    def cumulative(self, values):
        """F(t) = int over the panels up to t, at every node t (last axis),
        from the values at the nodes."""
        if values.dtype.kind == "c":
            re, im = self.cumulative(np.stack([values.real, values.imag]))
            return re + 1j * im
        v = values.reshape(values.shape[:-1] + (-1, self.n))
        # einsum, not BLAS: the products are small, and BLAS's first call
        # costs more memory than a whole evaluation
        out = np.einsum("...pm,mj->...pj", v, _integration_matrix(self.n))
        out *= self._half[:, None]
        whole = out[..., -1]
        before = np.cumsum(whole, axis=-1) - whole
        return (out[..., :-1] + before[..., None]).reshape(values.shape)

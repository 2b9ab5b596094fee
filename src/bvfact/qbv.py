"""Quantum BV layer on the 1-d oscillator: the interacting BV operator, the
Delta_0 contraction and its Leibniz behaviour, the quantum master equation
residual, and the anomalous-master-Ward-identity defect measurement.

Observables and interaction vertices are DiagramPoly objects over the free
model; couplings enter through the second slot of the (hbar, lambda) formal
series.  This 1-d scalar model is anomaly-free: the AMWI defect is measured,
not postulated, and the measurement doubles as the null test.
"""

from fractions import Fraction

from .symexpr import FormalSeries, I
from .region import Region, Bump, window
from .freeq import (OscillatorModel, DiagramPoly, field_obs, shat0,
                    delta_s0, bv_laplacian, tmap, tmap_inv, max_abs,
                    _mixed_states, _delta_contract)
from .jetcalc import is_total_divergence
from .bvalg import (GenLagrangian, antibracket_density, half_self_bracket,
                    reduce_cutoff, AF_SUFFIX)


class QMEError(Exception):
    """Quantum master equation violated at the working order."""


# ---------------------------------------------------------------------------
# Interaction vertices and cutoffs
# ---------------------------------------------------------------------------

def interaction_vertex(f: Bump, power=4, orders=(3, 2)) -> DiagramPoly:
    """V = lambda * int f(t) u(t)^power dt as a diagram."""
    lam = FormalSeries({(0, 1): Fraction(1)}, orders)
    return field_obs(f, power=power, orders=orders).scale(lam)


def plateau_cutoff(region: Region) -> Bump:
    """A cutoff equal to 1 on the closure of `region` and supported within
    1/4 of its hull: the convention f == 1 on supp(F)."""
    b = region.bounds()
    if b is None:
        raise ValueError("empty region has no plateau cutoff")
    lo, hi = b
    margin = Fraction(1, 4)
    return window(lo - margin, lo, hi, hi + margin)


# ---------------------------------------------------------------------------
# Diagram-level antibracket
# ---------------------------------------------------------------------------

def diagram_antibracket(A: DiagramPoly, B: DiagramPoly) -> DiagramPoly:
    """{A, B}: a delta-contraction of one u leg of A with one antifield leg
    of B, minus (graded) one antifield leg of A with one u leg of B."""
    out = DiagramPoly(orders=A.orders)
    for n1, verts, edges, _, coeff in _mixed_states(A, B):
        for i in range(n1):
            for j in range(n1, len(verts)):
                for iu, ia, pref in ((i, j, 1), (j, i, -1)):
                    term = _delta_contract(verts, edges, iu, ia)
                    if term:
                        out._add(term[0], coeff * Fraction(pref * term[1]))
    return out


# ---------------------------------------------------------------------------
# Interacting BV operator
# ---------------------------------------------------------------------------

def interacting_bv(F: DiagramPoly, V: DiagramPoly = None,
                   check=True) -> DiagramPoly:
    """s(F) = {S0 + V, F} - i hbar Laplacian(F), the local closed form of
    the interacting quantum BV operator; V = None means the free theory.

    The conjugation definition agrees with this closed form exactly when the
    quantum master equation holds, which for this anomaly-free model it does;
    `check` verifies the QME residual of V before applying the operator.
    """
    if V is not None and check:
        rep = check_qme_vertex(V)
        if not rep["ok"]:
            raise QMEError("QME residual %r above tolerance" % (rep,))
    out = shat0(F)
    if V is not None:
        out = out + diagram_antibracket(V, F)
    return out


def check_qme_vertex(V: DiagramPoly, fake_anomaly=None):
    """QME residual for S0 + V at the diagram level:
    (1/2){V, V} + {S0, V} - i hbar Laplacian(V) (+ an injected fake anomaly),
    reported per (hbar, lambda) order."""
    ih = FormalSeries({(1, 0): I}, V.orders)
    resid = (diagram_antibracket(V, V).scale(Fraction(1, 2)) +
             delta_s0(V) - bv_laplacian(V).scale(ih))
    if fake_anomaly is not None:
        resid = resid + fake_anomaly
    orders = {}
    for d, c in resid.terms.values():
        for pq in c.coeffs:
            orders.setdefault(pq, 0)
            orders[pq] += 1
    return {"ok": resid.is_zero(), "residual": resid,
            "orders_with_terms": sorted(orders)}


# ---------------------------------------------------------------------------
# Delta_0
# ---------------------------------------------------------------------------

def delta0(factors) -> DiagramPoly:
    """Delta_0 applied to a product of observables: the second-derivative
    field/antifield contraction of the product diagram.

    On pairwise-disjoint supports every cross contraction carries an empty
    merged weight, so the result reduces to the Leibniz sum
    sum_j +- F_1 ... Delta_0(F_j) ... F_n.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    prod = factors[0]
    for f in factors[1:]:
        prod = prod * f
    return bv_laplacian(prod)


# ---------------------------------------------------------------------------
# QME at the Lagrangian level
# ---------------------------------------------------------------------------

def check_qme(L0: GenLagrangian, LI: GenLagrangian = None, orders=(3, 2),
              fake_anomaly=None):
    """Quantum master equation residual for L(f) = L0(f) + lambda LI(f):
    per lambda order the classical bracket densities (tested exactly modulo
    total divergences after cutoff reduction; L0 and LI are even, and their
    self-brackets come from `half_self_bracket`), plus the hbar-linear anomaly
    term, which for interactions without antifield legs vanishes identically.

    `fake_anomaly` injects a nonzero defect into the hbar*lambda slot to
    exercise the reporting path.
    """
    report = {"orders": {}, "ok": True}

    def bracket_ok(a, b):
        # (1/2){a, a} for a self-bracket, {a, b} for the cross term
        if a is b:
            br = half_self_bracket(L0.content, a.density)
        else:
            br = antibracket_density(L0.content, a.density, b.density)
        names = set(a.testnames) | set(b.testnames)
        red = reduce_cutoff(br, names)
        return is_total_divergence(red)

    report["orders"][(0, 0)] = bool(bracket_ok(L0, L0))
    if LI is not None:
        report["orders"][(0, 1)] = bool(bracket_ok(L0, LI))
        report["orders"][(0, 2)] = bool(bracket_ok(LI, LI))
        # -i hbar Laplacian(lambda LI): one field and one antifield leg at a
        # coincident point; absent antifield dependence it vanishes.
        has_af = any(s.ns == "jet" and s.name.endswith(AF_SUFFIX)
                     for mono, _ in LI.density.expr.terms.items()
                     for s, _ in mono)
        report["orders"][(1, 1)] = not has_af
    if fake_anomaly is not None:
        report["orders"][(1, 1)] = False
        report["fake_anomaly"] = fake_anomaly
    report["ok"] = all(report["orders"].values())
    return report


# ---------------------------------------------------------------------------
# Anomalous master Ward identity
# ---------------------------------------------------------------------------

class AnomalyTerm:
    """Measured AMWI defect: per-order diagram data A_n with the contract
    that A_n is of hbar-order >= n-1 and diagonal-supported."""

    def __init__(self, defect: DiagramPoly, order_n: int):
        self.defect = defect
        self.order_n = order_n

    def hbar_bound_ok(self) -> bool:
        floor_ = self.order_n - 1
        for _, c in self.defect.terms.values():
            for (p, _q) in c.coeffs:
                if p < floor_:
                    return False
        return True

    def diagonal_dev(self, model, fields, tol=1e-8) -> float:
        """Largest pairing of the defect against off-diagonal field data."""
        return max_abs(self.defect, model, fields, tol)


def amwi_check(F: DiagramPoly, V: DiagramPoly = None, model=None,
               fields=None, tol=1e-8):
    """Evaluate both sides of the master Ward identity for F (with optional
    interaction V at first order): the conjugated differential against the
    closed form.  Their difference is the measured anomaly A_F; the report
    records whether it vanishes symbolically, its hbar-order floor, and the
    off-diagonal pairing deviation.
    """
    model = model or OscillatorModel(1, F.orders)
    lhs = tmap_inv(delta_s0(tmap(F)))
    if V is not None:
        lhs = lhs + diagram_antibracket(V, F)
    rhs = interacting_bv(F, V, check=False)
    defect = lhs - rhs
    anomaly = AnomalyTerm(defect, order_n=2)
    report = {
        "defect_zero": defect.is_zero(),
        "hbar_bound_ok": anomaly.hbar_bound_ok(),
    }
    if fields:
        report["offdiag_dev"] = anomaly.diagonal_dev(model, fields, tol)
        report["ok"] = report["defect_zero"] or report["offdiag_dev"] <= tol
    else:
        report["ok"] = report["defect_zero"]
    return anomaly, report

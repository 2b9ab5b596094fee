"""The su(2) gauge model: master equation and gauge fixing.

The extended action packs the gauge field, ghosts, antighosts, the auxiliary
field, and all their antifield partners into one graded density.  The
classical master equation {S, S} = 0 encodes gauge invariance; canonically
transforming by a gauge-fixing fermion produces a normally hyperbolic
(Feynman-gauge) action with the same bracket structure.
"""

from bvfact.bvalg import (su2_yang_mills, su2_gauge_fixing_fermion,
                          gauge_fix, check_cme, eliminate_b)

L = su2_yang_mills()
print("extended action: %d monomials" % len(L.density.expr.terms))

rep = check_cme(L)
print("classical master equation residual zero:", rep.is_zero)

Psi = su2_gauge_fixing_fermion()
print("gauge-fixing fermion grade:", Psi.grade())

Lgf = gauge_fix(L, Psi)
print("gauge-fixed action: %d monomials" % len(Lgf.density.expr.terms))
print("gauge-fixed master equation residual zero:", check_cme(Lgf).is_zero)

Lb = eliminate_b(Lgf)
print("after eliminating the auxiliary field: %d monomials"
      % len(Lb.density.expr.terms))

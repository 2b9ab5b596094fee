"""Named models: one table from each name to its `bvalg` builder and, for a
gauge theory, its gauge-fixing fermion, each at the builder's defaults."""

from . import bvalg


class ModelEntry:
    def __init__(self, name, lagrangian, gauge_fixing=None):
        self.name = name
        self.lagrangian = lagrangian          # GenLagrangian
        self.gauge_fixing = gauge_fixing      # GenLagrangian or None

    def gauge_fixed(self):
        if self.gauge_fixing is None:
            return self.lagrangian
        return bvalg.gauge_fix(self.lagrangian, self.gauge_fixing)

    def __repr__(self):
        return "ModelEntry(%r, dim=%d)" % (self.name, self.lagrangian.dim)


# name -> (Lagrangian builder, gauge-fixing fermion builder or None)
_MODELS = {
    "scalar-free": (bvalg.free_scalar, None),
    "scalar-quartic": (lambda: bvalg.free_scalar() +
                       bvalg.quartic_interaction(1), None),
    "su2-yang-mills": (bvalg.su2_yang_mills, bvalg.su2_gauge_fixing_fermion),
}


def load_model(name: str) -> ModelEntry:
    """The model of a registry name; KeyError names the available ones."""
    if name not in _MODELS:
        raise KeyError("unknown model %r; available: %s"
                       % (name, ", ".join(available_models())))
    lagrangian, fermion = _MODELS[name]
    return ModelEntry(name, lagrangian(), fermion() if fermion else None)


def available_models():
    return sorted(_MODELS)

"""Energy-harvesting laws: the per-element harvest of an incident power."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EhModel:
    """Linear or nonlinear (saturating rational) harvesting law.

    For the nonlinear law the per-element harvested power is (a*p + b)/(p + c)
    - b/c = (a - b/c)*p/(p + c), zero at p=0 and saturating at a - b/c.
    """

    kind: str = "linear"
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0

    def __post_init__(self):
        if self.kind not in ("linear", "nonlinear"):
            raise ValueError(f"unknown EH model kind {self.kind!r}")
        if self.kind == "nonlinear":
            # NaN fails too; an infinite constant would make the saturation
            # a - b/c or the energy fit's offset infinite or NaN
            finite = all(0 < x < np.inf for x in (self.a, self.b, self.c))
            if not (finite and self.a * self.c > self.b):
                raise ValueError(
                    "nonlinear EH requires finite a > b/c > 0 and c > 0 "
                    f"(got a={self.a}, b={self.b}, c={self.c})"
                )


# circuit constants of the measured rectifier used throughout the experiments
NONLINEAR_DEFAULT = EhModel(kind="nonlinear", a=2.463, b=1.635, c=0.826)


def harvest_rate(model: EhModel, incident_power):
    """Harvested power per element for given incident power (vectorized)."""
    p = np.asarray(incident_power, dtype=float)
    # NaN fails this too; an infinite power would give a NaN nonlinear harvest
    if not (p.min(initial=0.0) >= 0 and p.max(initial=0.0) < np.inf):
        raise ValueError("incident powers must be nonnegative, finite and not NaN")
    if model.kind == "linear":
        return p
    return (model.a - model.b / model.c) * (p / (p + model.c))


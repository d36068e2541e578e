"""Which noise sources survive in the large-sample limit, and at what rate.

A schedule picks polynomial rates in n for the step size (h = c_h n^-frak_h),
batch size (b = c_b n^frak_b), and inverse temperature (beta = c_beta
n^frak_t).  The scaling law decides the local rescaling exponent and which of
the two noise sources (minibatch resampling, injected Gaussian) still matters
in the limit; one unit of limit time is always n^frak_h iterations.  Run:

    python3 demos/01_scaling_regimes.py
"""

import math

from sgalab import theory
from sgalab.errors import RegimeError
from sgalab.tuning import TuningConfig

SCHEDULES = [
    ("unit-work SGD", dict(frak_h=1.0, c_h=4.0)),
    ("unit-work SGLD", dict(frak_h=1.0, c_h=2.0, frak_t=1.0, c_beta=2.0)),
    ("growing batches", dict(frak_h=0.5, c_h=1.0, frak_b=0.5, c_b=2.0)),
    ("cold SGLD", dict(frak_h=1.0, c_h=1.0, frak_t=0.5, c_beta=1.0)),
    ("hot SGLD", dict(frak_h=1.0, c_h=1.0, frak_t=1.5, c_beta=1.0)),
    ("anchored (control variates)",
     dict(frak_h=1.0, c_h=4.0, frak_t=1.0, c_beta=1.0,
          variant="control_variate")),
]

print(f"{'schedule':<28}{'rescale':>9}{'minibatch':>11}{'gaussian':>10}")
for name, kw in SCHEDULES:
    law = theory.scaling_law(TuningConfig(**kw))
    print(f"{name:<28}{law.local_exponent:>9.3g}"
          f"{str(law.minibatch_active):>11}{str(law.gaussian_active):>10}")

print()
print("a schedule whose local exponent w = (frak_b + frak_h) / 2 reaches 1 is refused:")
try:
    theory.scaling_law(TuningConfig(frak_h=1.0, frak_b=1.0, c_h=1.0, c_b=1.0))
except RegimeError as exc:
    print(f"  RegimeError: {exc}")

print()
print("the n-free reading of the unit-work SGD schedule at three sizes:")
cfg = TuningConfig(frak_h=1.0, c_h=4.0)
for n in (100, 1000, 10_000):
    print(f"  n={n:<7} h={cfg.step_size(n):.2e}  b={cfg.batch_size(n)}"
          f"  beta={'inf' if math.isinf(cfg.inverse_temperature(n)) else cfg.inverse_temperature(n)}")

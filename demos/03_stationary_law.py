"""Simulate a preconditioned loop and check it against its predicted law.

One long run of the unit-work preconditioned loop (noiseless, and a tempered
variant) on the weighted Gaussian location benchmark; the empirical
covariance of the locally rescaled iterates is compared to the stationary
covariance solved from the limit matrices.  A desk-size version of the full
benchmark (n=1000 there, n=300 here).  Run:

    python3 demos/03_stationary_law.py
"""

import numpy as np

from sgalab import diagnostics, engine, inference, linalg, models, theory
from sgalab.tuning import TuningConfig

n, d = 300, 5
model, data, _ = models.generate_gaussian(n, d, seed=29)
fit = inference.fit_mle(model, data)
info = inference.empirical_info(model, data, fit.theta_hat)
jinv = np.linalg.inv(info.j_mat)

runs = [
    ("noiseless, sandwich-targeted",
     TuningConfig(frak_h=1.0, c_h=4.0, gamma=jinv, lam=jinv, seed=1)),
    ("tempered, mixture-targeted",
     TuningConfig(frak_h=1.0, c_h=2.0, frak_t=1.0, c_beta=2.0,
                  gamma=jinv, lam=jinv, seed=2)),
]

for name, cfg in runs:
    ou = theory.ou_params(cfg, info.j_mat, info.i_mat)
    q_pred = theory.stationary_cov(ou)
    record = engine.run(model, data, cfg, epochs=600.0,
                        theta_hat=fit.theta_hat,
                        recording=engine.RecordingPlan(thin=10))
    emp = diagnostics.empirical_cov(record, burnin_fraction=0.1)
    rel = np.linalg.norm(emp - q_pred) / np.linalg.norm(q_pred)
    print(name)
    print(f"  600 epochs = {record.n_steps} steps,"
          f" {record.states.shape[0]} kept rows,"
          f" wall {record.wall_time:.2f}s")
    print(f"  predicted diag: {np.round(np.diag(q_pred), 3)}")
    print(f"  empirical diag: {np.round(np.diag(emp), 3)}")
    print(f"  relative Frobenius error: {rel:.1%}")
    print()

print("the noiseless prediction equals the empirical sandwich:")
q = theory.stationary_cov(theory.ou_params(runs[0][1], info.j_mat, info.i_mat))
print(f"  |Q - sandwich| = {np.linalg.norm(q - linalg.sandwich(info.j_mat, info.i_mat)):.2e}")

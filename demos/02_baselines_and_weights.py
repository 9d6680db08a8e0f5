"""Classical synthetic control and robust synthetic control on one panel.

Shows the simplex weights, the effect of hard singular-value thresholding,
ridge cross-validation, and weight serialization.
"""

import numpy as np

from tasc import (
    DEFAULT_CV_GRID,
    RscConfig,
    SimulationConfig,
    hsvt,
    rmse,
    rsc_fit,
    sc_fit,
    sc_predict,
    simulate,
    split,
    weights_to_json,
)

sim = simulate(SimulationConfig(
    d_true=2, n_units=8, t_total=60, t0=40,
    a_q=0.01, b_q=0.1, a_r=0.02, b_r=0.2, seed=3,
))
panel = sim.panel
pre, post = split(panel)
truth_post = panel.values[0, panel.t0 :]

weights = sc_fit(pre[0], pre[1:])
sc_path = sc_predict(weights, post[1:])
print("simplex weights:", np.round(weights.f, 3))
print(f"SC post RMSE: {rmse(sc_path, truth_post):.4f}")

donors = panel.donors
s_full = np.linalg.svd(donors, compute_uv=False)
denoised = hsvt(donors, 2)
print("\ndonor singular values:", np.round(s_full[:5], 2), "...")
print(f"rank-2 thresholding keeps "
      f"{np.sum(s_full[:2]**2) / np.sum(s_full**2):.1%} of the energy")

fit = rsc_fit(panel, RscConfig(d=2, cv_grid=DEFAULT_CV_GRID))
rsc_path = sc_predict(fit.weights, fit.denoised[:, panel.t0 :])
print(f"\nRSC cross-validated ridge coefficient: {fit.weights.lambda_:g}")
print(f"RSC post RMSE: {rmse(rsc_path, truth_post):.4f}")

print("\nserialized ridge weights:")
print(weights_to_json(fit.weights))

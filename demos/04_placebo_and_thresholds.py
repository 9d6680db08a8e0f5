"""Placebo tests and pre-fit threshold filtering on a simulated panel.

Each donor takes a turn posing as the target; the distribution of placebo
errors calibrates how unusual the real target's gap is, and threshold
filtering keeps only donors whose pre-intervention fit is comparable to the
target's.
"""

import numpy as np

from tasc import (
    EmConfig,
    Estimator,
    SimulationConfig,
    fit_predict,
    placebo_suite,
    rmse,
    simulate,
    threshold_filter,
)

sim = simulate(SimulationConfig(
    d_true=2, n_units=10, t_total=60, t0=40,
    a_q=0.01, b_q=0.1, a_r=0.05, b_r=0.3, seed=21,
))
panel = sim.panel
estimator = Estimator(method="tasc", em=EmConfig(d=2, n_iters=50, n_restarts=2))

target_pred = fit_predict(panel, estimator, seed=0)
target_pre_rmse = rmse(target_pred.fitted_pre, panel.values[0, : panel.t0])
target_post_rmse = rmse(target_pred.y_hat, panel.values[0, panel.t0 :])
print(f"target pre-fit RMSE {target_pre_rmse:.4f}, post RMSE {target_post_rmse:.4f}")

entries = placebo_suite(panel, estimator, seed=0)
print("\nplacebo results (donor as pseudo-target):")
print(f"{'unit':8s} {'rmse_pre':>9s} {'rmse_post':>9s}")
for entry in entries:
    print(f"{entry.unit_label:8s} {entry.rmse_pre:9.4f} {entry.rmse_post:9.4f}")

placebo_post = [e.rmse_post for e in entries if e.error is None]
rank = np.mean([p <= target_post_rmse for p in placebo_post])
print(f"\nshare of placebo units fitting better than the target post: {rank:.0%}")

target_pre_mse = target_pre_rmse**2
for ratio in (10.0, 5.0, 2.0):
    kept = threshold_filter(entries, target_pre_mse, ratio)
    print(f"threshold {ratio:>4g}x target pre-MSE keeps {len(kept):2d}/{len(entries)} units")

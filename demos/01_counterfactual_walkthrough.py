"""End-to-end counterfactual inference on a simulated policy panel.

Generates a panel from a known low-rank state-space process, pretends the
target unit was treated at t0, and compares the inferred counterfactual
against the ground truth the generator kept aside.
"""

import numpy as np

from tasc import (
    EmConfig,
    SimulationConfig,
    confidence_width,
    rmse,
    simulate,
    tasc_infer,
)

config = SimulationConfig(
    d_true=3, n_units=12, t_total=80, t0=50,
    a_q=0.01, b_q=0.1, a_r=0.05, b_r=0.3, seed=11,
)
sim = simulate(config)
panel = sim.panel
truth_post = panel.values[0, panel.t0 :]

# In a real application the target's post outcomes would be treated, so the
# model never reads them: fitting uses pre-intervention columns only and the
# post filter treats the target row as missing.
result = tasc_infer(panel, EmConfig(d=3, n_iters=100, n_restarts=3, seed=0), level=0.95)
est = result.estimate

print(f"panel: {panel.n_units} units x {panel.n_periods} periods, t0={panel.t0}")
print(f"EM iterations used: {len(result.em.loglik_trace) - 1}, "
      f"final log-likelihood {result.em.loglik_trace[-1]:.2f}, "
      f"winning restart {result.em.restart_index}")
print(f"post-intervention RMSE vs held-out truth: {rmse(est.y_hat, truth_post):.4f}")
print(f"mean 95% interval width: {confidence_width(est):.4f}")

covered = np.mean((truth_post >= est.ci_lower) & (truth_post <= est.ci_upper))
print(f"interval coverage of the untreated truth: {covered:.0%}")

print("\n  t    truth    y_hat    ci_lower  ci_upper")
for i in range(0, truth_post.size, 6):
    t = panel.t0 + i
    print(f"{t:4d} {truth_post[i]:8.3f} {est.y_hat[i]:8.3f} "
          f"{est.ci_lower[i]:9.3f} {est.ci_upper[i]:9.3f}")

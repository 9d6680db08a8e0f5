import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasc import (
    ConfigError,
    EmConfig,
    FitError,
    NumericalError,
    PanelData,
    SimulationConfig,
    StateSpaceParams,
    Estimator,
    Prediction,
    RscConfig,
    accumulate_stats,
    em_pre,
    fit_predict,
    filter_pass,
    init_params,
    m_step,
    method_sweep,
    simulate,
    smooth_pass,
    SmoothedTrajectory,
    tasc_infer,
)

from tasc._numeric import derive_seed
from tasc.engine import EmResult, SufficientStats

from oracles import q_gradient_fd, random_theta

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def rank_d_panel(rng, n, t, d, scale=1.0):
    """Exactly rank-d data driven by a stable latent recursion (noiseless)."""
    A = 0.9 * np.eye(d) + 0.02 * rng.standard_normal((d, d))
    H = rng.standard_normal((n, d))
    x = rng.standard_normal(d) * scale
    cols = []
    for _ in range(t):
        x = A @ x
        cols.append(H @ x)
    return np.column_stack(cols), A, H


class TestInitParams:
    def test_deterministic_given_seed_and_restart(self):
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((6, 12))
        config = EmConfig(d=2, seed=5)
        a = init_params(Y, config, restart_index=3)
        b = init_params(Y, config, restart_index=3)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.H, b.H)
        c = init_params(Y, config, restart_index=4)
        assert not np.array_equal(a.A, c.A)

    def test_noiseless_rank_d_hits_noise_floor(self):
        rng = np.random.default_rng(1)
        Y, _, _ = rank_d_panel(rng, 6, 15, 2)
        theta = init_params(Y, EmConfig(d=2))
        # The floor is relative: 1e-4 times the panel's mean square.
        assert np.array_equal(theta.R, np.full(6, 1e-4 * np.mean(Y**2)))
        assert not np.isclose(np.mean(Y**2), 1.0)

    def test_latent_dimension_boundary(self):
        rng = np.random.default_rng(2)
        Y = rng.standard_normal((4, 10))
        init_params(Y, EmConfig(d=4))
        with pytest.raises(ConfigError):
            init_params(Y, EmConfig(d=5))

    def test_reconstruction_consistency(self):
        # H times the implied initial latent equals the rank-d reconstruction
        # of the first column.
        rng = np.random.default_rng(3)
        Y = rng.standard_normal((5, 9))
        theta = init_params(Y, EmConfig(d=3))
        u, s, vt = np.linalg.svd(Y, full_matrices=False)
        recon0 = (u[:, :3] * s[:3]) @ vt[:3, 0]
        assert np.allclose(theta.H @ theta.m0, recon0)


def scalar_stats():
    smoothed = SmoothedTrajectory(
        m_s=np.array([[0.0], [1.0]]),
        P_s=np.array([[[1.0]], [[1.0]]]),
        G=np.array([[[0.5]]]),
    )
    Y = np.array([[2.0]])
    return accumulate_stats(smoothed, Y)


class TestAccumulateStats:
    def test_scalar_hand_values(self):
        stats = scalar_stats()
        assert np.allclose(stats.sigma, 2.0)
        assert np.allclose(stats.phi, 1.0)
        assert np.allclose(stats.b, 2.0)
        assert np.allclose(stats.c, 0.5)
        assert np.allclose(stats.d, 4.0)

    def test_zero_data_zero_cross_moments(self):
        smoothed = SmoothedTrajectory(
            m_s=np.zeros((4, 2)), P_s=np.tile(np.eye(2), (4, 1, 1)), G=np.zeros((3, 2, 2))
        )
        stats = accumulate_stats(smoothed, np.zeros((3, 3)))
        assert np.allclose(stats.b, 0.0)
        assert np.allclose(stats.d, 0.0)

    def test_bilinearity_in_observations(self):
        rng = np.random.default_rng(4)
        k = 5
        smoothed = SmoothedTrajectory(
            m_s=rng.standard_normal((k + 1, 2)),
            P_s=np.tile(np.eye(2), (k + 1, 1, 1)),
            G=rng.standard_normal((k, 2, 2)),
        )
        Y = rng.standard_normal((3, k))
        s1 = accumulate_stats(smoothed, Y)
        s2 = accumulate_stats(smoothed, 2.0 * Y)
        assert np.allclose(s2.b, 2.0 * s1.b)
        assert np.allclose(s2.d, 4.0 * s1.d)

    def test_observation_moment_is_data_outer_product(self):
        rng = np.random.default_rng(9)
        k = 7
        smoothed = SmoothedTrajectory(
            m_s=rng.standard_normal((k + 1, 2)),
            P_s=np.tile(np.eye(2), (k + 1, 1, 1)),
            G=rng.standard_normal((k, 2, 2)),
        )
        Y = rng.standard_normal((5, k))
        stats = accumulate_stats(smoothed, Y)
        assert stats.Y is Y
        d = (Y @ Y.T) / k
        assert np.array_equal(stats.d, 0.5 * (d + d.T))


class TestMStep:
    def test_scalar_hand_example(self):
        stats = scalar_stats()
        theta_old = StateSpaceParams(
            A=[[1.0]], H=[[1.0]], Q=[[1.0]], R=[1.0], m0=[0.0], P0=[[1.0]]
        )
        new = m_step(stats, theta_old, m0s=np.array([0.0]), P0s=np.array([[1.0]]))
        assert np.allclose(new.A, 0.5)
        assert np.allclose(new.H, 1.0)
        assert np.allclose(new.Q, 1.75)
        assert np.allclose(new.R, 2.0)
        assert np.allclose(new.m0, 0.0)
        assert np.allclose(new.P0, 1.0)

    def test_recovers_parameters_from_noiseless_moments(self):
        # Exact latent trajectory as moments (zero covariances): the update
        # returns the generating A and H exactly.
        rng = np.random.default_rng(5)
        d, n, k = 2, 4, 12
        A = 0.9 * np.eye(d) + 0.05 * rng.standard_normal((d, d))
        H = rng.standard_normal((n, d))
        x = rng.standard_normal(d)
        xs = [x]
        for _ in range(k):
            xs.append(A @ xs[-1])
        X = np.array(xs)
        Y = H @ X[1:].T
        smoothed = SmoothedTrajectory(
            m_s=X, P_s=np.zeros((k + 1, d, d)), G=np.zeros((k, d, d))
        )
        stats = accumulate_stats(smoothed, Y)
        theta_old = StateSpaceParams(
            A=np.eye(d), H=np.ones((n, d)), Q=np.eye(d), R=np.ones(n),
            m0=np.zeros(d), P0=np.eye(d),
        )
        new = m_step(stats, theta_old, m0s=X[0], P0s=np.zeros((d, d)))
        assert np.max(np.abs(new.A - A)) <= 1e-8
        assert np.max(np.abs(new.H - H)) <= 1e-8

    def test_diagonal_mode_zeroes_off_diagonals(self):
        rng = np.random.default_rng(6)
        theta = random_theta(rng, 3, 4, diag_noise=True)
        Y = rng.standard_normal((4, 10))
        filt = filter_pass(Y, theta)
        smoothed = smooth_pass(filt, theta)
        stats = accumulate_stats(smoothed, Y)
        new = m_step(stats, theta, smoothed.m_s[0], smoothed.P_s[0])
        assert new.diag_noise
        assert np.array_equal(new.Q, np.diag(np.diag(new.Q)))
        assert new.R.shape == (4,)

    def test_diagonal_r_matches_full_formula(self):
        # The diagonal-noise update forms R' row by row; it must equal the
        # diagonal of d - 2 b H'^T + H' Sigma H'^T.
        rng = np.random.default_rng(10)
        for _ in range(5):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(d, 9))
            k = int(rng.integers(d + 2, 15))
            theta = random_theta(rng, d, n, diag_noise=True)
            Y = rng.standard_normal((n, k)) * rng.uniform(0.5, 3.0, size=(n, 1))
            smoothed = smooth_pass(filter_pass(Y, theta), theta)
            stats = accumulate_stats(smoothed, Y)
            new = m_step(stats, theta, smoothed.m_s[0], smoothed.P_s[0])
            H = new.H
            full = np.diag(stats.d - 2.0 * stats.b @ H.T + H @ stats.sigma @ H.T)
            assert np.all(full > 1e-10)  # the floor is not active
            assert new.R.shape == (n,)
            assert np.max(np.abs(new.R - full) / full) <= 1e-12

    @pytest.mark.parametrize(
        "phi, sigma",
        [
            ([[1.0, 1.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]),  # rank-deficient Phi
            ([[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]),  # rank-deficient Sigma
            # Condition number 2e13: the squared diagonal ratio of its factor
            # (5e12) is past the 1e12 limit.
            ([[1.0, 1.0 - 1e-13], [1.0 - 1e-13, 1.0]], [[1.0, 0.0], [0.0, 1.0]]),
        ],
    )
    def test_singular_state_moments_raise(self, phi, sigma):
        stats = SufficientStats(
            sigma=np.array(sigma), phi=np.array(phi), b=np.ones((3, 2)),
            c=np.eye(2), Y=np.ones((3, 4)),
        )
        theta = StateSpaceParams(
            A=np.eye(2), H=np.ones((3, 2)), Q=np.eye(2), R=np.ones(3),
            m0=np.zeros(2), P0=np.eye(2),
        )
        with pytest.raises(NumericalError, match="state moment matrix"):
            m_step(stats, theta, m0s=np.zeros(2), P0s=np.eye(2))

    def test_stationarity_of_update(self):
        # Finite-difference gradient of the Q-function vanishes at the
        # returned A' and H' for moments produced by a real E-step.
        rng = np.random.default_rng(7)
        for _ in range(3):
            theta = random_theta(rng, 2, 4)
            Y = rng.standard_normal((4, 12))
            filt = filter_pass(Y, theta)
            smoothed = smooth_pass(filt, theta)
            stats = accumulate_stats(smoothed, Y)
            new = m_step(stats, theta, smoothed.m_s[0], smoothed.P_s[0])
            grad = q_gradient_fd(stats, Y.shape[1], new, smoothed.m_s[0], smoothed.P_s[0])
            assert grad <= 1e-4


class TestEmPre:
    def test_zero_iterations_returns_init(self):
        rng = np.random.default_rng(8)
        Y = rng.standard_normal((5, 10))
        config = EmConfig(d=2, n_iters=0, seed=3)
        result = em_pre(Y, config)
        ref = init_params(Y, config, restart_index=0)
        assert result.loglik_trace == []
        assert np.array_equal(result.theta.A, ref.A)

    def test_loglik_trace_monotone(self):
        from tasc import SimulationConfig, simulate

        for seed in range(5):
            sim = simulate(SimulationConfig(d_true=2, n_units=8, t_total=40, t0=30, seed=seed))
            config = EmConfig(d=2, n_iters=40, n_restarts=1, seed=seed)
            result = em_pre(sim.panel.values[:, :30], config)
            trace = np.array(result.loglik_trace)
            assert trace.size >= 2
            assert np.all(np.diff(trace) >= -1e-6)

    def test_final_loglik_not_below_initial(self):
        from tasc import SimulationConfig, simulate

        for seed in range(5):
            sim = simulate(SimulationConfig(d_true=2, n_units=10, t_total=60, t0=50, seed=100 + seed))
            config = EmConfig(d=2, n_iters=30, n_restarts=2, seed=seed)
            result = em_pre(sim.panel.values[:, :50], config)
            assert result.loglik_trace[-1] >= result.loglik_trace[0]

    def test_reconstruction_error_shrinks_on_noiseless_data(self):
        rng = np.random.default_rng(9)
        Y, _, _ = rank_d_panel(rng, 6, 25, 2, scale=3.0)
        config = EmConfig(d=2, n_iters=60, n_restarts=1, seed=0)

        init = init_params(Y, config, restart_index=0)
        smoothed_init = smooth_pass(filter_pass(Y, init), init)
        err_init = np.linalg.norm(init.H @ smoothed_init.m_s[1:].T - Y)

        result = em_pre(Y, config)
        smoothed = smooth_pass(filter_pass(Y, result.theta), result.theta)
        err_final = np.linalg.norm(result.theta.H @ smoothed.m_s[1:].T - Y)
        assert err_final < err_init

    def test_signal_product_recovered_on_noiseless_data(self):
        # The latent basis is only identified up to an invertible transform,
        # but the product of loadings and smoothed states must recover the
        # rank-d signal itself.
        rng = np.random.default_rng(12)
        Y, _, _ = rank_d_panel(rng, 6, 25, 2, scale=3.0)
        for seed in range(3):
            result = em_pre(Y, EmConfig(d=2, n_iters=150, n_restarts=2, seed=seed))
            smoothed = smooth_pass(filter_pass(Y, result.theta), result.theta)
            recon = result.theta.H @ smoothed.m_s[1:].T
            rel = np.linalg.norm(recon - Y) / np.linalg.norm(Y)
            assert rel <= 1e-3

    def test_all_restarts_failing_raises_fit_error(self):
        # An all-zero pre panel has relative noise floors of 0, so R is
        # singular at every restart, whatever the unit of measurement.
        with pytest.raises(FitError) as err:
            em_pre(np.zeros((3, 12)), EmConfig(d=1, n_iters=5, n_restarts=2, seed=0))
        assert [type(c) for c in err.value.causes] == [NumericalError, NumericalError]

    def test_nan_input_rejected(self):
        Y = np.ones((3, 6))
        Y[1, 2] = np.nan
        with pytest.raises(ConfigError):
            em_pre(Y, EmConfig(d=1))


def self_similar_panel():
    """Noiseless rank-1 panel whose target row equals donor 1's row."""
    rng = np.random.default_rng(11)
    t_total, t0 = 30, 20
    a = 0.9
    x = 5.0
    xs = []
    for _ in range(t_total):
        x = a * x
        xs.append(x)
    xs = np.array(xs)
    h = np.array([1.0, 1.0, 0.7, -0.5, 1.3])
    values = np.outer(h, xs)
    return PanelData(
        values, t0,
        tuple(f"u{i}" for i in range(5)),
        tuple(f"t{j}" for j in range(t_total)),
    )


class TestTascInfer:
    def test_tracks_identical_donor_on_noiseless_rank_one_panel(self):
        panel = self_similar_panel()
        config = EmConfig(d=1, n_iters=60, n_restarts=2, seed=0)
        result = tasc_infer(panel, config)
        donor_post = panel.values[1, panel.t0 :]
        r1 = float(result.em.theta.R[0])
        assert np.max(np.abs(result.y_hat - donor_post)) <= 2.0 * np.sqrt(r1)

    def test_counterfactual_invariant_to_target_post_cells(self):
        panel = self_similar_panel()
        config = EmConfig(d=1, n_iters=25, n_restarts=1, seed=1)
        base = tasc_infer(panel, config)

        junk = panel.values.copy()
        junk[0, panel.t0 :] = 1e6
        overwritten = panel.with_values(junk, target_post_missing=True)
        other = tasc_infer(overwritten, config)
        assert np.array_equal(base.y_hat, other.y_hat)

        junk[0, panel.t0 :] = np.nan
        with_nan = panel.with_values(junk, target_post_missing=True)
        third = tasc_infer(with_nan, config)
        assert np.array_equal(base.y_hat, third.y_hat)

    def test_tiny_level_collapses_interval(self):
        panel = self_similar_panel()
        config = EmConfig(d=1, n_iters=10, n_restarts=1, seed=2)
        result = tasc_infer(panel, config, level=1e-9)
        assert np.mean(result.ci_upper - result.ci_lower) < 1e-6

    def test_deterministic_given_seed(self):
        panel = self_similar_panel()
        config = EmConfig(d=1, n_iters=15, n_restarts=2, seed=7)
        a = tasc_infer(panel, config)
        b = tasc_infer(panel, config)
        assert np.array_equal(a.y_hat, b.y_hat)
        assert np.array_equal(a.ci_lower, b.ci_lower)
        assert (a.em.loglik_trace, a.em.restart_index) == (b.em.loglik_trace, b.em.restart_index)

    def test_bad_level_rejected(self):
        panel = self_similar_panel()
        with pytest.raises(ConfigError):
            tasc_infer(panel, EmConfig(d=1), level=1.5)

    def test_interval_uses_gaussian_quantile(self):
        panel = self_similar_panel()
        config = EmConfig(d=1, n_iters=10, n_restarts=1, seed=4)
        est = tasc_infer(panel, config, level=0.95)
        z = (est.ci_upper - est.y_hat) / np.sqrt(est.var_pred)
        assert np.allclose(z, 1.959963984540054, atol=1e-9)

    def test_level_next_to_one_gives_finite_bounds(self):
        # 0.5 + level / 2 rounds to 1.0 here, where the quantile is infinite.
        level = 0.9999999999999999
        assert 0.5 + level / 2.0 == 1.0
        panel = self_similar_panel()
        est = tasc_infer(panel, EmConfig(d=1, n_iters=10, n_restarts=1, seed=4), level=level)
        assert np.all(np.isfinite(est.ci_lower)) and np.all(np.isfinite(est.ci_upper))
        assert np.all(est.ci_upper - est.y_hat > 8.0 * np.sqrt(est.var_pred))

    def test_runs_with_every_scipy_import_failing(self, tmp_path):
        # Import time and memory count in every CLI call, and SciPy would be
        # most of both: with sys.modules["scipy"] = None any SciPy import
        # fails, yet importing tasc, an EM fit, both baselines and a CLI run
        # all succeed, and no real scipy module is loaded.
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "import tasc\n"
            "from tasc.cli import main\n"
            "sim = tasc.simulate(tasc.SimulationConfig(d_true=2, n_units=6, t_total=30, t0=20, seed=1))\n"
            "panel = sim.panel\n"
            "tasc.tasc_infer(panel, tasc.EmConfig(d=2, n_iters=5, n_restarts=1))\n"
            "tasc.sc_fit(panel.values[0, :20], panel.donors[:, :20])\n"
            "tasc.rsc_fit(panel, tasc.RscConfig(d=2, cv_grid=tasc.DEFAULT_CV_GRID))\n"
            "tasc.save_csv(panel, sys.argv[1] + '/panel.csv')\n"
            "code = main(['infer', '--input', sys.argv[1] + '/panel.csv', '--t0', '20', '--method', 'tasc',\n"
            "             '--d', '2', '--n1', '5', '--output', sys.argv[1] + '/out.csv'])\n"
            "assert code == 0, code\n"
            "print(' '.join(sorted(name for name, mod in sys.modules.items()\n"
            "    if name.split('.')[0] == 'scipy' and mod is not None)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)], env=dict(os.environ, PYTHONPATH=_SRC), timeout=120,
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []
        assert (tmp_path / "out.csv").exists()


class TestDonorOrder:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), order_seed=st.integers(0, 2**16))
    def test_y_hat_unchanged_when_donor_rows_are_permuted(self, seed, order_seed):
        # A fixed, small n_iters tests the algorithm, not its convergence.
        panel = simulate(SimulationConfig(d_true=2, n_units=8, t_total=30, t0=20, seed=seed)).panel
        order = np.concatenate([[0], 1 + np.random.default_rng(order_seed).permutation(panel.n_units - 1)])
        permuted = PanelData(
            panel.values[order], panel.t0, tuple(panel.unit_labels[i] for i in order), panel.time_labels
        )
        config = EmConfig(d=2, n_iters=10, n_restarts=1, seed=seed)
        y_hat = tasc_infer(panel, config).y_hat
        again = tasc_infer(permuted, config).y_hat
        assert np.max(np.abs(again - y_hat)) <= 1e-10 * np.max(np.abs(y_hat))


class TestScaleEquivariance:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), k=st.integers(-30, 30), log_c=st.floats(-6.0, 6.0))
    def test_y_hat_scales_with_the_data(self, seed, k, log_c):
        # A fixed, small n_iters tests the algorithm, not its convergence.  A
        # power of two scales every float exactly, so only the order of
        # operations inside LAPACK can move y_hat; a general factor also
        # rounds the data.
        panel = simulate(SimulationConfig(d_true=2, n_units=8, t_total=30, t0=20, seed=seed)).panel
        config = EmConfig(d=2, n_iters=10, n_restarts=1, seed=seed)
        y_hat = tasc_infer(panel, config).y_hat
        for c, tol in ((2.0**k, 1e-12), (10.0**log_c, 1e-10)):
            scaled = PanelData(c * panel.values, panel.t0, panel.unit_labels, panel.time_labels)
            again = tasc_infer(scaled, config).y_hat
            assert np.max(np.abs(again - c * y_hat)) <= tol * np.max(np.abs(c * y_hat))


class TestTascInferGivenFit:
    """``tasc_infer(..., em=...)``: the counterfactual pass alone, on a given fit."""

    def test_given_fit_reproduces_the_fitted_call(self):
        panel = self_similar_panel()
        config = EmConfig(d=1, n_iters=10, n_restarts=2, seed=5)
        full = tasc_infer(panel, config)
        again = tasc_infer(panel, config, em=full.em)
        assert np.array_equal(again.y_hat, full.y_hat)
        assert np.array_equal(again.var_pred, full.var_pred)
        assert again.em is full.em

    def test_row_count_mismatch_rejected(self):
        panel = self_similar_panel()
        em = EmResult(theta=random_theta(np.random.default_rng(0), 1, panel.n_units + 1), loglik_trace=[])
        with pytest.raises(ConfigError, match="N=6, d=1; panel and config need N=5, d=1"):
            tasc_infer(panel, EmConfig(d=1), em=em)

    def test_latent_dimension_mismatch_rejected(self):
        panel = self_similar_panel()
        em = EmResult(theta=random_theta(np.random.default_rng(1), 2, panel.n_units), loglik_trace=[])
        with pytest.raises(ConfigError, match="N=5, d=2; panel and config need N=5, d=1"):
            tasc_infer(panel, EmConfig(d=1), em=em)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_counterfactual_equivariant_to_donor_order(self, data):
        # With theta fixed, permuting the donor rows of the panel and of H and
        # R together leaves the target's counterfactual unchanged: the model
        # sees the same observations.  Only the summation order differs.
        d = data.draw(st.integers(1, 3), label="d")
        n = data.draw(st.integers(3, 8), label="N")
        t_total = data.draw(st.integers(3, 40), label="T")
        t0 = data.draw(st.integers(2, t_total - 1), label="t0")
        diag_noise = data.draw(st.booleans(), label="diag_noise")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        theta = random_theta(rng, d, n, diag_noise=diag_noise)
        values = rng.standard_normal((n, t_total))
        panel = PanelData(values, t0, tuple(f"u{i}" for i in range(n)), tuple(f"t{j}" for j in range(t_total)))
        order = np.concatenate([[0], 1 + rng.permutation(n - 1)])
        permuted_panel = panel.with_values(values[order])
        R = theta.R[order] if diag_noise else theta.R[np.ix_(order, order)]
        permuted_theta = replace(theta, H=theta.H[order], R=R)

        config = EmConfig(d=d, diag_noise=diag_noise)
        base = tasc_infer(panel, config, em=EmResult(theta=theta, loglik_trace=[]))
        other = tasc_infer(permuted_panel, config, em=EmResult(theta=permuted_theta, loglik_trace=[]))
        for name in ("y_hat", "var_signal", "fitted_pre"):
            ref, got = getattr(base, name), getattr(other, name)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name


class TestOnePredictionRecord:
    """``tasc_infer`` returns the one record that ``fit_predict`` returns and ``method_sweep`` reads."""

    def test_fit_predict_returns_the_tasc_infer_record_field_for_field(self, monkeypatch):
        import tasc.evaluate

        panel = self_similar_panel()
        config = EmConfig(d=1, n_iters=10, n_restarts=2, seed=3)
        made = []

        def recorded(*args, **kwargs):
            made.append(tasc_infer(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(tasc.evaluate, "tasc_infer", recorded)
        pred = fit_predict(panel, Estimator(method="tasc", em=config))
        assert len(made) == 1 and pred is made[0]
        again = tasc_infer(panel, config, em=pred.em)
        for f in fields(Prediction):
            got, ref = getattr(pred, f.name), getattr(again, f.name)
            if f.name == "em" or ref is None:
                assert got is ref, f.name
            else:
                assert np.array_equal(got, ref), f.name

    def test_sweep_width_is_the_mean_width_of_a_refits_reported_bounds(self):
        em = EmConfig(d=2, n_iters=10, n_restarts=1)
        estimators = [
            Estimator(method="tasc", em=em),
            Estimator(method="tasc", em=em, center=True, name="tasc_c"),
            Estimator(method="sc"),
            Estimator(method="rsc", rsc=RscConfig(d=2, lambda_=0.1)),
        ]
        regime = SimulationConfig(d_true=2, n_units=5, t_total=24, t0=16, seed=0)
        reports = method_sweep([regime], estimators, replicates=2, seed=4)
        for i, report in enumerate(reports):
            assert report.error is None
            estimator = estimators[i % len(estimators)]
            if estimator.method != "tasc":
                assert report.ci_width is None and report.coverage is None
                continue
            panel = simulate(replace(regime, seed=derive_seed(4, 0, report.replicate))).panel
            pred = fit_predict(panel, estimator, report.seed)
            assert report.ci_width == float(np.mean(pred.ci_upper - pred.ci_lower))


class TestEmConfigValidation:
    def test_bounds(self):
        with pytest.raises(ConfigError):
            EmConfig(d=0)
        with pytest.raises(ConfigError):
            EmConfig(d=1, n_iters=-1)
        with pytest.raises(ConfigError):
            EmConfig(d=1, n_restarts=0)
        with pytest.raises(ConfigError):
            EmConfig(d=1, rel_tol=-1e-3)

    def test_nan_rel_tol_rejected(self):
        # NaN compares false with every gain, so it would switch the stop rule off.
        with pytest.raises(ConfigError, match="rel_tol must be finite and >= 0"):
            EmConfig(d=1, rel_tol=float("nan"))

    @pytest.mark.parametrize(
        "fields, name",
        [({"d": 2.5}, "d"), ({"n_iters": 3.5}, "n_iters"), ({"n_restarts": 2.0}, "n_restarts"),
         ({"d": True}, "d"), ({"seed": 1.5}, "seed")],
    )
    def test_non_integer_field_rejected(self, fields, name):
        # Without the check these fail deep in numpy as untyped TypeErrors.
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got "):
            EmConfig(**{"d": 2, **fields})
        config = EmConfig(d=np.int64(2), n_iters=np.int32(3), n_restarts=np.uint8(1), seed=np.int64(4))
        assert init_params(np.eye(3), config).d == 2

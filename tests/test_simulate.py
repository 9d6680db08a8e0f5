from dataclasses import replace

import numpy as np
import pytest

from tasc import (
    ConfigError,
    SimulationConfig,
    gen_panel,
    gen_params,
    load_csv,
    params_from_json,
    random_covariance,
    save_simulation,
    simulate,
    snr_stats,
)

from oracles import random_theta


class TestRandomCovariance:
    def test_equal_bounds_give_scaled_identity_exactly(self):
        out = random_covariance(3, 0.7, 0.7, seed=0)
        assert np.array_equal(out, 0.7 * np.eye(3))

    def test_scalar_case_in_range(self):
        for seed in range(20):
            out = random_covariance(1, 0.2, 0.9, seed=seed)
            assert 0.2 - 1e-10 <= out[0, 0] <= 0.9 + 1e-10

    def test_eigenvalues_within_bounds(self):
        a, b = 0.05, 0.4
        for seed in range(1000):
            m = random_covariance(4, a, b, seed=seed)
            vals = np.linalg.eigvalsh(m)
            assert vals.min() >= a - 1e-10
            assert vals.max() <= b + 1e-10

    def test_bad_bounds(self):
        with pytest.raises(ConfigError):
            random_covariance(2, 0.5, 0.1, seed=0)
        with pytest.raises(ConfigError):
            random_covariance(2, 0.0, 0.1, seed=0)


def small_r_config(seed=0, **overrides):
    params = dict(
        d_true=5, n_units=50, t_total=100, t0=50,
        a_q=0.01, b_q=0.1, a_r=0.01, b_r=0.1, seed=seed,
    )
    params.update(overrides)
    return SimulationConfig(**params)


class TestGenParams:
    def test_spectral_radius_exact(self):
        for seed in range(10):
            theta = gen_params(small_r_config(seed=seed, spectral_radius=0.95))
            rho = np.max(np.abs(np.linalg.eigvals(theta.A)))
            assert abs(rho - 0.95) <= 1e-8

    def test_seed_determinism(self):
        a = gen_params(small_r_config(seed=3))
        b = gen_params(small_r_config(seed=3))
        for name in ("A", "H", "Q", "R", "m0", "P0"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_small_r_noise_calibration(self):
        # Mean absolute observation noise for the (0.01, 0.1) noise-scale
        # regime sits near 0.084, within the +/-50% calibration window.
        means = []
        for seed in range(20):
            config = small_r_config(seed=seed)
            theta = gen_params(config)
            sim = gen_panel(theta, config.t_total, config.t0, seed=seed + 1000)
            means.append(snr_stats(sim)["mean_abs_noise"])
        avg = float(np.mean(means))
        assert 0.042 <= avg <= 0.126


class TestGenPanel:
    def test_decomposition_identity_exact(self):
        config = small_r_config(seed=1)
        sim = simulate(config)
        assert np.array_equal(sim.panel.values, sim.signal + sim.noise)

    def test_signal_rank_bounded_by_d_true(self):
        config = small_r_config(seed=2)
        sim = simulate(config)
        s = np.linalg.svd(sim.signal, compute_uv=False)
        assert np.sum(s > 1e-8 * s[0]) <= config.d_true

    def test_near_zero_noise_floors(self):
        config = small_r_config(seed=3, a_q=1e-6, b_q=1e-6, a_r=1e-6, b_r=1e-6)
        theta = gen_params(config)
        sim = gen_panel(theta, config.t_total, config.t0, seed=0)
        assert np.max(np.abs(sim.panel.values - sim.signal)) <= 1e-4
        s = np.linalg.svd(sim.panel.values, compute_uv=False)
        assert np.sum(s > 1e-6 * s[0]) <= config.d_true

    def test_seed_reproducibility(self):
        config = small_r_config(seed=4)
        a = simulate(config)
        b = simulate(config)
        assert np.array_equal(a.panel.values, b.panel.values)
        assert np.array_equal(a.latent, b.latent)

    def test_noise_variance_matches_r_diagonal(self):
        config = SimulationConfig(
            d_true=2, n_units=4, t_total=10_000, t0=5000,
            a_r=0.1, b_r=0.5, seed=5,
        )
        theta = gen_params(config)
        sim = gen_panel(theta, config.t_total, config.t0, seed=6)
        t = config.t_total
        for i in range(config.n_units):
            var_hat = float(np.var(sim.noise[i]))
            r_ii = float(theta.R[i, i])
            se = r_ii * np.sqrt(2.0 / (t - 1))
            assert abs(var_hat - r_ii) <= 3.0 * se

    def test_diagonal_theta_draws_as_its_matrix(self):
        # A diagonal-noise theta (R a vector, as EM fits it) draws bitwise the
        # panel of the same noise held as an N x N diagonal matrix.
        theta = random_theta(np.random.default_rng(8), 2, 6, diag_noise=True)
        full = replace(theta, R=np.diag(theta.R))
        assert theta.diag_noise and not full.diag_noise
        a = gen_panel(theta, 40, 30, seed=9)
        b = gen_panel(full, 40, 30, seed=9)
        for name in ("noise", "signal", "latent"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        assert a.panel.values.tobytes() == b.panel.values.tobytes()

    def test_bad_t0(self):
        theta = gen_params(small_r_config(seed=7))
        with pytest.raises(ConfigError):
            gen_panel(theta, 10, 10, seed=0)



class TestSnrStats:
    def test_zero_noise(self):
        config = small_r_config(seed=8)
        sim = simulate(config)
        quiet = type(sim)(
            panel=sim.panel, signal=sim.signal, noise=np.zeros_like(sim.noise),
            theta_true=sim.theta_true, latent=sim.latent,
        )
        assert snr_stats(quiet)["mean_abs_noise"] == 0.0

    def test_large_q_louder_signal_than_small_q(self):
        wins = 0
        for seed in range(20):
            small = simulate(small_r_config(seed=seed, a_q=0.01, b_q=0.1))
            large = simulate(small_r_config(seed=seed, a_q=0.1, b_q=1.0))
            s_small = snr_stats(small)["mean_abs_signal"]
            s_large = snr_stats(large)["mean_abs_signal"]
            wins += s_large > s_small
        assert wins >= 18

    def test_large_r_noise_scales_up_tenfold(self):
        small = []
        large = []
        for seed in range(10):
            small.append(snr_stats(simulate(small_r_config(seed=seed)))["mean_abs_noise"])
            large.append(
                snr_stats(simulate(small_r_config(seed=seed, a_r=0.1, b_r=1.0)))["mean_abs_noise"]
            )
        ratio = np.mean(large) / np.mean(small)
        assert 5.0 <= ratio <= 20.0


class TestExport:
    def test_save_simulation_round_trip(self, tmp_path):
        config = small_r_config(seed=9, n_units=6, t_total=20, t0=12)
        sim = simulate(config)
        paths = save_simulation(sim, tmp_path / "out")
        panel = load_csv(paths["panel"], t0=config.t0)
        assert np.array_equal(panel.values, sim.panel.values)
        signal = load_csv(paths["signal"], t0=config.t0)
        assert np.array_equal(signal.values, sim.signal)
        theta = params_from_json(paths["theta"])
        assert np.array_equal(theta.A, sim.theta_true.A)


class TestSimulationConfigValidation:
    def test_bounds(self):
        with pytest.raises(ConfigError):
            small_r_config(a_q=0.0)
        with pytest.raises(ConfigError):
            small_r_config(a_r=0.5, b_r=0.1)
        with pytest.raises(ConfigError):
            small_r_config(spectral_radius=1.5)
        with pytest.raises(ConfigError):
            small_r_config(d_true=200)
        with pytest.raises(ConfigError):
            small_r_config(t0=100)

    @pytest.mark.parametrize(
        "fields, name",
        [({"d_true": 2.5}, "d_true"), ({"n_units": 12.0}, "n_units"), ({"t0": 50.0}, "t0"),
         ({"seed": 1.5}, "seed"), ({"d_true": True}, "d_true"), ({"t_total": 80.0}, "t_total")],
    )
    def test_non_integer_field_rejected(self, fields, name):
        base = {"d_true": 2, "n_units": 12, "t_total": 80, "t0": 50}
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got "):
            SimulationConfig(**{**base, **fields})
        sim = simulate(SimulationConfig(**{k: np.int64(v) for k, v in base.items()}, seed=np.int64(3)))
        assert sim.panel.values.shape == (12, 80)

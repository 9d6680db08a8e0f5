"""Ground-truth parameter and panel generation for benchmark regimes.

Panels are drawn from the same linear-Gaussian model the estimator assumes, so
every draw carries an exact signal/noise decomposition (values = H X + E) and
a known latent trajectory.  Covariance "size" regimes are parameterized by a
noise-scale range [a, b]: generated covariance eigenvalues live in [a^2, b^2],
which makes the typical noise magnitude scale linearly with (a, b).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._numeric import check_integer_fields, psd_sqrt, symmetrize
from .errors import ConfigError
from .panel import PanelData, save_csv
from .ssm import StateSpaceParams, params_to_json

__all__ = [
    "SimulationConfig",
    "SimulatedPanel",
    "random_covariance",
    "gen_params",
    "gen_panel",
    "simulate",
    "snr_stats",
    "save_simulation",
]


@dataclass
class SimulationConfig:
    """A data-generating regime.

    ``a_q``/``b_q`` and ``a_r``/``b_r`` bound the state and observation noise
    scales (standard deviations); ``spectral_radius`` fixes the modulus of the
    transition matrix's dominant eigenvalue.
    """

    d_true: int
    n_units: int
    t_total: int
    t0: int
    a_q: float = 0.01
    b_q: float = 0.1
    a_r: float = 0.01
    b_r: float = 0.1
    spectral_radius: float = 0.95
    seed: int = 0

    def __post_init__(self):
        check_integer_fields(self, "d_true", "n_units", "t_total", "t0", "seed")
        if not 0 < self.a_q <= self.b_q:
            raise ConfigError("need 0 < a_q <= b_q")
        if not 0 < self.a_r <= self.b_r:
            raise ConfigError("need 0 < a_r <= b_r")
        if not 0 < self.spectral_radius <= 1:
            raise ConfigError("spectral_radius must be in (0, 1]")
        if self.d_true > min(self.n_units, self.t_total):
            raise ConfigError("d_true must not exceed min(N, T)")
        if not 1 <= self.t0 < self.t_total:
            raise ConfigError("t0 must satisfy 1 <= t0 < T")
        if self.n_units < 2:
            raise ConfigError("need at least 2 units")


@dataclass(frozen=True)
class SimulatedPanel:
    """A generated panel with its exact signal/noise decomposition."""

    panel: PanelData
    signal: np.ndarray
    noise: np.ndarray
    theta_true: StateSpaceParams
    latent: np.ndarray


def random_covariance(dim: int, a: float, b: float, seed) -> np.ndarray:
    """SPD matrix with eigenvalues drawn i.i.d. from Uniform(a, b).

    The eigenbasis is Haar-random orthogonal.  With a == b the result is
    exactly a * I (any basis commutes with a scaled identity).
    """
    if not 0 < a <= b:
        raise ConfigError("need 0 < a <= b")
    if a == b:
        return a * np.eye(dim)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    vals = rng.uniform(a, b, size=dim)
    z = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    q = q * np.sign(np.diag(r))  # sign fix makes the distribution Haar
    return symmetrize((q * vals) @ q.T)


def gen_params(config: SimulationConfig) -> StateSpaceParams:
    """Draw ground-truth parameters for a regime, deterministically in the seed.

    The transition matrix is i.i.d. Gaussian rescaled to the requested spectral
    radius; loadings are i.i.d. Gaussian; the noise covariances get eigenvalues
    in [a^2, b^2] so that noise magnitudes track the configured scale range.
    """
    rng = np.random.default_rng(config.seed)
    d, n = config.d_true, config.n_units
    A = rng.standard_normal((d, d))
    radius = float(np.max(np.abs(np.linalg.eigvals(A))))
    A = A * (config.spectral_radius / radius)
    H = rng.standard_normal((n, d))
    Q = random_covariance(d, config.a_q**2, config.b_q**2, rng)
    R = random_covariance(n, config.a_r**2, config.b_r**2, rng)
    m0 = rng.standard_normal(d)
    P0 = np.eye(d)
    return StateSpaceParams(A=A, H=H, Q=Q, R=R, m0=m0, P0=P0)


def gen_panel(theta_true: StateSpaceParams, t_total: int, t0: int, seed) -> SimulatedPanel:
    """Sample one panel trajectory from known parameters.

    Stores signal H X and noise E separately; panel values are exactly their
    sum, and the target row is row 0.  A diagonal-noise theta (R a vector)
    draws the same noise as its N x N diagonal matrix would.
    """
    if not 1 <= t0 < t_total:
        raise ConfigError("t0 must satisfy 1 <= t0 < T")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    d, n = theta_true.d, theta_true.n_obs
    lq = psd_sqrt(theta_true.Q)
    l0 = psd_sqrt(theta_true.P0)

    x = theta_true.m0 + l0 @ rng.standard_normal(d)
    shocks = lq @ rng.standard_normal((d, t_total))
    latent = np.empty((d, t_total))
    for t in range(t_total):
        x = theta_true.A @ x + shocks[:, t]
        latent[:, t] = x
    signal = theta_true.H @ latent
    R, z = theta_true.R, rng.standard_normal((n, t_total))
    noise = np.sqrt(np.maximum(R, 0.0))[:, None] * z if theta_true.diag_noise else psd_sqrt(R) @ z
    values = signal + noise
    panel = PanelData(
        values,
        t0,
        tuple(f"unit{i}" for i in range(n)),
        tuple(f"t{j}" for j in range(t_total)),
        target_post_missing=False,
    )
    return SimulatedPanel(panel=panel, signal=signal, noise=noise, theta_true=theta_true, latent=latent)


def simulate(config: SimulationConfig) -> SimulatedPanel:
    """gen_params followed by gen_panel, both derived from the config seed."""
    theta = gen_params(config)
    rng = np.random.default_rng([config.seed & 0xFFFFFFFF, 1])
    return gen_panel(theta, config.t_total, config.t0, rng)


def snr_stats(sim: SimulatedPanel) -> dict[str, float]:
    """Elementwise mean absolute signal and noise magnitudes of a draw."""
    return {
        "mean_abs_signal": float(np.abs(sim.signal).mean()),
        "mean_abs_noise": float(np.abs(sim.noise).mean()),
    }


def save_simulation(sim: SimulatedPanel, out_dir: str | Path) -> dict[str, Path]:
    """Write panel.csv, signal.csv and theta.json under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "panel": out / "panel.csv",
        "signal": out / "signal.csv",
        "theta": out / "theta.json",
    }
    save_csv(sim.panel, paths["panel"])
    signal_panel = sim.panel.with_values(sim.signal)
    save_csv(signal_panel, paths["signal"])
    params_to_json(sim.theta_true, dest=paths["theta"])
    return paths

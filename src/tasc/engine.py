"""EM learning on pre-intervention data and counterfactual inference.

Fitting is expectation-maximization for the linear-Gaussian model: the E-step
is a Kalman filtering pass plus an RTS smoothing pass, and the M-step is the
closed-form maximizer of the expected complete-data log-likelihood.  Inference
reruns the filter over the full panel with the target treated as missing after
the intervention, smooths, and reads the target's counterfactual mean and
variance off the smoothed latent moments.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from ._numeric import check_integer_fields, cholesky, ensure_spd, gate_factor_diag, min_eig, spd_solve, symmetrize
from .errors import ConfigError, FitError, NumericalError, TascError
from .panel import PanelData
from .ssm import SmoothedTrajectory, StateSpaceParams, smooth_pass
from .ssm import filter_pass as _forward  # the name the layer tracer wraps

__all__ = [
    "EmConfig",
    "SufficientStats",
    "CounterfactualEstimate",
    "EmResult",
    "TascResult",
    "init_params",
    "accumulate_stats",
    "m_step",
    "em_pre",
    "tasc_infer",
    "confidence_width",
]

logger = logging.getLogger("tasc")

# Floors keeping learned noise variances and the initial-residual estimate
# strictly positive.  R's floors are these multiples of the pre panel's mean
# square, so that a fit to c Y is the fit to Y in units scaled by c; Q's is
# absolute, because the latent starts on unit scale.
_NOISE_FLOOR = 1e-10
_INIT_R_FLOOR = 1e-4

# Allowed numerical slack when checking that EM never decreases the
# log-likelihood.
_MONOTONE_SLACK = 1e-6


@dataclass
class EmConfig:
    """Settings for the EM fit.

    ``d`` is the latent dimension, ``n_iters`` the iteration cap, ``rel_tol``
    the log-likelihood gain per pre-intervention cell (nats) below which
    iteration stops, and ``n_restarts`` the number of random initializations
    (the best final likelihood wins).  A gain per cell does not change when
    the data are rescaled, which shifts the log-likelihood by a constant.
    """

    d: int
    n_iters: int = 200
    rel_tol: float = 1e-6
    n_restarts: int = 5
    seed: int = 0
    diag_noise: bool = True

    def __post_init__(self):
        check_integer_fields(self, "d", "n_iters", "n_restarts", "seed")
        if self.d < 1:
            raise ConfigError("latent dimension d must be >= 1")
        if self.n_iters < 0:
            raise ConfigError("n_iters must be >= 0")
        if not (math.isfinite(self.rel_tol) and self.rel_tol >= 0):
            raise ConfigError("rel_tol must be finite and >= 0")
        if self.n_restarts < 1:
            raise ConfigError("n_restarts must be >= 1")


@dataclass(frozen=True)
class SufficientStats:
    """Averaged second-moment matrices accumulated from a smoothed trajectory.

    ``sigma``/``phi`` are the current/lagged state moments, ``b`` the
    observation-state cross moment, ``c`` the lag-one state cross moment, and
    ``d`` the observation outer-product moment, each averaged over k = 1..K.
    ``Y`` is the N x K data, kept by reference; ``d`` is formed
    from it on access, because the diagonal-noise M-step needs only its
    diagonal.
    """

    sigma: np.ndarray
    phi: np.ndarray
    b: np.ndarray
    c: np.ndarray
    Y: np.ndarray

    @property
    def d(self) -> np.ndarray:
        return symmetrize((self.Y @ self.Y.T) / self.Y.shape[1])


@dataclass(frozen=True)
class CounterfactualEstimate:
    """Post-intervention counterfactual path for the target unit.

    ``var_signal`` is the smoothed latent contribution h1' P h1 per period and
    ``var_pred`` adds the target's observation-noise variance.  The interval
    bounds are Gaussian at the configured ``level`` with variance ``var_pred``.
    """

    y_hat: np.ndarray
    var_signal: np.ndarray
    var_pred: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    fitted_pre: np.ndarray
    level: float


@dataclass(frozen=True)
class EmResult:
    """The winning EM restart: its parameters, its log-likelihood trace and its index."""

    theta: StateSpaceParams
    loglik_trace: list[float]
    restart_index: int = 0


@dataclass(frozen=True)
class TascResult:
    """The EM fit :func:`tasc_infer` used and the counterfactual it inferred with it."""

    em: EmResult
    estimate: CounterfactualEstimate


def init_params(Y_pre: np.ndarray, config: EmConfig, restart_index: int = 0) -> StateSpaceParams:
    """Deterministic initialization from a rank-d SVD of the pre panel.

    H takes the top-d left singular vectors scaled by singular values over
    sqrt(t0), so H times the implied latent series reproduces the rank-d
    reconstruction; the transition starts near 0.9 I with a small seeded
    perturbation, and R starts at the per-row residual variances of the
    reconstruction, floored at ``_INIT_R_FLOOR`` times the panel's mean
    square, as a vector under ``config.diag_noise``.
    """
    Y_pre = np.asarray(Y_pre, dtype=float)
    n, t0 = Y_pre.shape
    d = config.d
    if t0 < 2:
        raise ConfigError("need at least 2 pre-intervention periods")
    if d > min(n, t0):
        raise ConfigError(f"latent dimension d={d} exceeds min(N, t0)={min(n, t0)}")
    rng = np.random.default_rng([config.seed & 0xFFFFFFFF, restart_index])

    u, s, vt = np.linalg.svd(Y_pre, full_matrices=False)
    # LAPACK's sign for each singular pair can flip when the donor rows are
    # permuted.  Each row of vt indexes time, so making it positive at its
    # largest-magnitude entry fixes the sign without seeing the row order.
    signs = np.sign(vt[np.arange(len(vt)), np.abs(vt).argmax(axis=1)])
    u, vt = u * signs, vt * signs[:, None]
    scale = np.sqrt(t0)
    H = u[:, :d] * (s[:d] / scale)
    latent = scale * vt[:d]  # H @ latent equals the rank-d reconstruction
    A = 0.9 * np.eye(d) + 0.01 * rng.standard_normal((d, d))
    Q = np.eye(d)
    resid = Y_pre - H @ latent
    r = np.maximum(np.mean(resid**2, axis=1), _INIT_R_FLOOR * np.mean(Y_pre**2))
    R = r if config.diag_noise else np.diag(r)
    m0 = latent[:, 0]
    P0 = np.eye(d)
    return StateSpaceParams(A=A, H=H, Q=Q, R=R, m0=m0, P0=P0)


def accumulate_stats(smoothed: SmoothedTrajectory, Y: np.ndarray) -> SufficientStats:
    """Average the five moment matrices over k = 1..K."""
    Y = np.asarray(Y, dtype=float)
    k_total = Y.shape[1]
    if len(smoothed) != k_total + 1:
        raise ConfigError("smoothed trajectory does not cover indices 0..K")
    ms, Ps, G = smoothed.m_s, smoothed.P_s, smoothed.G

    # Each sum over k of an outer product m_k m_j' is one GEMM over the stacked means.
    sigma = (Ps[1:].sum(axis=0) + ms[1:].T @ ms[1:]) / k_total
    phi = (Ps[:-1].sum(axis=0) + ms[:-1].T @ ms[:-1]) / k_total
    b = (Y @ ms[1:]) / k_total
    # Lag-one smoothed cross covariance is P_k^s G_{k-1}^T.
    c = ((Ps[1:] @ G.transpose(0, 2, 1)).sum(axis=0) + ms[1:].T @ ms[:-1]) / k_total
    return SufficientStats(sigma=symmetrize(sigma), phi=symmetrize(phi), b=b, c=c, Y=Y)


@np.errstate(invalid="ignore")  # a failing factorization is NaN, judged by the gate or ensure_spd
def m_step(
    stats: SufficientStats,
    theta_old: StateSpaceParams,
    m0s: np.ndarray,
    P0s: np.ndarray,
) -> StateSpaceParams:
    """Closed-form parameter update from accumulated moments.

    A' and H' are the exact maximizers; Q' and R' are the residual second
    moments evaluated at the fresh A'/H' (kept diagonal when
    ``theta_old.diag_noise``, R' then as its vector), floored to stay
    positive definite: Q' at ``_NOISE_FLOOR``, R' at ``_NOISE_FLOOR`` times
    the data's mean square.  The initial covariance update inflates the smoothed P0
    by the shift of the initial mean from its previous value.  Phi and Sigma
    are factored in one stacked call; a singular or ill-conditioned one raises
    NumericalError from its Cholesky gate.
    """
    diags = cholesky(np.array([stats.phi, stats.sigma])).diagonal(axis1=1, axis2=2)
    gate_factor_diag(diags[0], "state moment matrix Phi")
    gate_factor_diag(diags[1], "state moment matrix Sigma")
    A_new = spd_solve(stats.phi, stats.c.T).T  # c Phi^-1, Phi symmetric
    H_new = spd_solve(stats.sigma, stats.b.T).T  # b Sigma^-1

    q_full = stats.sigma - 2.0 * stats.c @ A_new.T + A_new @ stats.phi @ A_new.T
    Y = stats.Y
    mean_sq = np.einsum("ik,ik->i", Y, Y) / Y.shape[1]  # per row
    r_floor = _NOISE_FLOOR * mean_sq.mean()
    if theta_old.diag_noise:
        # Only R's diagonal is kept, so it is formed row by row in O(NK + Nd^2)
        # rather than from the N x N moment d.
        r_diag = (
            mean_sq
            - 2.0 * np.einsum("ij,ij->i", stats.b, H_new)
            + np.einsum("ij,ij->i", H_new @ stats.sigma, H_new)
        )
        Q_new = np.diag(np.maximum(np.diag(q_full), _NOISE_FLOOR))
        R_new = np.maximum(r_diag, r_floor)
    else:
        r_full = stats.d - 2.0 * stats.b @ H_new.T + H_new @ stats.sigma @ H_new.T
        Q_new = _floor_spectrum(symmetrize(q_full), _NOISE_FLOOR)
        R_new = _floor_spectrum(symmetrize(r_full), r_floor)

    shift = m0s - theta_old.m0
    P0_new = ensure_spd(P0s + np.outer(shift, shift), "initial covariance P0")
    return StateSpaceParams(A=A_new, H=H_new, Q=Q_new, R=R_new, m0=m0s, P0=P0_new)


def _floor_spectrum(m: np.ndarray, floor: float) -> np.ndarray:
    low = min_eig(m)
    if low < floor:
        m = m + (floor - low) * np.eye(m.shape[0])
    return m


def _em_single(Y_pre: np.ndarray, config: EmConfig, restart_index: int) -> EmResult:
    theta = init_params(Y_pre, config, restart_index)
    trace: list[float] = []
    min_gain = config.rel_tol * Y_pre.size
    # The last pass only scores the final theta; without iterations there is no pass.
    for it in range(config.n_iters + 1 if config.n_iters else 0):
        filtered = _forward(Y_pre, theta)
        ll = filtered.loglik
        if trace and ll < trace[-1] - _MONOTONE_SLACK:
            raise NumericalError(f"EM log-likelihood decreased from {trace[-1]:.6f} to {ll:.6f}")
        converged = bool(trace) and ll - trace[-1] < min_gain
        trace.append(ll)
        if converged or it == config.n_iters:
            break
        smoothed = smooth_pass(filtered, theta)
        stats = accumulate_stats(smoothed, Y_pre)
        theta = m_step(stats, theta, smoothed.m_s[0], smoothed.P_s[0])
    return EmResult(theta=theta, loglik_trace=trace, restart_index=restart_index)


def em_pre(Y_pre: np.ndarray, config: EmConfig) -> EmResult:
    """Fit the state-space model to pre-intervention data by EM.

    Runs ``n_restarts`` independently initialized fits and returns the one
    with the highest final log-likelihood; the trace of that fit is
    non-decreasing up to numerical slack.  Raises FitError when every restart
    fails numerically.
    """
    Y_pre = np.asarray(Y_pre, dtype=float)
    if Y_pre.ndim != 2:
        raise ConfigError("Y_pre must be an N x t0 matrix")
    if not np.all(np.isfinite(Y_pre)):
        raise ConfigError("pre-intervention data must be finite")
    fits: list[EmResult] = []
    causes: list[Exception] = []
    for r in range(config.n_restarts):
        try:
            fits.append(_em_single(Y_pre, config, r))
        except (TascError, np.linalg.LinAlgError) as exc:
            logger.debug("EM restart %d failed: %s", r, exc)
            causes.append(exc)
        if fits and config.n_iters == 0:
            break  # without iterations every restart is scoreless; keep the first that succeeds
    if not fits:
        raise FitError(
            f"all {config.n_restarts} EM restarts failed: " + "; ".join(str(c) for c in causes), causes=causes
        )
    return max(fits, key=lambda fit: fit.loglik_trace[-1] if fit.loglik_trace else -np.inf)  # first of equals


def tasc_infer(
    panel: PanelData,
    config: EmConfig,
    level: float = 0.95,
    em: EmResult | None = None,
) -> TascResult:
    """Learn the model on pre-intervention columns, then infer the counterfactual.

    The full-length filtering pass treats the target as missing from the
    intervention on (its stored post values never matter), a smoothing pass
    refines every state, and the counterfactual mean per post period is the
    target loading applied to the smoothed state.  Intervals are Gaussian with
    variance ``var_pred`` (signal plus target noise).

    A given ``em`` replaces the EM fit: only the counterfactual pass runs,
    with its theta, whose rows must follow the panel's rows.  ``config`` then
    supplies only ``d``, which is checked against theta.
    """
    if not 0.0 < level < 1.0:
        raise ConfigError("confidence level must be in (0, 1)")
    t0 = panel.t0

    if em is None:
        em = em_pre(panel.values[:, :t0], config)
    elif em.theta.n_obs != panel.n_units or em.theta.d != config.d:
        raise ConfigError(
            f"given EM fit has N={em.theta.n_obs}, d={em.theta.d}; "
            f"panel and config need N={panel.n_units}, d={config.d}"
        )
    theta = em.theta

    filtered = _forward(panel.values, theta, missing_target_from=t0)
    smoothed = smooth_pass(filtered, theta)

    h1 = theta.H[0]
    r1 = float(theta.R[0] if theta.diag_noise else theta.R[0, 0])
    proj = smoothed.m_s[1:] @ h1  # length T, index t is period t (0-based)
    fitted_pre = proj[:t0]
    y_hat = proj[t0:]
    var_signal = np.maximum(np.einsum("i,kij,j->k", h1, smoothed.P_s[t0 + 1 :], h1), 0.0)
    var_pred = var_signal + r1
    z = -NormalDist().inv_cdf((1.0 - level) / 2.0)  # not 0.5 + level/2, which rounds to 1 as level nears 1
    width = z * np.sqrt(var_pred)
    estimate = CounterfactualEstimate(
        y_hat=y_hat,
        var_signal=var_signal,
        var_pred=var_pred,
        ci_lower=y_hat - width,
        ci_upper=y_hat + width,
        fitted_pre=fitted_pre,
        level=level,
    )
    return TascResult(em=em, estimate=estimate)


def confidence_width(est: CounterfactualEstimate) -> float:
    """Mean distance between upper and lower interval bounds over post periods."""
    return float(np.mean(est.ci_upper - est.ci_lower))

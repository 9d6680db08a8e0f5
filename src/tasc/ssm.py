"""Linear-Gaussian state-space primitives.

The model is

    x_t = A x_{t-1} + q_t,        q_t ~ N(0, Q),   x_0 ~ N(m0, P0)
    y_t = H x_t + s_t * 1 + r_t,  r_t ~ N(0, R)

with a d-dimensional latent state, N-dimensional observations and an optional
per-period scalar seasonal offset s_t.  This module provides the forward
(Kalman) recursion, a variant that treats the target row of y_t as missing by
sending its observation-noise variance to infinity, the backward (RTS)
smoothing recursion, and the innovation log-likelihood.

The forward update never factors the N x N innovation covariance S.  It is
collapsed to d x d by Woodbury and the matrix determinant lemma (Jungbacker &
Koopman 2015; Durbin & Koopman, Time Series Analysis by State Space Methods,
section 6.5): once per parameter set and row set, R is factored (a reciprocal
of its diagonal under ``diag_noise``) and J = H' R^-1 H formed in O(N d^2);
each step then costs O(N d + d^3), plus O(N^2) to whiten the innovation when
R is a full matrix.  A missing target is the same update conditioned on the
donor rows ``1:``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import solve_triangular

from ._numeric import check_factor_diag, min_eig, psd_sqrt, spd_cholesky, spd_solve, symmetrize
from .errors import ConfigError, NumericalError

__all__ = [
    "StateSpaceParams",
    "FilterState",
    "SmoothedTrajectory",
    "SeasonalOffsets",
    "initial_state",
    "kalman_step",
    "kalman_step_missing_target",
    "rts_step",
    "filter_pass",
    "smooth_pass",
    "log_likelihood",
    "params_to_json",
    "params_from_json",
]

_PD_TOL = 1e-10
_LOG_2PI = float(np.log(2.0 * np.pi))


def _check_spd(name: str, m: np.ndarray) -> None:
    if not np.allclose(m, m.T, atol=1e-8):
        raise ConfigError(f"{name} must be symmetric")
    if min_eig(m) <= -_PD_TOL:
        raise ConfigError(f"{name} must be positive definite")


@dataclass(frozen=True)
class StateSpaceParams:
    """Parameter set {A, H, Q, R, m0, P0} of the linear-Gaussian model."""

    A: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    m0: np.ndarray
    P0: np.ndarray
    diag_noise: bool = True

    def __post_init__(self):
        for name in ("A", "H", "Q", "R", "m0", "P0"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        d = self.A.shape[0]
        n = self.H.shape[0]
        if self.A.shape != (d, d):
            raise ConfigError("A must be square")
        if self.H.shape != (n, d):
            raise ConfigError(f"H must be N x d, got {self.H.shape}")
        if self.Q.shape != (d, d) or self.P0.shape != (d, d):
            raise ConfigError("Q and P0 must be d x d")
        if self.R.shape != (n, n):
            raise ConfigError("R must be N x N")
        if self.m0.shape != (d,):
            raise ConfigError("m0 must have length d")
        for name in ("Q", "R"):
            m = getattr(self, name)
            if not self.diag_noise:
                _check_spd(name, m)
                continue
            # A diagonal matrix is PD exactly when its diagonal is, so the
            # N x N eigendecomposition is skipped.
            diag = np.diag(m)
            if np.any(m != np.diag(diag)):
                raise ConfigError("diag_noise requires exactly diagonal Q and R")
            if diag.min() <= -_PD_TOL:
                raise ConfigError(f"{name} must be positive definite")
        _check_spd("P0", self.P0)

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def n_obs(self) -> int:
        return self.H.shape[0]


@dataclass(frozen=True)
class FilterState:
    """Predicted and filtered moments of the latent state at time index k."""

    k: int
    m_pred: np.ndarray
    P_pred: np.ndarray
    m: np.ndarray
    P: np.ndarray


@dataclass(frozen=True)
class SmoothedTrajectory:
    """Smoothed moments for indices 0..K plus the gains G_0..G_{K-1}.

    Index 0 is the initial state; index K carries the filtered terminal
    moments unchanged.
    """

    m_s: np.ndarray  # (K+1, d)
    P_s: np.ndarray  # (K+1, d, d)
    G: np.ndarray  # (K, d, d)

    def __len__(self) -> int:
        return self.m_s.shape[0]


@dataclass(frozen=True)
class SeasonalOffsets:
    """Per-period scalar offsets added to every observation coordinate."""

    s: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.s, dtype=float).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "s", arr)
        if arr.ndim != 1:
            raise ConfigError("seasonal offsets must be a 1-D vector")


def initial_state(theta: StateSpaceParams) -> FilterState:
    """The k=0 pseudo-state carrying the prior moments (m0, P0)."""
    return FilterState(k=0, m_pred=theta.m0, P_pred=theta.P0, m=theta.m0, P=theta.P0)


@dataclass(frozen=True)
class _ObservedRows:
    """The observation rows one update conditions on, prepared once per theta.

    Observations are whitened by R's Cholesky factor C (R = C C'), so that
    for an innovation v the update needs only ``Hw = C^-1 H`` and
    ``J = H' R^-1 H = Hw' Hw``.  Under ``diag_noise`` C is the square root of
    R's diagonal and whitening is an elementwise product.
    """

    rows: slice
    Hw: np.ndarray  # C^-1 H[rows]
    J: np.ndarray  # Hw' Hw, d x d
    logdet_R: float
    inv_sd: np.ndarray | None  # 1 / sqrt(diag R[rows]) under diag_noise
    low_R: np.ndarray | None  # C otherwise

    def whiten(self, v: np.ndarray) -> np.ndarray:
        if self.inv_sd is not None:
            return self.inv_sd * v
        return solve_triangular(self.low_R, v, lower=True, check_finite=False)


_INNOVATION = "innovation covariance S"


def _observed_rows(theta: StateSpaceParams, target_missing: bool, step: int) -> _ObservedRows:
    """Prepare the update over all rows, or over the donor rows ``1:``.

    R's block on those rows is gated as the innovation covariance would be:
    a failure raises NumericalError at ``step``, the first step that uses it.
    """
    if target_missing and theta.n_obs < 2:
        raise ConfigError("missing-target update needs at least one donor row")
    rows = slice(1, None) if target_missing else slice(None)
    H = theta.H[rows]
    if theta.diag_noise:
        r = np.diag(theta.R)[rows]
        if not np.all(r > 0):
            raise NumericalError(f"{_INNOVATION} is not positive definite", step=step)
        sd = np.sqrt(r)
        check_factor_diag(sd, _INNOVATION, step)
        inv_sd, low_R = 1.0 / sd, None
        Hw = inv_sd[:, None] * H
        logdet_R = float(np.log(r).sum())
    else:
        low_R = spd_cholesky(theta.R[rows, rows], _INNOVATION, step=step)
        inv_sd = None
        Hw = solve_triangular(low_R, H, lower=True, check_finite=False)
        logdet_R = 2.0 * float(np.log(np.diag(low_R)).sum())
    J = symmetrize(Hw.T @ Hw)
    return _ObservedRows(rows=rows, Hw=Hw, J=J, logdet_R=logdet_R, inv_sd=inv_sd, low_R=low_R)


def _update(y_k, prev, theta, s_k, obs: _ObservedRows) -> tuple[FilterState, float]:
    """Predict from ``prev``, then condition on the rows of ``obs``.

    Information form: with P_pred = L L' and M = I + L' J L (d x d),

        P = L M^-1 L',   m = m_pred + L a,   a = M^-1 L' Hw' vw,

    where vw is the whitened innovation.  By Woodbury and the determinant
    lemma log det S = log det R + log det M, and v' S^-1 v equals
    |vw - Hw L a|^2 + |a|^2, a sum of squares free of cancellation.
    Returns the state and the step's log-likelihood term.
    """
    A, Q = theta.A, theta.Q
    k = prev.k + 1
    m_pred = A @ prev.m
    P_pred = symmetrize(A @ prev.P @ A.T + Q)
    y = y_k[obs.rows] if s_k is None else y_k[obs.rows] - s_k
    vw = obs.whiten(y) - obs.Hw @ m_pred  # whitened innovation
    L = psd_sqrt(P_pred)  # no gate here: the smoother gates P_pred
    M = L.T @ obs.J @ L  # potrf reads only the lower triangle: no symmetrize needed
    M.flat[:: M.shape[0] + 1] += 1.0
    low = spd_cholesky(M, _INNOVATION, step=k)
    # Whitened by R, S is I + Hw P_pred Hw': its spectrum is M's up to unit
    # eigenvalues, so M's factor plus a unit diagonal gates S as a dense
    # factor of S would be gated.
    check_factor_diag(np.append(low.diagonal(), 1.0), _INNOVATION, step=k)
    u = L.T @ (obs.Hw.T @ vw)
    sol = spd_solve(low, np.column_stack([L.T, u]))  # M^-1 [L', u]
    a = sol[:, -1]
    delta = L @ a
    P = symmetrize(L @ sol[:, :-1])
    resid = vw - obs.Hw @ delta
    loglik = -0.5 * (
        vw.shape[0] * _LOG_2PI
        + obs.logdet_R
        + 2.0 * float(np.log(low.diagonal()).sum())
        + float(resid @ resid + a @ a)
    )
    return FilterState(k=k, m_pred=m_pred, P_pred=P_pred, m=m_pred + delta, P=P), loglik


def kalman_step(
    y_k: np.ndarray,
    prev: FilterState,
    theta: StateSpaceParams,
    s_k: float | None = None,
) -> FilterState:
    """One forward update: predict from ``prev`` then condition on ``y_k``."""
    obs = _observed_rows(theta, False, step=prev.k + 1)
    state, _ = _update(np.asarray(y_k, dtype=float), prev, theta, s_k, obs)
    return state


def kalman_step_missing_target(
    y_k: np.ndarray,
    prev: FilterState,
    theta: StateSpaceParams,
    s_k: float | None = None,
) -> FilterState:
    """Forward update treating the target coordinate (row 0) of ``y_k`` as missing.

    The target's observation-noise variance is sent to infinity, so its row
    carries no information: the update conditions on the donor rows alone,
    which equals filtering the donor-only model with H2 = H[1:] and
    R2 = R[1:, 1:].
    """
    obs = _observed_rows(theta, True, step=prev.k + 1)
    state, _ = _update(np.asarray(y_k, dtype=float), prev, theta, s_k, obs)
    return state


def rts_step(
    filtered_k: FilterState,
    m_s_next: np.ndarray,
    P_s_next: np.ndarray,
    theta: StateSpaceParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One backward smoothing update; returns (m_s, P_s, G) at index k."""
    A, Q = theta.A, theta.Q
    m_k, P_k = filtered_k.m, filtered_k.P
    m_pred = A @ m_k
    P_pred = symmetrize(A @ P_k @ A.T + Q)
    low = spd_cholesky(P_pred, "one-step prediction covariance", step=filtered_k.k)
    G = spd_solve(low, A @ P_k).T  # G = P_k A^T P_pred^{-1}
    m_s = m_k + G @ (m_s_next - m_pred)
    P_s = symmetrize(P_k + G @ (P_s_next - P_pred) @ G.T)
    return m_s, P_s, G


def _seasonal_array(seasonal, k_total: int) -> np.ndarray | None:
    if seasonal is None:
        return None
    s = seasonal.s if isinstance(seasonal, SeasonalOffsets) else np.asarray(seasonal, dtype=float)
    if s.shape[0] < k_total:
        raise ConfigError(f"seasonal offsets cover {s.shape[0]} periods, need {k_total}")
    return s


def _forward(
    Y: np.ndarray,
    theta: StateSpaceParams,
    seasonal=None,
    missing_target_from: int | None = None,
) -> tuple[list[FilterState], float]:
    """Forward pass returning filtered states and the innovation log-likelihood.

    At missing-target steps only the donor block contributes to the likelihood
    (the target coordinate has no finite-noise model there).
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] < 1:
        raise ConfigError("Y must be N x K with K >= 1")
    if Y.shape[0] != theta.n_obs:
        raise ConfigError(f"Y has {Y.shape[0]} rows but H has {theta.n_obs}")
    k_total = Y.shape[1]
    s = _seasonal_array(seasonal, k_total)
    cut = k_total if missing_target_from is None else max(0, missing_target_from)

    states: list[FilterState] = []
    state = initial_state(theta)
    loglik = 0.0
    prepared: dict[bool, _ObservedRows] = {}
    for j in range(k_total):
        missing = j >= cut
        if missing not in prepared:
            prepared[missing] = _observed_rows(theta, missing, step=j + 1)
        s_j = None if s is None else float(s[j])
        state, ll = _update(Y[:, j], state, theta, s_j, prepared[missing])
        loglik += ll
        states.append(state)
    return states, loglik


def filter_pass(
    Y: np.ndarray,
    theta: StateSpaceParams,
    seasonal=None,
    missing_target_from: int | None = None,
) -> list[FilterState]:
    """Run the forward recursion over the columns of ``Y``.

    ``missing_target_from`` is the 0-based column index from which the target
    row is treated as missing; earlier columns use the standard update.
    """
    states, _ = _forward(Y, theta, seasonal, missing_target_from)
    return states


def smooth_pass(filtered: list[FilterState], theta: StateSpaceParams) -> SmoothedTrajectory:
    """Backward RTS recursion over a filtered trajectory, including index 0."""
    if not filtered:
        raise ConfigError("smooth_pass needs a nonempty filtered trajectory")
    k_total = len(filtered)
    d = theta.d
    m_s = np.zeros((k_total + 1, d))
    P_s = np.zeros((k_total + 1, d, d))
    G = np.zeros((k_total, d, d))

    m_s[k_total] = filtered[-1].m
    P_s[k_total] = filtered[-1].P
    states = [initial_state(theta)] + list(filtered)
    for k in range(k_total - 1, -1, -1):
        # The filter already computed the prediction from state k to k+1; reuse it.
        nxt = states[k + 1]
        low = spd_cholesky(nxt.P_pred, "one-step prediction covariance", step=k)
        G[k] = spd_solve(low, theta.A @ states[k].P).T
        m_s[k] = states[k].m + G[k] @ (m_s[k + 1] - nxt.m_pred)
        P_s[k] = symmetrize(states[k].P + G[k] @ (P_s[k + 1] - nxt.P_pred) @ G[k].T)
    return SmoothedTrajectory(m_s=m_s, P_s=P_s, G=G)


def log_likelihood(
    Y: np.ndarray,
    theta: StateSpaceParams,
    seasonal=None,
    missing_target_from: int | None = None,
) -> float:
    """Innovation log-likelihood: sum of log N(v_k; 0, S_k) over the pass."""
    _, loglik = _forward(Y, theta, seasonal, missing_target_from)
    return loglik


def params_to_json(
    theta: StateSpaceParams,
    loglik_trace: list[float] | None = None,
    dest: str | Path | None = None,
) -> str:
    """Serialize parameters as a JSON document (lossless float round trip)."""
    doc = {
        "d": theta.d,
        "n_obs": theta.n_obs,
        "diag_noise": theta.diag_noise,
        "A": theta.A.tolist(),
        "H": theta.H.tolist(),
        "Q": theta.Q.tolist(),
        "R": theta.R.tolist(),
        "m0": theta.m0.tolist(),
        "P0": theta.P0.tolist(),
    }
    if loglik_trace is not None:
        doc["loglik_trace"] = [float(x) for x in loglik_trace]
    text = json.dumps(doc, indent=2)
    if dest is not None:
        Path(dest).write_text(text + "\n")
    return text


def params_from_json(source: str | Path) -> StateSpaceParams:
    """Inverse of :func:`params_to_json`; accepts a path or a JSON string."""
    if isinstance(source, Path):
        text = source.read_text()
    elif isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    else:
        text = Path(source).read_text()
    doc = json.loads(text)
    return StateSpaceParams(
        A=np.array(doc["A"], dtype=float),
        H=np.array(doc["H"], dtype=float),
        Q=np.array(doc["Q"], dtype=float),
        R=np.array(doc["R"], dtype=float),
        m0=np.array(doc["m0"], dtype=float),
        P0=np.array(doc["P0"], dtype=float),
        diag_noise=bool(doc.get("diag_noise", True)),
    )

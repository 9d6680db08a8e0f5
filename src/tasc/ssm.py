"""Linear-Gaussian state-space primitives.

The model is

    x_t = A x_{t-1} + q_t,   q_t ~ N(0, Q),   x_0 ~ N(m0, P0)
    y_t = H x_t + r_t,       r_t ~ N(0, R)

with a d-dimensional latent state and N-dimensional observations.  This
module provides the forward (Kalman) pass, which treats the target row of
y_t as missing from a given column on by sending its observation-noise
variance to infinity and also returns the innovation log-likelihood, and
the backward (RTS) smoothing pass.

The forward update never factors the N x N innovation covariance S.  It is
collapsed to d x d by Woodbury and the matrix determinant lemma (Jungbacker &
Koopman 2015; Durbin & Koopman, Time Series Analysis by State Space Methods,
section 6.5): once per parameter set and row set, R is factored (a reciprocal
of its diagonal under ``diag_noise``) and J = H' R^-1 H formed in O(N d^2);
each step then costs O(N d + d^3), plus O(N^2) to whiten the innovation when
R is a full matrix.  A missing target is the same update conditioned on the
donor rows ``1:``.

Each step splits into a covariance half (P_pred, its factor, M = I + L' J L,
W and P), which depends on theta alone, and a mean half, which depends on the
data.  The forward pass filters each row set (all rows before
``missing_target_from``, donors after it) as one segment.  Within a segment
the covariance half runs only until a step's P_pred equals an earlier step's
bit for bit.  From there every covariance quantity repeats with the period
between the two, whether the recursion reached its fixed point (the steady
state of Durbin & Koopman, section 4.3.4) or ends in a last-ulp cycle, so
later steps reuse the stored entries by phase.  The reuse needs no tolerance
and gives bitwise the results of recomputing.  Both segments append their
entries to one table.  The mean half is a linear recursion in the state, run
as one log-depth scan over the segment (Sarkka & Garcia-Fernandez, Temporal
parallelization of Bayesian smoothers, IEEE TAC 2021); it sums in another
order than a per-step loop, so means agree with such a loop to rounding, not
bitwise.

The forward pass gates every M of the table after its covariance loops, and
the smoother gates every factor of P_pred before it forms a gain, each as one
call of :func:`tasc._numeric.gate_factor_diag` over the stacked factor
diagonals; that function documents the messages and the step a failure
names.  The smoother gains depend on theta alone as well, so the smoother
solves one per distinct pair of consecutive entries.  It runs the smoothed
means as a reverse scan and repeats smoothed covariances by phase once their
inputs recur.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
import numpy as np

from ._numeric import (
    cholesky,
    gate_factor_diag,
    min_eig,
    psd_sqrt,
    read_json_object,
    spd_cholesky,
    spd_solve,
    symmetrize,
    try_cholesky,
    write_json,
)
from .errors import ConfigError

__all__ = [
    "StateSpaceParams",
    "FilteredTrajectory",
    "SmoothedTrajectory",
    "filter_pass",
    "smooth_pass",
    "params_to_json",
    "params_from_json",
]

_PD_TOL = 1e-10
_LOG_2PI = float(np.log(2.0 * np.pi))


def _check_spd(name: str, m: np.ndarray) -> None:
    # np.allclose(m, m.T, atol=1e-8) for finite m, without its generality
    if not (np.abs(m - m.T) <= 1e-8 + 1e-5 * np.abs(m.T)).all():
        raise ConfigError(f"{name} must be symmetric")
    if min_eig(m) <= -_PD_TOL:
        raise ConfigError(f"{name} must be positive definite")


@dataclass(frozen=True)
class StateSpaceParams:
    """Parameter set {A, H, Q, R, m0, P0} of the linear-Gaussian model.

    R's shape is the noise model: a length-N R is the diagonal of a diagonal
    covariance (``diag_noise``; Q must then be exactly diagonal), an N x N R a full one.
    """

    A: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    m0: np.ndarray
    P0: np.ndarray

    def __post_init__(self):
        for name in ("A", "H", "Q", "R", "m0", "P0"):
            arr = np.array(getattr(self, name), dtype=float)
            if not np.isfinite(arr).all():
                raise ConfigError(f"{name} must be finite")
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
        if self.R.shape not in ((n,), (n, n)):
            raise ConfigError("R must be a length-N diagonal or N x N")
        if self.m0.shape != (d,):
            raise ConfigError("m0 must have length d")
        if self.diag_noise:
            # A diagonal matrix is PD exactly when its diagonal is, so no
            # eigendecomposition is needed.
            q = np.diag(self.Q)
            if np.any(self.Q != np.diag(q)):
                raise ConfigError("a diagonal R requires an exactly diagonal Q")
            for name, diag in (("Q", q), ("R", self.R)):
                if diag.min() <= -_PD_TOL:
                    raise ConfigError(f"{name} must be positive definite")
        else:
            _check_spd("Q", self.Q)
            _check_spd("R", self.R)
        _check_spd("P0", self.P0)

    @property
    def diag_noise(self) -> bool:
        """Whether R is held as the diagonal of a diagonal covariance."""
        return self.R.ndim == 1

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def n_obs(self) -> int:
        return self.H.shape[0]


@dataclass(frozen=True)
class FilteredTrajectory:
    """Predicted and filtered moments for time indices 1..K, and the innovation log-likelihood.

    Row k of ``m_pred`` and ``m`` is time index k+1.  The covariance
    quantities depend on theta alone and repeat once the recursion reaches its
    fixed point or a last-ulp cycle, so each distinct one is stored once (the
    ``*_e`` arrays, E entries) and ``cov[k]`` names the entry of row k.
    ``P_pred`` and ``P`` expand them to K x d x d.  ``loglik`` sums
    log N(v_k; 0, S_k) over the pass.  Treat the arrays as read-only.
    """

    m_pred: np.ndarray  # (K, d)
    m: np.ndarray  # (K, d)
    cov: np.ndarray  # (K,) entry index of each row
    P_pred_e: np.ndarray  # (E, d, d)
    L_e: np.ndarray  # (E, d, d) Cholesky factor of P_pred, or psd_sqrt's root where not chol_e
    chol_e: np.ndarray  # (E,) bool
    P_e: np.ndarray  # (E, d, d)
    W_e: np.ndarray  # (E, d, d), M^-1 L'
    logdet_M_e: np.ndarray  # (E,)
    loglik: float

    def __len__(self) -> int:
        return self.m.shape[0]

    @property
    def P_pred(self) -> np.ndarray:
        return self.P_pred_e[self.cov]

    @property
    def P(self) -> np.ndarray:
        return self.P_e[self.cov]


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


_INNOVATION = "innovation covariance S"
_PREDICTION = "one-step prediction covariance"


def _observed_rows(
    theta: StateSpaceParams, Y: np.ndarray, target_missing: bool, step: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Whiten the update over all rows of ``Y``, or over the donor rows ``1:``.

    Those rows are whitened by R's Cholesky factor C on them (R = C C'), the
    square root of the vector R under ``diag_noise``, so that the update
    needs only ``Yw = C^-1 Y``, ``Hw = C^-1 H`` and ``J = H' R^-1 H = Hw' Hw``.
    Returns (Yw, Hw, J, log det R).  R's block is gated as the innovation
    covariance would be: a failure raises NumericalError at ``step``, the
    first step that uses it.
    """
    if target_missing and theta.n_obs < 2:
        raise ConfigError("missing-target update needs at least one donor row")
    rows = slice(1, None) if target_missing else slice(None)
    H, Y = theta.H[rows], Y[rows]
    if theta.diag_noise:
        r = theta.R[rows]
        sd = np.sqrt(np.maximum(r, 0.0))  # a pivot <= 0 where r is
        gate_factor_diag(sd, _INNOVATION, step)
        inv_sd = (1.0 / sd)[:, None]
        Yw, Hw = inv_sd * Y, inv_sd * H
        logdet_R = float(np.log(r).sum())
    else:
        low_R = spd_cholesky(theta.R[rows, rows], _INNOVATION, step=step)
        Yw, Hw = spd_solve(low_R, Y), spd_solve(low_R, H)
        logdet_R = 2.0 * float(np.log(np.diag(low_R)).sum())
    return Yw, Hw, symmetrize(Hw.T @ Hw), logdet_R


def _covariance_half(
    P: np.ndarray, theta: StateSpaceParams, J: np.ndarray, n_cols: int, k0: int, table: list[tuple]
) -> np.ndarray:
    """Append the distinct covariance entries of the ``n_cols`` steps after time index ``k0`` to ``table``.

    Starts from the filtered covariance P.  Information form: with
    P_pred = L L' and M = I + L' J L (d x d), P = L W and W = M^-1 L'.  The
    loop makes two LAPACK calls per step, the factor of P_pred and the solve
    for W, and stops at the first P_pred equal bitwise to an earlier one of
    the segment.  Each new entry is appended as the row (P_pred, L, whether L
    is P_pred's Cholesky factor, P, W, M, its step).  Returns the table index
    of each step's entry, filled by phase from the cycle on.  Nothing is gated
    here: the forward pass gates every M of the table, the smoother every
    P_pred.  Call with the "invalid" flag silenced.
    """
    # np.dot rather than @: at d x d it skips most of matmul's dispatch cost,
    # and both call the same BLAS routine.
    A, Q, dot = theta.A, theta.Q, np.dot
    unit = np.eye(theta.d)
    cov = np.arange(len(table), len(table) + n_cols)
    seen: dict[bytes, int] = {}
    for j in range(n_cols):
        P_pred = symmetrize(dot(dot(A, P), A.T) + Q)
        first = seen.setdefault(P_pred.tobytes(), j)
        if first != j:
            cov[j:] = cov[first + np.arange(n_cols - j) % (j - first)]
            break
        low_pred = try_cholesky(P_pred)  # no gate here: the smoother gates P_pred
        L = psd_sqrt(P_pred) if low_pred is None else low_pred
        M = dot(dot(L.T, J), L)  # unsymmetrized: potrf reads one triangle, and any asymmetry is rounding
        M += unit
        W = spd_solve(M, L.T)
        P = symmetrize(dot(L, W))
        table.append((P_pred, L, low_pred is not None, P, W, M, k0 + 1 + j))
    return cov


def _linear_scan(F: np.ndarray, g: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Rows x_k = F_k x_{k-1} + g_k for k = 0..n-1, from x_{-1} = x0, as one inclusive scan.

    Hillis-Steele doubling (Blelloch 1990): after the round with shift s, row k
    holds the composition of steps k-2s+1..k, and ``Fs`` the composed F of the
    rows a later round reads, so about log2(n) batched rounds replace the loop.
    """
    x = g.copy()
    x[0] += F[0] @ x0
    Fs = F[1:]
    shift = 1
    while shift < len(x):
        x[shift:] += (Fs @ x[:-shift, :, None])[:, :, 0]
        if 2 * shift < len(x):  # the last round reads no composed F
            Fs = Fs[shift:] @ Fs[:-shift]
        shift *= 2
    return x


def filter_pass(
    Y: np.ndarray,
    theta: StateSpaceParams,
    *,
    missing_target_from: int | None = None,
) -> FilteredTrajectory:
    """Run the forward recursion over the columns of ``Y``.

    ``missing_target_from`` is the 0-based column index from which the target
    row is treated as missing; earlier columns use the standard update, and
    at missing-target steps only the donor block contributes to the
    likelihood.  Returns the K predicted and filtered moments and the
    innovation log-likelihood as one :class:`FilteredTrajectory`.

    Each row set is filtered as one segment: the covariance recursion restarts
    where the row set changes, and both segments append their entries to one
    table, whose every M is gated in one call even when a later step raises.
    The mean half of a segment is m_k = F_k m_{k-1} + g_k with
    F = (I - L W J) A and g_k = L W z_k, where z = Hw' yw is the whitened
    observation projected on the state, run as one scan; F and L W are formed
    once per covariance entry.  Then m_pred = A m and a = W (z - J m_pred).
    By Woodbury and the determinant lemma log det S = log det R + log det M,
    and v' S^-1 v equals |vw - Hw L a|^2 + |a|^2 for the whitened innovation
    vw, a sum of squares.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] < 1:
        raise ConfigError("Y must be N x K with K >= 1")
    if Y.shape[0] != theta.n_obs:
        raise ConfigError(f"Y has {Y.shape[0]} rows but H has {theta.n_obs}")
    k_total = Y.shape[1]
    cut = k_total if missing_target_from is None else min(max(0, missing_target_from), k_total)

    table: list[tuple] = []
    segments = []
    P = theta.P0
    with np.errstate(invalid="ignore"):  # failing factorizations are NaN, judged by the gates
        try:
            for start, stop, missing in ((0, cut, False), (cut, k_total, True)):
                if start < stop:
                    Yw, Hw, J, logdet_R = _observed_rows(theta, Y[:, start:stop], missing, step=start + 1)
                    e0 = len(table)
                    cov = _covariance_half(P, theta, J, stop - start, start, table)
                    segments.append((slice(start, stop), (Yw, Hw, J, logdet_R), cov, slice(e0, len(table))))
                    P = table[cov[-1]][3]  # the segment's last filtered P starts the next
        finally:
            # Whitened by R, S is I + Hw P_pred Hw': its spectrum is M's up to
            # unit eigenvalues, so M's factor plus a unit diagonal gates S as a
            # dense factor of S would be gated.  Raised here, a failure replaces
            # any error of a later step.
            if table:
                P_pred_e, L_e, chol_e, P_e, W_e, M_e, steps = (np.array(x) for x in zip(*table))
                M_diag_e = cholesky(M_e).diagonal(axis1=1, axis2=2)
                gate_factor_diag(np.hstack([M_diag_e, np.ones((len(table), 1))]), _INNOVATION, steps)

    A, LW_e = theta.A, L_e @ W_e
    m_pred, m = np.empty((k_total, theta.d)), np.empty((k_total, theta.d))
    m_last, loglik = theta.m0, 0.0
    logdet_M_e = 2.0 * np.log(M_diag_e).sum(axis=1)
    for cols, (Yw, Hw, J, logdet_R), cov, own in segments:
        Z = Yw.T @ Hw  # row j is z for column j
        F = ((np.eye(theta.d) - LW_e[own] @ J) @ A)[cov - own.start]
        m[cols] = _linear_scan(F, np.einsum("kij,kj->ki", LW_e[cov], Z), m_last)
        m_pred[cols] = np.vstack([m_last, m[cols][:-1]]) @ A.T
        a = np.einsum("kij,kj->ki", W_e[cov], Z - m_pred[cols] @ J)
        delta = np.einsum("kij,kj->ki", L_e[cov], a)
        resid = (Yw - Hw @ m_pred[cols].T) - Hw @ delta.T
        loglik -= 0.5 * (
            len(cov) * (Yw.shape[0] * _LOG_2PI + logdet_R)
            + float(logdet_M_e[cov].sum())
            + float(np.vdot(resid, resid) + np.vdot(a, a))
        )
        m_last = m[cols.stop - 1]
    return FilteredTrajectory(
        m_pred=m_pred, m=m, cov=np.concatenate([seg[2] for seg in segments]), P_pred_e=P_pred_e, L_e=L_e,
        chol_e=chol_e, P_e=P_e, W_e=W_e, logdet_M_e=logdet_M_e, loglik=loglik,
    )


def smooth_pass(filtered: FilteredTrajectory, theta: StateSpaceParams) -> SmoothedTrajectory:
    """Backward RTS recursion over a filtered trajectory, including index 0.

    Step k (0..K-1) pairs the filtered P_k (P0 at k = 0) with P_pred_{k+1}.
    The factors of P_pred are gated once, together, before any gain is
    formed.  The gains G_k = P_k A' P_pred_{k+1}^-1 depend on theta alone, so
    one is solved per distinct pair of covariance entries, in one stacked
    call.  The smoothed means follow m_s_k = G_k m_s_{k+1} + (m_k - G_k m_pred_{k+1}),
    run as one reverse scan.  P_s is a backward loop until a step's inputs
    (its pair and P_s_{k+1}) equal a later step's bitwise; from there P_s
    repeats with the period between the two for as long as the pairs do, and
    that stretch is filled at once.  Returns a :class:`SmoothedTrajectory`.
    """
    k_total = len(filtered)
    if k_total == 0:
        raise ConfigError("smooth_pass needs a nonempty filtered trajectory")
    cov, n_e = filtered.cov, len(filtered.P_e)
    # NaN rows where the filter's Cholesky of P_pred failed
    diags = np.where(filtered.chol_e[:, None], filtered.L_e.diagonal(axis1=1, axis2=2), np.nan)
    gate_factor_diag(diags[cov[::-1]], _PREDICTION, np.arange(k_total)[::-1])

    # Step k's pair code is prev * E + cov[k], with prev = 0 for P0 and e + 1
    # after entry e.  The distinct codes, sorted, and a binary search number
    # the pairs in O(K) memory.  np.unique does the same more slowly, and its
    # first call imports numpy.ma (1.6 MB resident).
    P_prev_e = np.concatenate([theta.P0[None], filtered.P_e])
    prev = np.concatenate([[0], cov[:-1] + 1])
    codes = prev * n_e + cov
    ordered = np.sort(codes)
    pair_codes = ordered[np.concatenate([[True], ordered[1:] != ordered[:-1]])]
    pair = np.searchsorted(pair_codes, codes)
    pair_prev, pair_cov = np.divmod(pair_codes, n_e)
    G = spd_solve(filtered.P_pred_e[pair_cov], theta.A @ P_prev_e[pair_prev]).transpose(0, 2, 1)[pair]

    m_s = np.empty((k_total + 1, theta.d))
    m_s[k_total] = filtered.m[-1]
    b = np.vstack([theta.m0, filtered.m[:-1]]) - (G @ filtered.m_pred[:, :, None])[:, :, 0]
    m_s[:k_total] = _linear_scan(G[::-1], b[::-1], filtered.m[-1])[::-1]

    P_prev, P_pred, G_t = P_prev_e[prev], filtered.P_pred_e[cov], G.transpose(0, 2, 1)
    P_s = np.empty((k_total + 1, theta.d, theta.d))
    P_s[k_total] = filtered.P_e[cov[-1]]
    seen: dict[tuple, int] = {}
    k = k_total - 1
    while k >= 0:
        later = seen.setdefault((pair[k], P_s[k + 1].tobytes()), k)
        if later == k:
            P_s[k] = symmetrize(P_prev[k] + np.dot(np.dot(G[k], P_s[k + 1] - P_pred[k]), G_t[k]))
            k -= 1
            continue
        period = later - k
        breaks = np.flatnonzero(pair[: k + 1] != pair[period : k + 1 + period])
        start = breaks[-1] + 1 if breaks.size else 0
        P_s[start : k + 1] = P_s[k + 1 + (np.arange(start - k - 1, 0)) % period]
        k = start - 1
    return SmoothedTrajectory(m_s=m_s, P_s=P_s, G=G)


def params_to_json(
    theta: StateSpaceParams,
    loglik_trace: list[float] | None = None,
    dest: str | Path | None = None,
) -> str:
    """Serialize parameters as a JSON document (lossless float round trip).

    Under ``diag_noise`` R is its length-N diagonal, and is written so.  The returned
    text has no trailing newline; the file written to ``dest`` ends with one.
    """
    return write_json(_params_doc(theta, loglik_trace), dest).rstrip("\n")


def _params_doc(theta: StateSpaceParams, loglik_trace: list[float] | None = None) -> dict:
    """The JSON object :func:`params_to_json` writes, before encoding."""
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
    return doc


def params_from_json(source: str | Path) -> StateSpaceParams:
    """Inverse of :func:`params_to_json`; accepts a path or a JSON string.

    Older files hold a diagonal-noise R (``diag_noise`` true, the default) as
    an N x N matrix; it must be exactly diagonal, and loads as its diagonal.
    """
    doc = read_json_object(source, ("A", "H", "Q", "R", "m0", "P0"), "theta document")
    R = np.array(doc["R"], dtype=float)
    if R.ndim == 2 and doc.get("diag_noise", True):
        if not np.array_equal(R, np.diag(np.diag(R))):
            raise ConfigError("diag_noise requires an exactly diagonal R")
        R = np.diag(R)
    return StateSpaceParams(
        A=np.array(doc["A"], dtype=float),
        H=np.array(doc["H"], dtype=float),
        Q=np.array(doc["Q"], dtype=float),
        R=R,
        m0=np.array(doc["m0"], dtype=float),
        P0=np.array(doc["P0"], dtype=float),
    )

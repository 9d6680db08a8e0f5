"""Independent brute-force oracles used by the test suite.

These deliberately avoid the recursive filter/smoother code paths: moments are
obtained by building the joint Gaussian over all states and observations and
conditioning directly, and the simplex regression oracle is a dense grid
search.  They are slow and only suitable for tiny instances, except the
simplex KKT check, which certifies a solution for any number of donors.  The
plain per-step recursions are the exception: they are the loops that the
filter's and smoother's scans, the smoother's covariance pass and the
moment GEMMs replace, kept as their reference, and so is the conditioning
rule as a squared ratio.  The per-cell panel CSV writer is kept the same way,
as the reference for the bytes of ``save_csv``.
"""

from __future__ import annotations

import csv

import numpy as np

from tasc._numeric import open_for_write


def joint_gaussian(theta, k_total):
    """Mean and covariance of z = (x_0..x_K, y_1..y_K) under the model."""
    d, n = theta.d, theta.n_obs
    A, H, Q, m0, P0 = theta.A, theta.H, theta.Q, theta.m0, theta.P0
    R = np.diag(theta.R) if theta.diag_noise else theta.R

    means_x = [np.asarray(m0, dtype=float)]
    for _ in range(k_total):
        means_x.append(A @ means_x[-1])

    # Cov(x_j, x_k) for j <= k equals Var(x_j) @ (A^(k-j)).T
    var_x = [np.asarray(P0, dtype=float)]
    for _ in range(k_total):
        var_x.append(A @ var_x[-1] @ A.T + Q)
    powers = [np.eye(d)]
    for _ in range(k_total):
        powers.append(A @ powers[-1])

    def cov_xx(j, k):
        if j <= k:
            return var_x[j] @ powers[k - j].T
        return cov_xx(k, j).T

    dim = (k_total + 1) * d + k_total * n
    mean = np.zeros(dim)
    cov = np.zeros((dim, dim))

    def xs(j):
        return slice(j * d, (j + 1) * d)

    def ys(k):  # k in 1..K
        base = (k_total + 1) * d
        return slice(base + (k - 1) * n, base + k * n)

    for j in range(k_total + 1):
        mean[xs(j)] = means_x[j]
        for k in range(k_total + 1):
            cov[xs(j), xs(k)] = cov_xx(j, k)
    for k in range(1, k_total + 1):
        mean[ys(k)] = H @ means_x[k]
        for j in range(k_total + 1):
            cxy = cov_xx(j, k) @ H.T
            cov[xs(j), ys(k)] = cxy
            cov[ys(k), xs(j)] = cxy.T
        for k2 in range(1, k_total + 1):
            cyy = H @ cov_xx(k, k2) @ H.T
            if k == k2:
                cyy = cyy + R
            cov[ys(k), ys(k2)] = cyy
    return mean, cov, xs, ys


def condition_gaussian(mean, cov, obs_idx, obs_vals, query_idx):
    """Moments of the query block given observed coordinates."""
    obs_idx = np.asarray(obs_idx, dtype=int)
    query_idx = np.asarray(query_idx, dtype=int)
    if obs_idx.size == 0:
        return mean[query_idx], cov[np.ix_(query_idx, query_idx)]
    sob = cov[np.ix_(obs_idx, obs_idx)]
    sqo = cov[np.ix_(query_idx, obs_idx)]
    sol = np.linalg.solve(sob, (np.asarray(obs_vals) - mean[obs_idx]))
    mean_c = mean[query_idx] + sqo @ sol
    cov_c = cov[np.ix_(query_idx, query_idx)] - sqo @ np.linalg.solve(sob, sqo.T)
    return mean_c, cov_c


def _observed_coords(Y, ys, upto, missing_target_from):
    """Joint-vector indices and values of the observed cells in columns 1..upto."""
    idx, vals = [], []
    for k in range(1, upto + 1):
        sl = ys(k)
        coords = list(range(sl.start, sl.stop))
        if missing_target_from is not None and (k - 1) >= missing_target_from:
            coords = coords[1:]  # drop the target coordinate
            vals.extend(Y[1:, k - 1])
        else:
            vals.extend(Y[:, k - 1])
        idx.extend(coords)
    return np.array(idx, dtype=int), np.array(vals)


def observed_log_density(theta, Y, missing_target_from=None):
    """Gaussian log-density of every observed cell of Y under the joint model."""
    Y = np.asarray(Y, dtype=float)
    mean, cov, _, ys = joint_gaussian(theta, Y.shape[1])
    idx, vals = _observed_coords(Y, ys, Y.shape[1], missing_target_from)
    sob = cov[np.ix_(idx, idx)]
    resid = vals - mean[idx]
    _, logdet = np.linalg.slogdet(sob)
    quad = float(resid @ np.linalg.solve(sob, resid))
    return -0.5 * (idx.size * np.log(2.0 * np.pi) + logdet + quad)


def conditioned_moments(theta, Y, missing_target_from=None):
    """Filtered and smoothed state moments by direct joint-Gaussian conditioning.

    ``missing_target_from`` is the 0-based column index from which the target
    coordinate of y is excluded from every conditioning set.
    Returns (filt_means, filt_covs, smooth_means, smooth_covs) where entry k of
    the smoothed lists covers state index k in 0..K and entry k of the filtered
    lists covers state index k+1.
    """
    Y = np.asarray(Y, dtype=float)
    n, k_total = Y.shape
    d = theta.d
    mean, cov, xs, ys = joint_gaussian(theta, k_total)

    def obs_coords(upto):
        return _observed_coords(Y, ys, upto, missing_target_from)

    filt_means, filt_covs = [], []
    for k in range(1, k_total + 1):
        idx, vals = obs_coords(k)
        q = np.arange(xs(k).start, xs(k).stop)
        m, c = condition_gaussian(mean, cov, idx, vals, q)
        filt_means.append(m)
        filt_covs.append(c)

    idx, vals = obs_coords(k_total)
    smooth_means, smooth_covs = [], []
    for k in range(0, k_total + 1):
        q = np.arange(xs(k).start, xs(k).stop)
        m, c = condition_gaussian(mean, cov, idx, vals, q)
        smooth_means.append(m)
        smooth_covs.append(c)
    return filt_means, filt_covs, smooth_means, smooth_covs


def filter_mean_loop(theta, Y, filtered, missing_target_from=None, dtype=np.float64):
    """Filtered means and log-likelihood by the plain per-step mean recursion.

    The reference for the filter's scan.  It takes the covariance half (L, W
    and log det M of each step) from ``filtered`` and runs

        m_pred = A m,   a = W (z - J m_pred),   m = m_pred + L a

    one step at a time in ``dtype``, with z = Hw' yw and J = Hw' Hw formed in
    that dtype from the whitened observation rows.  Diagonal R only, so that a
    ``np.longdouble`` run needs no factorization.  Returns (m_pred, m, loglik)
    with row k for time index k+1.
    """
    Y = np.asarray(Y, dtype=float)
    k_total = Y.shape[1]
    A = theta.A.astype(dtype)
    r = theta.R.astype(dtype)
    m = theta.m0.astype(dtype)
    m_preds, means = np.empty((k_total, theta.d), dtype), np.empty((k_total, theta.d), dtype)
    loglik = dtype(0.0)
    for k in range(k_total):
        rows = slice(1, None) if missing_target_from is not None and k >= missing_target_from else slice(None)
        inv_sd = 1 / np.sqrt(r[rows])
        Hw = inv_sd[:, None] * theta.H[rows].astype(dtype)
        yw = inv_sd * Y[rows, k].astype(dtype)
        e = filtered.cov[k]
        L, W = filtered.L_e[e].astype(dtype), filtered.W_e[e].astype(dtype)
        m_pred = A @ m
        a = W @ (Hw.T @ yw - (Hw.T @ Hw) @ m_pred)
        delta = L @ a
        m = m_pred + delta
        resid = yw - Hw @ m_pred - Hw @ delta
        logdet_R = np.sum(np.log(r[rows]))
        loglik -= 0.5 * (
            yw.size * np.log(2 * np.pi, dtype=dtype) + logdet_R + dtype(filtered.logdet_M_e[e])
            + resid @ resid + a @ a
        )
        m_preds[k], means[k] = m_pred, m
    return m_preds, means, loglik


def smoother_mean_loop(theta, m_filt, G, dtype=np.float64):
    """Smoothed means by the plain backward recursion m_s_k = m_k + G_k (m_s_{k+1} - A m_k).

    The reference for the smoother's reverse scan.  ``m_filt`` holds the
    filtered means for time indices 1..K (m_0 is theta's m0) and ``G`` the
    K gains; the recursion runs in ``dtype``.  Returns m_s for indices 0..K.
    """
    A = theta.A.astype(dtype)
    means = np.vstack([theta.m0.astype(dtype), np.asarray(m_filt).astype(dtype)])
    m_s = np.empty_like(means)
    m_s[-1] = means[-1]
    for k in range(len(means) - 2, -1, -1):
        m_s[k] = means[k] + G[k].astype(dtype) @ (m_s[k + 1] - A @ means[k])
    return m_s


def rts_covariance_loop(theta, filtered):
    """Smoother gains and covariances by the plain per-step RTS recursion.

    The reference for the smoother's covariance pass.  It takes the filtered
    and predicted covariances from ``filtered`` and runs, for k = K-1..0,

        G_k = P_k A' P_pred_{k+1}^-1,   P_s_k = P_k + G_k (P_s_{k+1} - P_pred_{k+1}) G_k'

    with one dense solve per step, from P_s_K = P_K and with P_0 = theta's P0.
    Returns (G, P_s): the K gains and P_s for indices 0..K.
    """
    P, P_pred = filtered.P, filtered.P_pred
    k_total = len(filtered)
    G = np.empty((k_total, theta.d, theta.d))
    P_s = np.empty((k_total + 1, theta.d, theta.d))
    P_s[k_total] = P[-1]
    for k in range(k_total - 1, -1, -1):
        P_k = theta.P0 if k == 0 else P[k - 1]
        G[k] = np.linalg.solve(P_pred[k], theta.A @ P_k).T
        P_s[k] = P_k + G[k] @ (P_s[k + 1] - P_pred[k]) @ G[k].T
    return G, P_s


def moment_sums(smoothed, Y):
    """The averaged moments of ``accumulate_stats`` as plain sums over k = 1..K.

    Returns (sigma, phi, b, c): sigma and phi sum P_s + m_s m_s' at indices
    1..K and 0..K-1, b sums y_k m_s_k', and c sums the lag-one moment
    P_s_k G_{k-1}' + m_s_k m_s_{k-1}', each divided by K.
    """
    m_s, P_s, G = smoothed.m_s, smoothed.P_s, smoothed.G
    k_total = Y.shape[1]
    steps = range(1, k_total + 1)
    sigma = sum(P_s[k] + np.outer(m_s[k], m_s[k]) for k in steps) / k_total
    phi = sum(P_s[k - 1] + np.outer(m_s[k - 1], m_s[k - 1]) for k in steps) / k_total
    b = sum(np.outer(Y[:, k - 1], m_s[k]) for k in steps) / k_total
    c = sum(P_s[k] @ G[k - 1].T + np.outer(m_s[k], m_s[k - 1]) for k in steps) / k_total
    return sigma, phi, b, c


def simplex_grid_search(y, donors, step=1e-3):
    """Best objective over a dense grid on the simplex (n <= 3 donors)."""
    y = np.asarray(y, dtype=float)
    donors = np.asarray(donors, dtype=float)
    n = donors.shape[0]
    ticks = int(round(1.0 / step))
    if n == 1:
        grid = np.array([[1.0]])
    elif n == 2:
        a = np.arange(ticks + 1) / ticks
        grid = np.column_stack([a, 1.0 - a])
    elif n == 3:
        i, j = np.meshgrid(np.arange(ticks + 1), np.arange(ticks + 1), indexing="ij")
        mask = i + j <= ticks
        a = i[mask] / ticks
        b = j[mask] / ticks
        grid = np.column_stack([a, b, 1.0 - a - b])
    else:
        raise ValueError("grid oracle supports n <= 3 only")
    resid = grid @ donors - y
    objs = np.einsum("ij,ij->i", resid, resid)
    best = int(np.argmin(objs))
    return grid[best], float(objs[best])


def simplex_kkt_gap(y, donors, f):
    """KKT residual of ``f`` for min ||y - f' donors||^2 over the simplex, any number of donors.

    With gradient g = 2 donors (donors' f - y), a feasible f is optimal exactly
    when g is constant on the support {f > 0} and no smaller off it.  Returns
    the largest amount by which an off-support entry of g falls below the
    smallest support entry, plus the spread of g over the support; 0 at the
    optimum.
    """
    y = np.asarray(y, dtype=float)
    donors = np.asarray(donors, dtype=float)
    f = np.asarray(f, dtype=float)
    g = 2.0 * donors @ (f @ donors - y)
    on = f > 0
    below = g[on].min() - g[~on].min() if np.any(~on) else 0.0
    return float(max(below, 0.0) + g[on].max() - g[on].min())


def random_spd(rng, dim, scale=1.0):
    """Random SPD matrix for oracle test instances."""
    m = rng.standard_normal((dim, dim))
    return scale * (m @ m.T + dim * np.eye(dim))


def random_theta(rng, d, n, diag_noise=False):
    """A random, well-conditioned parameter set for small oracle instances.

    With ``diag_noise`` Q is diagonal and R is held as its diagonal vector.
    """
    from tasc import StateSpaceParams

    A = 0.5 * rng.standard_normal((d, d)) / np.sqrt(d)
    H = rng.standard_normal((n, d))
    if diag_noise:
        Q = np.diag(rng.uniform(0.2, 1.0, size=d))
        R = rng.uniform(0.2, 1.0, size=n)
    else:
        Q = random_spd(rng, d, 0.3)
        R = random_spd(rng, n, 0.3)
    m0 = rng.standard_normal(d)
    P0 = random_spd(rng, d, 0.5)
    return StateSpaceParams(A=A, H=H, Q=Q, R=R, m0=m0, P0=P0)


def q_function(stats, k_total, A, H, Q, R, m0, P0, m0s, P0s):
    """Expected complete-data log-likelihood at the given parameters.

    Evaluated against fixed E-step moments (the averaged statistics plus the
    smoothed initial moments); used to finite-difference-check M-step
    stationarity.
    """
    d = A.shape[0]
    n = H.shape[0]
    log2pi = np.log(2.0 * np.pi)

    trans_resid = stats.sigma - stats.c @ A.T - A @ stats.c.T + A @ stats.phi @ A.T
    _, logdet_q = np.linalg.slogdet(Q)
    term_trans = -0.5 * k_total * (d * log2pi + logdet_q + np.trace(np.linalg.solve(Q, trans_resid)))

    obs_resid = stats.d - stats.b @ H.T - H @ stats.b.T + H @ stats.sigma @ H.T
    _, logdet_r = np.linalg.slogdet(R)
    term_obs = -0.5 * k_total * (n * log2pi + logdet_r + np.trace(np.linalg.solve(R, obs_resid)))

    shift = m0s - m0
    init_resid = P0s + np.outer(shift, shift)
    _, logdet_p0 = np.linalg.slogdet(P0)
    term_init = -0.5 * (d * log2pi + logdet_p0 + np.trace(np.linalg.solve(P0, init_resid)))
    return float(term_trans + term_obs + term_init)


def q_gradient_fd(stats, k_total, theta, m0s, P0s, h=1e-5):
    """Max-abs central finite-difference gradient of the Q-function over A and H."""
    worst = 0.0
    for name in ("A", "H"):
        base = np.asarray(getattr(theta, name), dtype=float)
        for idx in np.ndindex(*base.shape):
            up = base.copy()
            up[idx] += h
            down = base.copy()
            down[idx] -= h
            args = dict(A=theta.A, H=theta.H, Q=theta.Q, R=theta.R, m0=theta.m0, P0=theta.P0)
            args[name] = up
            f_up = q_function(stats, k_total, m0s=m0s, P0s=P0s, **args)
            args[name] = down
            f_down = q_function(stats, k_total, m0s=m0s, P0s=P0s, **args)
            worst = max(worst, abs(f_up - f_down) / (2.0 * h))
    return worst


def factor_diag_ok(diags):
    """The conditioning rule on each row of ``diags`` as a squared ratio: True where the row passes.

    Both ends finite and (hi / lo)^2 <= 1e12, squared in numpy so that an
    overflow gives inf rather than an error.  The reference for the gate's
    unsquared comparison on rows of positive entries.
    """
    lo, hi = diags.min(axis=1), diags.max(axis=1)
    with np.errstate(all="ignore"):
        return np.isfinite(lo) & np.isfinite(hi) & ((hi / lo) ** 2 <= 1e12)


def save_csv_reference(panel, dest):
    """The per-cell panel writer: every cell through numpy's isfinite, float(), repr and csv quoting."""
    with open_for_write(dest) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["unit"] + list(panel.time_labels))
        for label, row in zip(panel.unit_labels, panel.values):
            cells = ["" if not np.isfinite(v) else repr(float(v)) for v in row]
            writer.writerow([label] + cells)

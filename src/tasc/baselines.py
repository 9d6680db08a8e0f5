"""Classical synthetic control and robust synthetic control baselines.

``sc_fit`` solves the simplex-constrained least-squares program over donor
weights exactly, by Wolfe's minimum-norm-point method.  ``rsc_fit`` denoises
the donor matrix by hard singular-value thresholding and fits ridge-regularized
weights on the denoised pre-intervention block, optionally choosing the ridge
coefficient by leave-last-k validation on the pre period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._numeric import (
    check_integer_fields,
    cholesky,
    gate_factor_diag,
    read_json_object,
    spd_cholesky,
    spd_solve,
    write_json,
)
from .errors import ConfigError, NumericalError, SolverError
from .panel import PanelData

__all__ = [
    "DonorWeights",
    "RscConfig",
    "RscFit",
    "DEFAULT_CV_GRID",
    "sc_fit",
    "sc_predict",
    "hsvt",
    "rsc_fit",
    "weights_to_json",
    "weights_from_json",
]

# Ridge grid used for pre-intervention cross-validation when none is given.
DEFAULT_CV_GRID: tuple[float, ...] = tuple(10.0**k for k in range(-1, 7))


@dataclass(frozen=True)
class DonorWeights:
    """A weight vector over donor units.

    ``kind`` is "simplex" for convex-combination weights and "ridge" for
    unconstrained ridge weights.  Ridge weights carry the coefficient and the
    kept rank used to produce them.
    """

    f: np.ndarray
    kind: str
    lambda_: float | None = None
    d: int | None = None

    def __post_init__(self):
        arr = np.asarray(self.f, dtype=float).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "f", arr)
        if self.kind not in ("simplex", "ridge"):
            raise ConfigError(f"unknown weight kind {self.kind!r}")
        if self.kind == "simplex":
            if np.any(self.f < -1e-8) or np.any(self.f > 1.0 + 1e-8):
                raise ConfigError("simplex weights must lie in [0, 1]")
            if abs(self.f.sum() - 1.0) > 1e-8:
                raise ConfigError("simplex weights must sum to 1")


@dataclass
class RscConfig:
    """Robust-SC settings: kept rank ``d``, ridge ``lambda_`` and optional CV grid."""

    d: int
    lambda_: float = 0.0
    cv_grid: tuple[float, ...] | None = None

    def __post_init__(self):
        check_integer_fields(self, "d")
        if self.d < 1:
            raise ConfigError("kept rank d must be >= 1")
        if not (math.isfinite(self.lambda_) and self.lambda_ >= 0):
            raise ConfigError("ridge coefficient must be finite and >= 0")
        if self.cv_grid is not None and not all(math.isfinite(c) and c >= 0 for c in self.cv_grid):
            raise ConfigError("cv_grid entries must be finite and >= 0")


@dataclass(frozen=True)
class RscFit:
    weights: DonorWeights
    denoised: np.ndarray
    lambda_: float
    cv_errors: dict[float, float] | None = None


# Wolfe's tolerances: a weight at or below _ZERO is zero, and the ratio test
# skips weights that shrink by at most _RATIO_MIN, where the step is unstable.
_ZERO = 1e-12
_RATIO_MIN = 1e-10


def _require_finite(values: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{name} must be entirely finite")


@np.errstate(invalid="ignore")  # a failing factorization is NaN, judged by the gate
def sc_fit(
    y1_pre: np.ndarray,
    donors_pre: np.ndarray,
    tol: float = 1e-8,
    max_iters: int = 100_000,
) -> DonorWeights:
    """Simplex-constrained least squares: min ||y1_pre - f' donors_pre||^2.

    With sum(f) = 1 the residual is sum_j f_j p_j for p_j = donors_pre[j] - y1_pre,
    so the minimizer is the point x of least norm in the convex hull of the
    p_j, which Wolfe's active-set method (Math. Programming 11, 1976) finds
    exactly, with zero weight off its support.  The data are rescaled to unit
    RMS internally (the minimizer is scale invariant); ``tol`` bounds the gap
    x'x - min_j x'p_j by ``tol * max(1, max_j |p_j|^2)`` on that normalized
    problem, and ``max_iters`` caps the major plus minor cycles.  Among
    zero-residual vertices the lowest donor index wins.
    """
    y = np.asarray(y1_pre, dtype=float).ravel()
    D = np.asarray(donors_pre, dtype=float)
    if D.ndim != 2 or D.shape[1] != y.size:
        raise ConfigError("donors_pre must be n x t0 matching y1_pre")
    _require_finite(y, "y1_pre")
    _require_finite(D, "donors_pre")

    scale = float(np.sqrt(np.mean(np.square(D)) + np.mean(np.square(y))))
    if scale <= 0.0 or not np.isfinite(scale):
        scale = 1.0
    points = D / scale - y / scale
    gram = points @ points.T
    vertex_obj = np.sum(points**2, axis=1)
    gate = tol * max(1.0, float(vertex_obj.max()))

    support, lam = np.array([int(np.argmin(vertex_obj))]), np.ones(1)
    major, gap = True, np.inf
    for _ in range(max_iters):
        if major:  # stop at a small gap, else add the donor minimizing x'p_j
            xp = gram[:, support] @ lam
            j = int(np.argmin(xp))
            gap = float(lam @ xp[support] - xp[j])
            if gap <= gate or j in support:
                break
            support, lam, major = np.append(support, j), np.append(lam, 0.0), False
            continue
        # Minor cycle: step from lam toward the affine minimizer on the support,
        # (G_S + 11')^-1 1 normalized, until a weight reaches zero.  G_S + 11' is
        # positive definite exactly when the support points are affinely independent.
        gram_s = gram[np.ix_(support, support)] + 1.0
        try:
            spd_cholesky(gram_s, "simplex support Gram matrix")
        except NumericalError as exc:
            raise SolverError(f"simplex solver failed on a support of {support.size} donors: {exc}") from None
        alpha = spd_solve(gram_s, np.ones(support.size))
        alpha /= alpha.sum()
        blocking = (alpha <= _ZERO) & (lam - alpha > _RATIO_MIN)
        theta = float(np.min(lam[blocking] / (lam - alpha)[blocking], initial=1.0))
        major = bool(np.all(alpha > _ZERO))
        lam = (1.0 - theta) * lam + theta * alpha
        keep = lam > _ZERO
        support, lam = support[keep], lam[keep] / lam[keep].sum()
    else:
        raise SolverError(
            f"simplex solver did not reach tolerance {tol:g} in {max_iters} cycles", residual=gap
        )

    x = lam @ points[support]
    ties = np.flatnonzero(vertex_obj <= x @ x + 1e-12)
    if ties.size:  # exact-tie vertices take precedence, lowest donor index first
        support, lam = ties[:1], np.ones(1)
    f = np.zeros(D.shape[0])
    f[support] = lam
    return DonorWeights(f=f, kind="simplex")


def sc_predict(weights: DonorWeights, donors_post: np.ndarray) -> np.ndarray:
    """Project weights onto post-intervention donor columns: f' donors_post."""
    donors_post = np.asarray(donors_post, dtype=float)
    if donors_post.shape[0] != weights.f.size:
        raise ConfigError("donor count mismatch between weights and matrix")
    return weights.f @ donors_post


def hsvt(Y: np.ndarray, d: int) -> np.ndarray:
    """Hard singular-value thresholding: keep the top-d components of Y."""
    Y = np.asarray(Y, dtype=float)
    _require_finite(Y, "Y")
    if not 1 <= d <= min(Y.shape):
        raise ConfigError(f"kept rank d={d} must be in [1, {min(Y.shape)}]")
    u, s, vt = np.linalg.svd(Y, full_matrices=False)
    return (u[:, :d] * s[:d]) @ vt[:d]


@np.errstate(invalid="ignore")  # a failing factorization is NaN, judged by the gate
def _ridge_solve(X_pre: np.ndarray, y_pre: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Ridge weights (X X' + lam I)^-1 X y, one row per entry of ``lams``.

    The normal matrices are factored in one stacked call, for the gate, and
    solved in another.  A row whose matrix fails the gate is NaN.
    """
    gram = X_pre @ X_pre.T
    normal = gram + lams[:, None, None] * np.eye(len(gram))
    f = spd_solve(normal, np.broadcast_to(X_pre @ y_pre, (len(lams), len(gram))))
    for row, diag in zip(f, cholesky(normal).diagonal(axis1=1, axis2=2)):
        try:
            gate_factor_diag(diag, "ridge normal matrix")
        except NumericalError:
            row[:] = np.nan
    return f


def rsc_fit(panel: PanelData, config: RscConfig) -> RscFit:
    """Denoise donors with HSVT, then ridge-regress the target on the result.

    The full donor block (pre and post columns, target row excluded) is
    denoised; weights are fit on the denoised pre columns against the raw
    target.  With a CV grid, the ridge coefficient minimizing validation RMSE
    on the last ceil(t0/5) pre periods is selected, then weights are refit on
    the whole pre period.
    """
    t0 = panel.t0
    donors = panel.donors
    if config.d > min(donors.shape):
        raise ConfigError(f"kept rank d={config.d} exceeds donor matrix rank bound")
    denoised = hsvt(donors, config.d)
    y1 = panel.values[0, :t0]
    X_pre = denoised[:, :t0]

    cv_errors: dict[float, float] | None = None
    lam = config.lambda_
    if config.cv_grid is not None:
        grid = tuple(config.cv_grid)
        if not grid:
            raise ConfigError("cv_grid must be nonempty when provided")
        k = math.ceil(t0 / 5)
        if t0 - k < 1:
            raise ConfigError("too few pre periods for leave-last-k validation")
        X_train, X_val = X_pre[:, : t0 - k], X_pre[:, t0 - k :]
        y_train, y_val = y1[: t0 - k], y1[t0 - k :]
        f_cand = _ridge_solve(X_train, y_train, np.array(grid, dtype=float))
        errs = np.sqrt(np.mean((y_val - f_cand @ X_val) ** 2, axis=1))
        cv_errors = {float(c): float(e) if np.isfinite(e) else np.inf for c, e in zip(grid, errs)}
        lam = min(cv_errors, key=lambda c: (cv_errors[c], c))

    f = _ridge_solve(X_pre, y1, np.array([float(lam)]))[0]
    if np.isnan(f).any():
        raise SolverError("ridge normal matrix is singular; use lambda > 0")
    weights = DonorWeights(f=f, kind="ridge", lambda_=float(lam), d=config.d)
    return RscFit(weights=weights, denoised=denoised, lambda_=float(lam), cv_errors=cv_errors)


def weights_to_json(weights: DonorWeights, dest: str | Path | None = None) -> str:
    """Serialize weights as a JSON document; the returned text has no trailing newline."""
    return write_json(_weights_doc(weights), dest).rstrip("\n")


def _weights_doc(weights: DonorWeights) -> dict:
    """The JSON object :func:`weights_to_json` writes, before encoding."""
    return {
        "kind": weights.kind,
        "f": weights.f.tolist(),
        "lambda": weights.lambda_,
        "d": weights.d,
    }


def weights_from_json(source: str | Path) -> DonorWeights:
    doc = read_json_object(source, ("f", "kind"), "weights document")
    return DonorWeights(
        f=np.array(doc["f"], dtype=float),
        kind=doc["kind"],
        lambda_=doc.get("lambda"),
        d=doc.get("d"),
    )

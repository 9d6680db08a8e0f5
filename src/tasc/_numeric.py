"""Small linear-algebra and seeding helpers used across modules."""

from __future__ import annotations

import logging
import math

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import NumericalError

logger = logging.getLogger("tasc")

# A Cholesky factor whose squared diagonal ratio exceeds this is treated as
# numerically singular (the ratio lower-bounds the condition number).
COND_LIMIT = 1e12


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


# The factorizations below call LAPACK potrf/potrs directly: at the d x d
# sizes of the filter loop the checking wrappers in scipy.linalg cost several
# times the factorization itself.


def check_factor_diag(diag: np.ndarray, what: str, step: int | None = None) -> None:
    """Gate on the diagonal of a Cholesky factor: finite, and ratio within COND_LIMIT."""
    lo, hi = float(diag.min()), float(diag.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NumericalError(f"{what} produced a non-finite factor", step=step)
    ratio = (hi / lo) ** 2
    if ratio > COND_LIMIT:
        raise NumericalError(
            f"{what} condition number exceeds {COND_LIMIT:.0e}", step=step
        )


def spd_cholesky(m: np.ndarray, what: str, step: int | None = None) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    Raises NumericalError when factorization fails or the factor's diagonal
    ratio shows the matrix is ill-conditioned beyond COND_LIMIT.
    """
    low, info = dpotrf(m, lower=1)
    if info != 0:
        raise NumericalError(f"{what} is not positive definite", step=step)
    check_factor_diag(low.diagonal(), what, step)
    return low


def spd_solve(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve M x = b given the lower Cholesky factor of M."""
    x, _ = dpotrs(low, b, lower=1)
    return x


def try_cholesky(m: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of ``m``, or None where the factorization fails; no gate."""
    low, info = dpotrf(m, lower=1)
    return low if info == 0 else None


def ensure_spd(m: np.ndarray, what: str, jitter: float = 1e-9) -> np.ndarray:
    """Symmetrize and, only if a Cholesky check fails, add jitter on the diagonal."""
    m = symmetrize(m)
    if try_cholesky(m) is not None:
        return m
    logger.warning("adding %.0e jitter to non-PD %s", jitter, what)
    return m + jitter * np.eye(m.shape[0])


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """A square root L with L @ L.T = m, tolerating semidefinite input."""
    low = try_cholesky(m)
    if low is not None:
        return low
    vals, vecs = np.linalg.eigh(symmetrize(m))
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(symmetrize(m)).min())


def derive_seed(*parts: int) -> int:
    """Counter-style derivation of an independent child seed from integer parts."""
    seq = np.random.SeedSequence([int(p) & 0xFFFFFFFF for p in parts])
    return int(seq.generate_state(1, np.uint64)[0])

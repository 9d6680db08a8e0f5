"""Small linear-algebra, seeding and artifact reading/writing helpers used across modules."""

from __future__ import annotations

import json
import logging
import math
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import ConfigError, NumericalError

logger = logging.getLogger("tasc")

# The conditioning limit of :func:`gate_factor_diag`: a factored matrix whose
# condition number this bounds from below is treated as numerically singular.
COND_LIMIT = 1e12


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def gate_factor_diag(diags: np.ndarray, what: str, step: int | np.ndarray | None = None) -> None:
    """The conditioning gate: every Cholesky factor is judged and a failure worded here.

    ``diags`` is one factor's diagonal and ``step`` its time step (or None),
    or a stack of diagonals, one row per factor, and ``step`` the step of
    each row.  NumericalError(step=...) is raised for the first failing row,
    with one of three messages after ``what``:

    - "is not positive definite": the row holds NaN or a pivot <= 0.  A
      caller passes a NaN row for a factorization that failed.
    - "produced a non-finite factor": the row holds +inf.
    - "condition number exceeds 1e+12": the ratio hi / lo of the largest to
      the smallest pivot exceeds sqrt(COND_LIMIT).  The squared ratio is a
      lower bound on the condition number of the factored matrix.  Comparing
      the unsquared ratio gives the same decision for every finite ratio, and
      cannot overflow where the square would.

    The caller orders the rows.  The filter passes M's factors in step
    order, so the first failing step is named, over any error of a later
    step.  The smoother passes P_pred's factors in reverse step order, so the
    latest step that uses a failing factor is named, the step a backward
    loop would reach first.
    """
    lo, hi = diags.min(axis=-1), diags.max(axis=-1)
    with np.errstate(all="ignore"):
        ok = (lo > 0) & (hi / lo <= math.sqrt(COND_LIMIT))  # +inf gives an inf or NaN ratio
    if ok.all():
        return
    i = int(np.argmin(ok))
    lo, hi = np.ravel(lo)[i], np.ravel(hi)[i]
    if not lo > 0:
        problem = "is not positive definite"
    elif hi == np.inf:
        problem = "produced a non-finite factor"
    else:
        problem = f"condition number exceeds {COND_LIMIT:.0e}"
    raise NumericalError(f"{what} {problem}", step=step if diags.ndim == 1 else int(step[i]))


# numpy's own LAPACK gufuncs are the package's one LAPACK binding: they are
# the kernels np.linalg.cholesky and np.linalg.solve call, without those
# wrappers' checks and errstate, which at the d x d sizes of the filter loop
# cost more than the work.  Binding scipy.linalg instead would more than
# double what importing tasc costs in time and resident memory.  Both
# gufuncs broadcast over stacks of matrices.  A factorization or solve that
# fails fills its output with NaN and raises the "invalid" floating-point
# flag; callers silence that flag once per pass, with
# ``np.errstate(invalid="ignore")`` around the pass, never per call.
# psd_sqrt, whose fallback is an eigendecomposition, silences its own.
cholesky = _umath_linalg.cholesky_lo  # lower factors, reading only the lower triangle


def spd_cholesky(m: np.ndarray, what: str, step: int | None = None) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix, passed through :func:`gate_factor_diag`."""
    low = cholesky(m)
    gate_factor_diag(low.diagonal(), what, step)  # NaN where the factorization failed
    return low


def spd_solve(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve M x = b by LU for a nonsingular M, or a stack of them.

    ``b`` is one vector per matrix when it has one dimension fewer than
    ``m``, else one matrix per matrix.  M is an SPD matrix that
    :func:`spd_cholesky` or a stacked gate has judged, or, to whiten
    observations, R's Cholesky factor.
    """
    return (_umath_linalg.solve1 if b.ndim == m.ndim - 1 else _umath_linalg.solve)(m, b)


def try_cholesky(m: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of ``m``, or None where the factorization fails; no gate."""
    low = cholesky(m)
    return None if math.isnan(low[0, 0]) else low


def ensure_spd(m: np.ndarray, what: str, jitter: float = 1e-9) -> np.ndarray:
    """Symmetrize and, only if a Cholesky check fails, add jitter on the diagonal."""
    m = symmetrize(m)
    if try_cholesky(m) is not None:
        return m
    logger.warning("adding %.0e jitter to non-PD %s", jitter, what)
    return m + jitter * np.eye(m.shape[0])


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """A square root L with L @ L.T = m, tolerating semidefinite input."""
    with np.errstate(invalid="ignore"):
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


def read_json(source: str | Path) -> dict | list:
    """Parse a JSON artifact given as a path, or as the JSON text itself (a string starting with '{' or '[').

    Text that does not parse raises ConfigError, as does any other ValueError
    of the parser (an integer past Python's digit limit, for one) or of the
    read (a file that is not UTF-8).
    """
    inline = isinstance(source, str) and source.lstrip().startswith(("{", "["))
    try:
        return json.loads(source if inline else Path(source).read_text())
    except ValueError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from None


def read_json_object(source: str | Path, keys: tuple[str, ...], what: str) -> dict:
    """:func:`read_json` for an artifact that must be a JSON object holding ``keys``."""
    doc = read_json(source)
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(doc).__name__}")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ConfigError(f"{what} is missing key {missing[0]!r}")
    return doc


def write_json(doc: dict, dest: str | Path | None = None) -> str:
    """Encode a JSON artifact (two-space indent, trailing newline); write it to ``dest`` if given.

    numpy scalars and arrays are encoded as the equivalent Python values.
    """
    text = json.dumps(doc, indent=2, default=_json_default) + "\n"
    if dest is not None:
        Path(dest).write_text(text)
    return text


def _json_default(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)}")


@contextmanager
def open_for_write(dest: str | Path | IO[str]) -> Iterator[IO[str]]:
    """Yield ``dest`` if it is a text handle, else the file at that path, opened for writing and closed after."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", newline="") as handle:
            yield handle
    else:
        yield dest

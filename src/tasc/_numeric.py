"""Small linear-algebra, seeding and artifact reading/writing helpers used across modules."""

from __future__ import annotations

import json
import logging
import math
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import ConfigError, NumericalError

logger = logging.getLogger("tasc")

# A Cholesky factor whose squared diagonal ratio exceeds this is treated as
# numerically singular (the ratio lower-bounds the condition number).
COND_LIMIT = 1e12


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


# The factorizations below call LAPACK potrf/potrs directly: at the d x d
# sizes of the filter loop the checking wrappers in scipy.linalg cost several
# times the factorization itself.  ``lower`` is passed by position: f2py's
# keyword parsing costs more than a 3 x 3 solve.


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


def factor_diag_ok(diags: np.ndarray) -> np.ndarray:
    """:func:`check_factor_diag` on each row of ``diags`` at once: True where the row passes."""
    lo, hi = diags.min(axis=1), diags.max(axis=1)
    with np.errstate(all="ignore"):
        return np.isfinite(lo) & np.isfinite(hi) & ((hi / lo) ** 2 <= COND_LIMIT)


def spd_cholesky(m: np.ndarray, what: str, step: int | None = None) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    Raises NumericalError when factorization fails or the factor's diagonal
    ratio shows the matrix is ill-conditioned beyond COND_LIMIT.
    """
    low, info = dpotrf(m, 1)
    if info != 0:
        raise NumericalError(f"{what} is not positive definite", step=step)
    check_factor_diag(low.diagonal(), what, step)
    return low


def spd_solve(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve M x = b given the lower Cholesky factor of M."""
    x, _ = dpotrs(low, b, 1)
    return x


def try_cholesky(m: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of ``m``, or None where the factorization fails; no gate."""
    low, info = dpotrf(m, 1)
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

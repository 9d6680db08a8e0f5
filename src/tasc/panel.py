"""Panel-data model: ingestion, centering, splitting, permutation.

A panel is an N x T outcome matrix whose first row is the treated target unit
and whose remaining rows are untreated donor units.  The first ``t0`` columns
are pre-intervention; everything after is post-intervention.  The target's
post-intervention cells may be missing (NaN) or treatment-contaminated, in
which case ``target_post_missing`` is set and no estimator in this package
reads them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from math import isfinite
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from ._numeric import open_for_write
from .errors import ConfigError, ParseError

__all__ = [
    "PanelData",
    "load_csv",
    "save_csv",
    "mean_center",
    "split",
    "permute_columns",
]


@dataclass(frozen=True)
class PanelData:
    """Immutable N x T outcome panel with the target unit in row 0.

    ``t0`` counts the pre-intervention columns, so columns ``0..t0-1`` are
    pre-intervention and ``t0..T-1`` are post-intervention.
    """

    values: np.ndarray
    t0: int
    unit_labels: tuple[str, ...]
    time_labels: tuple[str, ...]
    target_post_missing: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise ConfigError("panel values must be a 2-D matrix")
        n, t = values.shape
        if n < 2:
            raise ConfigError(f"need at least 1 donor (got {n} rows)")
        if t < 2:
            raise ConfigError(f"need at least 2 time periods (got {t})")
        if not 1 <= self.t0 < t:
            raise ConfigError(f"t0 must satisfy 1 <= t0 < T, got t0={self.t0}, T={t}")
        if len(self.unit_labels) != n:
            raise ConfigError("unit_labels length does not match row count")
        if len(self.time_labels) != t:
            raise ConfigError("time_labels length does not match column count")
        if not np.all(np.isfinite(values[1:])):
            raise ConfigError("donor rows must be entirely finite")
        if not np.all(np.isfinite(values[0, : self.t0])):
            raise ConfigError("target pre-intervention values must be finite")
        if not self.target_post_missing and not np.all(np.isfinite(values[0, self.t0 :])):
            raise ConfigError(
                "target post-intervention values are non-finite; "
                "set target_post_missing=True to mark them as missing"
            )

    @property
    def n_units(self) -> int:
        return self.values.shape[0]

    @property
    def n_donors(self) -> int:
        return self.values.shape[0] - 1

    @property
    def n_periods(self) -> int:
        return self.values.shape[1]

    @property
    def donors(self) -> np.ndarray:
        return self.values[1:]

    def with_values(self, values: np.ndarray, target_post_missing: bool | None = None) -> "PanelData":
        """Copy of this panel with replaced outcome matrix (same shape)."""
        flag = self.target_post_missing if target_post_missing is None else target_post_missing
        return PanelData(values, self.t0, self.unit_labels, self.time_labels, flag)


def _default_labels(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(count))


def _parse_cell(text: str, row: int, col: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"non-numeric cell {text!r} at row {row}, column {col}", row=row) from None
    if not np.isfinite(value):
        raise ParseError(f"non-finite cell {text!r} at row {row}, column {col}", row=row)
    return value


def load_csv(
    source: str | Path | IO[str],
    t0: int,
    has_header: bool = True,
    target_row: int = 0,
) -> PanelData:
    """Read a panel from CSV (rows = units, columns = time periods).

    With ``has_header`` the first row carries time labels (its first cell is a
    corner label) and the first column carries unit labels; without it the file
    is a bare numeric matrix and labels are generated.  ``target_row`` is the
    0-based position of the target among the data rows; it is moved to row 0.
    Empty cells are allowed only in the target's post-intervention columns and
    set ``target_post_missing``.  Input that does not decode as text, has no
    data rows or whose header does not match the rows raises ParseError.
    """
    try:
        if isinstance(source, (str, Path)):
            with open(source, "r", newline="") as handle:
                rows = list(csv.reader(handle))
        else:
            rows = list(csv.reader(source))
    except UnicodeDecodeError as exc:
        raise ParseError(f"CSV input is not valid text: {exc}") from None

    rows = [row for row in rows if row]
    time_labels: tuple[str, ...] | None = None
    if has_header and rows:
        time_labels = tuple(label.strip() for label in rows.pop(0)[1:])
    if not rows:
        raise ParseError("CSV input has no data rows", row=0)

    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(f"ragged row: expected {width} cells, found {len(row)}", row=i)
    if time_labels is not None and len(time_labels) != width - 1:
        raise ParseError(f"header row has {len(time_labels)} time labels for {width - 1} value columns")

    unit_labels: list[str] = []
    numeric_rows: list[list[str]] = []
    for row in rows:
        if has_header:
            unit_labels.append(row[0].strip())
            numeric_rows.append(row[1:])
        else:
            numeric_rows.append(row)

    n = len(numeric_rows)
    t = len(numeric_rows[0])
    if not 0 <= target_row < n:
        raise ConfigError(f"target_row {target_row} out of range for {n} units")
    if not 1 <= t0 < t:
        raise ConfigError(f"t0={t0} out of range for {t} time periods")

    # One numpy conversion parses every cell with Python's float(); the
    # per-cell loop runs only to raise the first bad cell's error (row-major).
    texts = [[cell.strip() for cell in row] for row in numeric_rows]
    missing = np.array([[not text for text in row] for row in texts], dtype=bool)
    try:
        values = np.array([[text or "nan" for text in row] for row in texts], dtype=float)
        parsed = bool(np.isfinite(values[~missing]).all())
    except ValueError:
        parsed = False
    if not parsed:
        values = np.full((n, t), np.nan)
        for i, row in enumerate(texts):
            for j, text in enumerate(row):
                if text:
                    values[i, j] = _parse_cell(text, i, j)

    target_post_missing = False
    if missing.any():
        allowed = np.zeros_like(missing)
        allowed[target_row, t0:] = True
        if np.any(missing & ~allowed):
            i, j = np.argwhere(missing & ~allowed)[0]
            raise ParseError(f"empty cell at row {i}, column {j} outside target post period", row=int(i))
        target_post_missing = True

    order = [target_row] + [i for i in range(n) if i != target_row]
    values = values[order]
    if not unit_labels:
        unit_labels = list(_default_labels("unit", n))
    else:
        unit_labels = [unit_labels[i] for i in order]
    if time_labels is None:
        time_labels = _default_labels("t", t)

    return PanelData(values, t0, tuple(unit_labels), time_labels, target_post_missing)


class _Echo:
    """Write target whose ``write`` returns its text, so ``csv.writer(...).writerow`` returns the line."""

    def write(self, text: str) -> str:
        return text


def save_csv(panel: PanelData, dest: str | Path | IO[str]) -> None:
    """Write a panel as CSV with unit/time labels.

    Values use the shortest round-trip ``repr``, so reading the file back
    reproduces them exactly.  Every non-finite cell (NaN, +inf, -inf) is
    written empty; ``PanelData`` allows such cells only in the target's post
    columns, and ``load_csv`` reads them back as missing.  Labels use csv's
    minimal quoting.
    """
    line = csv.writer(_Echo(), lineterminator="\n").writerow
    with open_for_write(dest) as handle:
        handle.write(line(["unit", *panel.time_labels]))
        for label, row in zip(panel.unit_labels, panel.values):
            # A repr'd finite float never needs quoting, so only the label goes
            # through csv.  [label, ""] gives "label," quoted as in a full row;
            # [label] alone would write an empty label as "".
            cells = ",".join([repr(v) if isfinite(v) else "" for v in row.tolist()])
            handle.write(line([label, ""])[:-1] + cells + "\n")


def mean_center(panel: PanelData) -> tuple[PanelData, np.ndarray]:
    """Subtract the per-period mean of the donor rows from every row; return the panel and that mean."""
    mean = panel.values[1:].mean(axis=0)
    return panel.with_values(panel.values - mean), mean


def split(panel: PanelData) -> tuple[np.ndarray, np.ndarray]:
    """Pre- and post-intervention column blocks as (N x t0, N x (T - t0)) copies."""
    return panel.values[:, : panel.t0].copy(), panel.values[:, panel.t0 :].copy()


def _check_permutation(perm: Sequence[int], lo: int, hi: int, what: str) -> np.ndarray:
    perm = np.asarray(perm, dtype=int)
    if sorted(perm.tolist()) != list(range(lo, hi)):
        raise ConfigError(f"{what} must be a permutation of [{lo}, {hi})")
    return perm


def permute_columns(panel: PanelData, perm_pre: Sequence[int], perm_post: Sequence[int]) -> PanelData:
    """Reorder columns within the pre and post segments independently.

    ``perm_pre`` is a permutation of ``range(t0)`` and ``perm_post`` of
    ``range(t0, T)``; new column ``j`` takes old column ``perm[j]``.  No column
    ever crosses the intervention boundary.
    """
    t0, t = panel.t0, panel.n_periods
    perm_pre = _check_permutation(perm_pre, 0, t0, "perm_pre")
    perm_post = _check_permutation(perm_post, t0, t, "perm_post")
    order = np.concatenate([perm_pre, perm_post])
    values = panel.values[:, order]
    labels = tuple(panel.time_labels[i] for i in order)
    return PanelData(values, t0, panel.unit_labels, labels, panel.target_post_missing)

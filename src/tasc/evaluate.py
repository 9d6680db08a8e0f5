"""Metrics, placebo tests, permutation stress tests and method sweeps.

The harness drives the three estimators (time-aware state-space, simplex SC,
robust SC) over panels or simulated regimes with fully seeded reproducibility:
every cell of a sweep derives its own seed from the root seed, so any cell can
be regenerated independently.  A harness fit that raises a TascError is recorded
by its message where it belongs, and the run goes on; other exceptions propagate.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from ._numeric import derive_seed, open_for_write
from .baselines import RscConfig, rsc_fit, sc_fit, sc_predict
from .engine import EmConfig, EmResult, Prediction, tasc_infer
from .errors import ConfigError, TascError
from .panel import PanelData, mean_center, permute_columns
from .simulate import SimulationConfig, simulate

__all__ = [
    "Estimator",
    "EvalReport",
    "PlaceboEntry",
    "StressResult",
    "rmse",
    "rmse_by_horizon",
    "fit_predict",
    "placebo_suite",
    "threshold_filter",
    "permutation_stress_test",
    "method_sweep",
    "reports_to_rows",
    "write_rows_csv",
]

METHODS = ("tasc", "sc", "rsc")


def rmse(pred: np.ndarray, truth: np.ndarray) -> float:
    """Root mean squared difference between two equal-length vectors."""
    pred = np.asarray(pred, dtype=float).ravel()
    truth = np.asarray(truth, dtype=float).ravel()
    if pred.size != truth.size or pred.size == 0:
        raise ConfigError(f"length mismatch: {pred.size} vs {truth.size}")
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def rmse_by_horizon(
    pred: np.ndarray, truth: np.ndarray, n_buckets: int
) -> list[tuple[tuple[int, int], float]]:
    """RMSE per contiguous horizon bucket; the last bucket absorbs any remainder.

    Bucket ranges are half-open offsets into the horizon.
    """
    pred = np.asarray(pred, dtype=float).ravel()
    truth = np.asarray(truth, dtype=float).ravel()
    if pred.size != truth.size or pred.size == 0:
        raise ConfigError("pred and truth must have equal nonzero length")
    if not 1 <= n_buckets <= pred.size:
        raise ConfigError(f"n_buckets must be in [1, {pred.size}]")
    width = pred.size // n_buckets
    out = []
    for i in range(n_buckets):
        lo = i * width
        hi = pred.size if i == n_buckets - 1 else (i + 1) * width
        out.append(((lo, hi), rmse(pred[lo:hi], truth[lo:hi])))
    return out


@dataclass
class Estimator:
    """A method tag plus the configuration needed to run it; :func:`fit_predict` returns one :class:`Prediction`.

    ``center`` applies donor-mean centering before fitting and adds the mean
    trajectory back to predictions.  ``sc_tol`` is the gap tolerance of
    Wolfe's method in :func:`~tasc.baselines.sc_fit`, on the problem rescaled
    to unit RMS.  ``em_result``, for the time-aware method, is an EM fit whose
    rows follow the panel's: the fit then skips EM, runs only the
    counterfactual pass with it and returns it as ``Prediction.em``.
    :func:`placebo_suite` sets it so that every donor reuses one fit, the first
    donor's with that donor's seed, rows permuted and restart index and trace
    kept; only with ``center`` does each donor refit.  ``level``, in (0, 1),
    is the confidence level of the time-aware method's interval.
    """

    method: str
    em: EmConfig | None = None
    rsc: RscConfig | None = None
    level: float = 0.95
    center: bool = False
    sc_tol: float = 1e-7
    name: str | None = None
    em_result: EmResult | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.method == "tasc" and self.em is None:
            raise ConfigError("tasc estimator needs an EmConfig")
        if self.method == "rsc" and self.rsc is None:
            raise ConfigError("rsc estimator needs an RscConfig")
        if not 0.0 < self.level < 1.0:
            raise ConfigError("confidence level must be in (0, 1)")
        if self.name is None:
            self.name = self.method


def fit_predict(panel: PanelData, estimator: Estimator, seed: int | None = None) -> Prediction:
    """Fit one estimator on a panel and predict the post-intervention target.

    ``seed`` overrides the EM seed for the time-aware method; the baselines
    are deterministic and ignore it.
    """
    work, offset = mean_center(panel) if estimator.center else (panel, None)
    t0 = panel.t0

    if estimator.method == "tasc":
        config = estimator.em if seed is None else replace(estimator.em, seed=seed)
        pred = tasc_infer(work, config, level=estimator.level, em=estimator.em_result)
    else:
        if estimator.method == "sc":
            donors = work.donors
            weights = sc_fit(work.values[0, :t0], donors[:, :t0], tol=estimator.sc_tol)
        else:
            fit = rsc_fit(work, estimator.rsc)
            weights, donors = fit.weights, fit.denoised
        pred = Prediction(
            y_hat=sc_predict(weights, donors[:, t0:]), fitted_pre=sc_predict(weights, donors[:, :t0]), weights=weights
        )
    if offset is None:
        return pred
    post, pre = offset[t0:], offset[:t0]
    bounds = {} if pred.ci_lower is None else dict(ci_lower=pred.ci_lower + post, ci_upper=pred.ci_upper + post)
    return replace(pred, y_hat=pred.y_hat + post, fitted_pre=pred.fitted_pre + pre, **bounds)


def _attempt(panel: PanelData, estimator: Estimator, seed: int | None) -> tuple[Prediction | None, str | None]:
    """One harness fit: its prediction, or the message of the TascError that ended it.

    ``fit_predict`` is looked up at call time, so a wrapper set on this module sees it.
    """
    try:
        return fit_predict(panel, estimator, seed), None
    except TascError as exc:
        return None, str(exc)


@dataclass(frozen=True)
class PlaceboEntry:
    unit_label: str
    rmse_pre: float
    rmse_post: float
    gap: np.ndarray | None
    error: str | None = None


def placebo_suite(panel: PanelData, estimator: Estimator, seed: int = 0) -> list[PlaceboEntry]:
    """Refit with each donor posing as the target, the true target excluded.

    Every donor has observed post outcomes, so pre and post errors and the
    full observed-minus-predicted gap series are recorded in one entry per
    donor, in row order.  A fit that raises a TascError leaves its unit NaN
    RMSEs, no gap and the error's message, and the suite goes on.

    Every pseudo-panel holds the same donor rows in another order, and the
    time-aware model does not depend on which row is the target, so the
    time-aware method runs EM once: the first donor whose fit succeeds fits it
    with its own seed, and each later donor runs only the counterfactual pass
    with that fit, its rows permuted to the donor's order.  With ``center``
    the pseudo-panels differ in data, so every donor refits.
    """
    if panel.n_donors < 2:
        raise ConfigError(f"a placebo suite needs at least 2 donors (got {panel.n_donors})")
    entries: list[PlaceboEntry] = []
    donor_rows = list(range(1, panel.n_units))
    reuse = estimator.method == "tasc" and not estimator.center
    shared: tuple[EmResult, list[int]] | None = None  # first tasc fit and its row order
    for j in donor_rows:
        others = [i for i in donor_rows if i != j]
        order = [j] + others
        pseudo = PanelData(
            panel.values[order],
            panel.t0,
            tuple(panel.unit_labels[i] for i in order),
            panel.time_labels,
            target_post_missing=False,
        )
        label = panel.unit_labels[j]
        est = estimator if shared is None else replace(estimator, em_result=_permuted_fit(*shared, order))
        pred, error = _attempt(pseudo, est, derive_seed(seed, j))
        if pred is None:
            entries.append(PlaceboEntry(label, float("nan"), float("nan"), None, error=error))
            continue
        if reuse and shared is None:
            shared = (pred.em, order)
        observed = panel.values[j]
        predicted = np.concatenate([pred.fitted_pre, pred.y_hat])
        entries.append(
            PlaceboEntry(
                unit_label=label,
                rmse_pre=rmse(pred.fitted_pre, observed[: panel.t0]),
                rmse_post=rmse(pred.y_hat, observed[panel.t0 :]),
                gap=observed - predicted,
            )
        )
    return entries


def _permuted_fit(em: EmResult, fit_order: list[int], order: list[int]) -> EmResult:
    """``em``, fitted on rows ``fit_order``, with its rows in ``order``; only H and R have a row axis."""
    where = {row: i for i, row in enumerate(fit_order)}
    idx = np.array([where[row] for row in order])
    theta = em.theta
    R = theta.R[idx] if theta.diag_noise else theta.R[np.ix_(idx, idx)]
    return replace(em, theta=replace(theta, H=theta.H[idx], R=R))


def threshold_filter(placebo: list[PlaceboEntry], target_pre_mse: float, ratio: float) -> list[str]:
    """Units whose pre-intervention MSE is at most ``ratio`` times the target's."""
    if not ratio > 0:
        raise ConfigError("ratio must be positive")
    kept = []
    for entry in placebo:
        if entry.error is not None:
            continue
        if entry.rmse_pre**2 <= ratio * target_pre_mse:
            kept.append(entry.unit_label)
    return kept


@dataclass(frozen=True)
class StressResult:
    rmse_ordered: float
    rmse_shuffled: list[float]
    errors: list[str | None]

    @property
    def mean_ratio(self) -> float:
        """Mean successful shuffled RMSE over the ordered one: NaN without a success or for 0/0, inf for x/0."""
        ok = [r for r, e in zip(self.rmse_shuffled, self.errors) if e is None]
        if not ok:
            return float("nan")
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.mean(ok) / self.rmse_ordered)


def permutation_stress_test(
    data: PanelData | SimulationConfig,
    estimator: Estimator,
    n_shuffles: int = 20,
    seed: int = 0,
) -> StressResult:
    """Compare post RMSE on the original ordering against shuffled copies.

    Pre- and post-intervention columns are permuted separately (never across
    the boundary) and the estimator is refit with an identical configuration
    on each shuffled copy.  The target's post outcomes must be observed.
    """
    if n_shuffles < 1:
        raise ConfigError("n_shuffles must be >= 1")
    panel = simulate(data).panel if isinstance(data, SimulationConfig) else data
    if panel.target_post_missing:
        raise ConfigError("stress test needs observed target post outcomes")
    t0, t_total = panel.t0, panel.n_periods
    truth_post = panel.values[0, t0:]

    ordered_pred = fit_predict(panel, estimator)
    rmse_ordered = rmse(ordered_pred.y_hat, truth_post)

    shuffled: list[float] = []
    errors: list[str | None] = []
    for i in range(n_shuffles):
        rng = np.random.default_rng([seed & 0xFFFFFFFF, i])
        perm_pre = rng.permutation(t0)
        perm_post = t0 + rng.permutation(t_total - t0)
        permuted = permute_columns(panel, perm_pre, perm_post)
        pred, error = _attempt(permuted, estimator, None)
        shuffled.append(float("nan") if pred is None else rmse(pred.y_hat, permuted.values[0, t0:]))
        errors.append(error)
    return StressResult(rmse_ordered=rmse_ordered, rmse_shuffled=shuffled, errors=errors)


@dataclass(frozen=True)
class EvalReport:
    """One sweep cell: a (regime, method, replicate) evaluation.

    ``ci_width`` is the mean width of the reported interval over the post
    periods and ``coverage`` the fraction of them whose true target lies in
    it; both are None without an interval (sc, rsc) and for a failed fit.
    """

    regime: str
    method: str
    replicate: int
    seed: int
    rmse_post: float = float("nan")
    rmse_pre: float = float("nan")
    rmse_by_bucket: list[tuple[tuple[int, int], float]] = field(default_factory=list)
    ci_width: float | None = None
    coverage: float | None = None
    error: str | None = None


def method_sweep(
    regimes: Sequence[SimulationConfig],
    estimators: Sequence[Estimator],
    replicates: int,
    seed: int = 0,
    n_buckets: int = 5,
    regime_names: Sequence[str] | None = None,
) -> list[EvalReport]:
    """Run every (regime, estimator, replicate) cell on independently seeded data.

    Each replicate draws one dataset shared by all estimators.  A cell whose
    fit raises a TascError keeps NaN RMSEs, no buckets and no width, records
    the error's message and does not stop the sweep.
    """
    if replicates < 1:
        raise ConfigError("replicates must be >= 1")
    if n_buckets < 1:  # checked here too, so no cell is fitted with a value rmse_by_horizon rejects
        raise ConfigError("n_buckets must be >= 1")
    if regime_names is None:
        regime_names = [f"regime{i}" for i in range(len(regimes))]
    if len(regime_names) != len(regimes):
        raise ConfigError("regime_names length must match regimes")

    reports: list[EvalReport] = []
    for ri, regime in enumerate(regimes):
        for rep in range(replicates):
            data_seed = derive_seed(seed, ri, rep)
            sim = simulate(replace(regime, seed=data_seed))
            panel = sim.panel
            truth_post = panel.values[0, panel.t0 :]
            truth_pre = panel.values[0, : panel.t0]
            buckets = min(n_buckets, truth_post.size)
            for mi, estimator in enumerate(estimators):
                cell_seed = derive_seed(seed, ri, rep, mi)
                pred, error = _attempt(panel, estimator, cell_seed)
                scores = {} if pred is None else dict(
                    rmse_by_bucket=[
                        ((panel.t0 + lo, panel.t0 + hi), value)
                        for (lo, hi), value in rmse_by_horizon(pred.y_hat, truth_post, buckets)
                    ],
                    rmse_post=rmse(pred.y_hat, truth_post),
                    rmse_pre=rmse(pred.fitted_pre, truth_pre),
                    ci_width=None if pred.ci_lower is None else float(np.mean(pred.ci_upper - pred.ci_lower)),
                    coverage=None if pred.ci_lower is None else float(
                        np.mean((pred.ci_lower <= truth_post) & (truth_post <= pred.ci_upper))
                    ),
                )
                reports.append(EvalReport(regime_names[ri], estimator.name, rep, cell_seed, error=error, **scores))
    return reports


def reports_to_rows(reports: Sequence[EvalReport]) -> list[dict]:
    """Flatten reports to long-format rows: regime, method, replicate, metric, value."""
    rows: list[dict] = []
    for rep in reports:
        base = {"regime": rep.regime, "method": rep.method, "replicate": rep.replicate, "seed": rep.seed}
        if rep.error is not None:
            rows.append({**base, "metric": "error", "value": rep.error})
            continue
        rows.append({**base, "metric": "rmse_post", "value": rep.rmse_post})
        rows.append({**base, "metric": "rmse_pre", "value": rep.rmse_pre})
        if rep.ci_width is not None:
            rows.append({**base, "metric": "ci_width", "value": rep.ci_width})
        if rep.coverage is not None:
            rows.append({**base, "metric": "coverage", "value": rep.coverage})
        for (lo, hi), value in rep.rmse_by_bucket:
            rows.append({**base, "metric": f"rmse_post[{lo}:{hi}]", "value": value})
    return rows


def write_rows_csv(
    rows: Sequence[dict],
    dest: str | Path | IO[str],
    fieldnames: Sequence[str] | None = None,
    meta: dict | None = None,
) -> None:
    """Write dict rows as CSV, with an optional leading ``#``-comment meta line."""
    if fieldnames is None:
        fieldnames = list(rows[0].keys()) if rows else []
    with open_for_write(dest) as handle:
        if meta is not None:
            handle.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        writer = csv.DictWriter(handle, fieldnames=list(fieldnames), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _format_cell(row.get(k)) for k in fieldnames})


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # float subclasses, np.float64 among them, print as the plain float
        return repr(float(value))
    return str(value)

"""The three benchmark workloads: set-up, timed loop and output checks.

Each workload centres one cost regime of the same package code:

- ``wide_infer``: the analyst's CSV-to-counterfactual path at N=200, where the
  N x N innovation factorisation of the forward pass dominates.
- ``narrow_placebo``: a placebo suite at N=12, where per-call overhead and the
  smoothing pass dominate and EM always stops at its iteration cap.
- ``baseline_sweep``: SC and RSC on simulated panels, which runs no state-space
  code.

A workload's ``setup`` builds every input from the seed and is timed as part
of ``setup_s``; its ``run`` fits those inputs in a fixed order until the
window closes, and returns one ``Fit`` per unit of work: a CLI call, a placebo
fit or a sweep call.  Each unit runs inside ``tracer.unit()``, which in a
traced run installs the layer wrappers on every second unit.  At least two
units run, so a traced run always has one traced unit.  Fit times come from
the clock around each unit.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# Slack the package allows between consecutive EM log-likelihoods
# (tasc.engine._MONOTONE_SLACK).
MONOTONE_SLACK = 1e-6
SIMPLEX_TOL = 1e-9


@dataclass
class Fit:
    """One attempted fit: its wall time, its error against the truth and its checks."""

    seconds: float = math.nan
    rmses: list[float] = field(default_factory=list)  # one per counterfactual path
    error: str | None = None
    capped: bool | None = None  # tasc only: the winning EM restart stopped at the cap
    traced: bool = False
    lead_s: float = 0.0  # placebo suite time before this fit, since the previous fit or the suite start
    bytes_read: int = 0
    artifact_bytes: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


class Deadline(Exception):
    """Raised at a fit boundary once the measuring window has closed."""


def child_seed(seed: int, *parts: int) -> int:
    """An independent seed for one input, derived here rather than by the
    package so that a change to the package never changes the inputs."""
    import numpy as np

    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


def _check_tasc(y_hat, lower, upper, trace, n_iters: int, fit: Fit) -> None:
    """Finite path, path inside its interval, non-decreasing EM trace; records the cap."""
    import numpy as np

    y_hat, lower, upper = (np.asarray(a, dtype=float) for a in (y_hat, lower, upper))
    if not np.all(np.isfinite(y_hat)):
        fit.error = "y_hat is not finite"
    elif not (np.all(lower <= y_hat) and np.all(y_hat <= upper)):
        fit.error = "y_hat lies outside [ci_lower, ci_upper]"
    elif any(b < a - MONOTONE_SLACK for a, b in zip(trace, trace[1:])):
        fit.error = "EM log-likelihood trace decreases"
    fit.capped = len(trace) - 1 == n_iters


def _rmse(pred, truth) -> float:
    import numpy as np

    diff = np.asarray(pred, dtype=float) - np.asarray(truth, dtype=float)
    return float(np.sqrt(np.mean(diff**2)))


class _FitBoundary:
    """Wrapper at ``tasc.evaluate.fit_predict``: times, spans and checks each fit.

    ``check(pred, panel, estimator, fit)`` fills in the fit's error and RMSE.
    With ``units`` each fit is one unit of work for the tracer.  Once
    ``deadline`` has passed and two fits have run, the next fit raises
    ``Deadline`` instead.
    """

    def __init__(self, tracer, deadline: float, check, units: bool):
        import tasc.evaluate

        self.module = tasc.evaluate
        self.original = tasc.evaluate.fit_predict
        self.tracer = tracer
        self.deadline = deadline
        self.check = check
        self.units = units
        self.fits: list[Fit] = []
        self.last_end = perf_counter()

    def __enter__(self):
        self.module.fit_predict = self._call
        return self

    def __exit__(self, *exc):
        self.module.fit_predict = self.original

    def _call(self, panel, estimator, seed=None):
        from tasc import TascError

        start = perf_counter()
        if start >= self.deadline and len(self.fits) >= 2:
            raise Deadline
        fit = Fit(lead_s=start - self.last_end)
        self.fits.append(fit)
        try:
            with self.tracer.unit() if self.units else nullcontext(self.tracer.active) as traced:
                fit.traced = traced
                with self.tracer.span("evaluate.fit_predict"):
                    pred = self.original(panel, estimator, seed)
        except Exception as exc:  # counted as a failed fit; the suite goes on
            fit.error = f"{type(exc).__name__}: {exc}"
            if isinstance(exc, TascError):
                raise
            raise TascError(fit.error) from exc
        finally:
            self.last_end = perf_counter()
            fit.seconds = self.last_end - start
        self.check(pred, panel, estimator, fit)
        return pred

    def suite_started(self) -> None:
        self.last_end = perf_counter()


# -- wide_infer ---------------------------------------------------------------

WIDE = {
    "full": dict(sim=dict(d_true=10, n_units=200, t_total=100, t0=70), em=dict(d=10, n_iters=25, n_restarts=2), pool=6),
    "tiny": dict(sim=dict(d_true=2, n_units=8, t_total=30, t0=20), em=dict(d=2, n_iters=4, n_restarts=2), pool=2),
}


def setup_wide(seed: int, workdir: Path, size: str) -> dict:
    """Simulate a pool of panels and write each to CSV with the target's post cells empty."""
    import numpy as np
    from tasc import SimulationConfig, save_csv, simulate

    spec = WIDE[size]
    workdir.mkdir(parents=True, exist_ok=True)
    config_path = workdir / "infer.json"
    config_path.write_text(json.dumps({"method": "tasc", "em": spec["em"]}))
    panels = []
    simulate_s = 0.0
    for i in range(spec["pool"]):
        start = perf_counter()
        sim = simulate(SimulationConfig(**spec["sim"], seed=child_seed(seed, i)))
        simulate_s += perf_counter() - start
        values = np.array(sim.panel.values)
        t0 = sim.panel.t0
        truth = values[0, t0:].copy()
        values[0, t0:] = np.nan
        path = workdir / f"panel{i}.csv"
        save_csv(sim.panel.with_values(values, target_post_missing=True), path)
        panels.append({"csv": path, "truth": truth, "t0": t0})
    return {
        "panels": panels,
        "config": config_path,
        "workdir": workdir,
        "n_iters": spec["em"]["n_iters"],
        "simulate_s": simulate_s,
    }


def _read_infer_output(out: Path) -> dict[str, list[float]]:
    with open(out, newline="") as handle:
        rows = [line for line in handle if not line.startswith("#")]
    cols: dict[str, list[float]] = {"y_hat": [], "ci_lower": [], "ci_upper": []}
    for row in csv.DictReader(rows):
        for key in cols:
            cols[key].append(float(row[key]))
    return cols


def run_wide(state: dict, tracer, seconds: float, seed: int) -> list[Fit]:
    """One in-process ``tasc infer`` per pool panel, in turn, until the window closes."""
    from tasc import cli

    fits: list[Fit] = []
    pool = state["panels"]
    window = perf_counter()
    while len(fits) < 2 or perf_counter() - window < seconds:
        i = tracer.input_index(len(fits))
        panel = pool[i % len(pool)]
        out = state["workdir"] / "out.csv"
        argv = [
            "infer", "--input", str(panel["csv"]), "--t0", str(panel["t0"]),
            "--config", str(state["config"]), "--output", str(out),
            "--seed", str(child_seed(seed, 1, i)),
        ]
        fit = Fit()
        fits.append(fit)
        start = perf_counter()
        try:
            with tracer.unit() as fit.traced, tracer.span("cli.main"):
                code = cli.main(argv)
        except Exception as exc:  # a crash of one fit is counted, never fatal
            code, fit.error = None, f"{type(exc).__name__}: {exc}"
        fit.seconds = perf_counter() - start
        if code != 0:
            fit.error = fit.error or f"tasc infer exited with {code}"
            continue
        theta_path = out.with_suffix(out.suffix + ".theta.json")
        try:
            cols = _read_infer_output(out)
            trace_ll = json.loads(theta_path.read_text())["loglik_trace"]
        except (OSError, KeyError, ValueError) as exc:  # unreadable output fails the check
            fit.error = f"unreadable tasc infer output: {type(exc).__name__}: {exc}"
            continue
        _check_tasc(cols["y_hat"], cols["ci_lower"], cols["ci_upper"], trace_ll, state["n_iters"], fit)
        fit.rmses.append(_rmse(cols["y_hat"], panel["truth"]))
        fit.bytes_read = panel["csv"].stat().st_size
        fit.artifact_bytes = out.stat().st_size + theta_path.stat().st_size
    return fits


# -- narrow_placebo -----------------------------------------------------------

NARROW = {
    "full": dict(sim=dict(d_true=3, n_units=12, t_total=80, t0=50), em=dict(d=3, n_iters=100, n_restarts=2), pool=8),
    "tiny": dict(sim=dict(d_true=2, n_units=5, t_total=30, t0=20), em=dict(d=2, n_iters=4, n_restarts=2), pool=2),
}


def setup_narrow(seed: int, workdir: Path, size: str) -> dict:
    """Simulate a pool of small panels; each placebo suite takes the next one."""
    from tasc import EmConfig, SimulationConfig, simulate
    from tasc.evaluate import Estimator

    spec = NARROW[size]
    start = perf_counter()
    panels = [
        simulate(SimulationConfig(**spec["sim"], seed=child_seed(seed, i))).panel
        for i in range(spec["pool"])
    ]
    return {
        "panels": panels,
        "estimator": Estimator(method="tasc", em=EmConfig(**spec["em"])),
        "n_iters": spec["em"]["n_iters"],
        "simulate_s": perf_counter() - start,
    }


def run_narrow(state: dict, tracer, seconds: float, seed: int) -> list[Fit]:
    """Placebo suites over the pool until the window closes; a fit is one donor as target.

    The window may close inside a suite: the next fit then raises ``Deadline``.
    Fits, not suites, are the tracer's units, so traced and untraced fits
    alternate within each suite.  The suite's own time is kept in each fit's
    ``lead_s`` rather than in a span, since half its fits run untraced.
    """
    from tasc import placebo_suite

    def check(pred, panel, estimator, fit):
        _check_tasc(pred.y_hat, pred.ci_lower, pred.ci_upper, pred.loglik_trace, state["n_iters"], fit)
        fit.rmses.append(_rmse(pred.y_hat, panel.values[0, panel.t0 :]))

    window = perf_counter()
    suite = 0
    with _FitBoundary(tracer, window + seconds, check, units=True) as boundary:
        try:
            while True:
                panel = state["panels"][suite % len(state["panels"])]
                boundary.suite_started()
                placebo_suite(panel, state["estimator"], seed=child_seed(seed, 1, suite))
                suite += 1
        except Deadline:
            pass
    return boundary.fits


# -- baseline_sweep -----------------------------------------------------------

# The two covariance regimes of acceptance criterion 5: heavy observation
# noise with t0=30, and light noise with t0=20.  A sweep call runs both
# regimes with SWEEP_REPLICATES panels each: SC fit times vary about tenfold
# from panel to panel, and summing four panels per call keeps the
# tail percentile of call times steady from one seed to the next.
SWEEP_REPLICATES = 2
SWEEP = {
    "full": dict(base=dict(d_true=10, n_units=50, t_total=100, spectral_radius=0.95), rank=10,
                 regimes={"large_r_small_q": dict(t0=30, a_r=0.1, b_r=1.0),
                          "small_r_small_q": dict(t0=20, a_r=0.01, b_r=0.1)}),
    "tiny": dict(base=dict(d_true=2, n_units=6, t_total=30, spectral_radius=0.95), rank=2,
                 regimes={"large_r_small_q": dict(t0=20, a_r=0.1, b_r=1.0),
                          "small_r_small_q": dict(t0=15, a_r=0.01, b_r=0.1)}),
}


def setup_sweep(seed: int, workdir: Path, size: str) -> dict:
    """Regimes and estimators only: the sweep simulates its data inside each cell."""
    from tasc import DEFAULT_CV_GRID, RscConfig, SimulationConfig
    from tasc.evaluate import Estimator

    spec = SWEEP[size]
    regimes = [
        (name, SimulationConfig(**spec["base"], a_q=0.01, b_q=0.1, **extra))
        for name, extra in spec["regimes"].items()
    ]
    estimators = [
        Estimator(method="sc"),
        Estimator(method="rsc", rsc=RscConfig(d=spec["rank"], cv_grid=DEFAULT_CV_GRID)),
    ]
    return {"regimes": regimes, "estimators": estimators, "simulate_s": 0.0}


def run_sweep(state: dict, tracer, seconds: float, seed: int) -> list[Fit]:
    """``method_sweep`` calls over both regimes until the window closes.

    A fit here is one sweep call: it simulates ``SWEEP_REPLICATES`` panels
    per regime and fits both baselines to each, eight cells in all.
    """
    import numpy as np
    from tasc import method_sweep

    names = [name for name, _ in state["regimes"]]
    regimes = [regime for _, regime in state["regimes"]]
    estimators = state["estimators"]

    def check(pred, panel, estimator, fit):
        if not np.all(np.isfinite(pred.y_hat)):
            fit.error = "y_hat is not finite"
        elif estimator.method == "sc":
            f = pred.weights.f
            if f.min() < 0.0 or abs(f.sum() - 1.0) > SIMPLEX_TOL:
                fit.error = "SC weights are not on the simplex"

    fits: list[Fit] = []
    window = perf_counter()
    with _FitBoundary(tracer, math.inf, check, units=False) as boundary:
        while len(fits) < 2 or perf_counter() - window < seconds:
            i = tracer.input_index(len(fits))
            fit = Fit()
            fits.append(fit)
            cells = len(boundary.fits)
            start = perf_counter()
            try:
                with tracer.unit() as fit.traced, tracer.span("evaluate.method_sweep"):
                    reports = method_sweep(
                        regimes, estimators, SWEEP_REPLICATES, seed=child_seed(seed, 1, i), regime_names=names
                    )
            except Exception as exc:  # a crash of one sweep call is counted, never fatal
                reports = []
                fit.error = f"{type(exc).__name__}: {exc}"
            fit.seconds = perf_counter() - start
            errors = [r.error for r in reports] + [f.error for f in boundary.fits[cells:]]
            fit.error = fit.error or next((e for e in errors if e is not None), None)
            if fit.error is None:
                fit.rmses = [r.rmse_post for r in reports]
    return fits


WORKLOADS = {
    "wide_infer": (setup_wide, run_wide),
    "narrow_placebo": (setup_narrow, run_narrow),
    "baseline_sweep": (setup_sweep, run_sweep),
}

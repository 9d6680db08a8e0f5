"""Command-line entry point: infer / simulate / placebo / permute / bench.

Every command reads optional JSON configuration (flags override file values),
derives all randomness from one root seed, and stamps each output artifact
with the tool version, the command line and the seed so any file can be
regenerated.  Exit codes: 0 success, 1 parse/config failure, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._numeric import read_json, write_json
from .baselines import DEFAULT_CV_GRID, RscConfig, _weights_doc
from .engine import EmConfig
from .errors import ConfigError, FitError, NumericalError, ParseError, SolverError
from .evaluate import (
    Estimator,
    fit_predict,
    method_sweep,
    permutation_stress_test,
    placebo_suite,
    reports_to_rows,
    rmse,
    threshold_filter,
    write_rows_csv,
)
from .panel import PanelData, load_csv
from .simulate import SimulationConfig, save_simulation, simulate
from .ssm import _params_doc

_FAIL_CONFIG = 1
_FAIL_NUMERIC = 2


def _meta(argv: list[str], seed: int | None) -> dict:
    return {
        "tool": "tasc",
        "version": __version__,
        "command": "tasc " + " ".join(argv),
        "seed": seed,
    }


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ConfigError("config file must contain a JSON object")
    return doc


def _pick(args_value, config: dict, key: str, default):
    """Flag value if given, else config-file value, else default."""
    if args_value is not None:
        return args_value
    return config.get(key, default)


def _config_int(value, key: str) -> int:
    """A config integer; strings and floats are rejected rather than parsed or truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _config_bool(value, key: str) -> bool:
    """A config boolean; only JSON true/false, since bool("false") is true."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _build_estimator(args, config: dict) -> Estimator:
    method = _pick(getattr(args, "method", None), config, "method", None)
    if method is None:
        raise ConfigError("no method given (use --method or the config file)")
    try:
        seed = int(_pick(args.seed, config, "seed", 0))
        level = float(_pick(getattr(args, "level", None), config, "level", 0.95))
        center = getattr(args, "center", False) or _config_bool(config.get("center", False), "center")

        em_doc = dict(config.get("em", {}))
        rsc_doc = dict(config.get("rsc", {}))
        d = getattr(args, "d", None)
        if d is not None:
            em_doc["d"] = d
            rsc_doc["d"] = d
        if getattr(args, "n1", None) is not None:
            em_doc["n_iters"] = args.n1
        if getattr(args, "lambda_", None) is not None:
            rsc_doc["lambda"] = args.lambda_

        em = None
        if method == "tasc":
            if "d" not in em_doc:
                raise ConfigError("tasc needs a latent dimension (--d or em.d in config)")
            em = EmConfig(
                d=int(em_doc["d"]),
                n_iters=int(em_doc.get("n_iters", 200)),
                rel_tol=float(em_doc.get("rel_tol", 1e-6)),
                n_restarts=int(em_doc.get("n_restarts", 5)),
                seed=seed,
                diag_noise=_config_bool(em_doc.get("diag_noise", True), "em.diag_noise"),
            )
        rsc = None
        if method == "rsc":
            if "d" not in rsc_doc:
                raise ConfigError("rsc needs a kept rank (--d or rsc.d in config)")
            grid = rsc_doc.get("cv_grid")
            if grid is None and "lambda" not in rsc_doc:
                grid = list(DEFAULT_CV_GRID)
            rsc = RscConfig(
                d=int(rsc_doc["d"]),
                lambda_=float(rsc_doc.get("lambda", 0.0)),
                cv_grid=tuple(float(g) for g in grid) if grid is not None else None,
            )
    except (TypeError, ValueError) as exc:  # e.g. int("x"), or a number where a list belongs
        raise ConfigError(f"malformed config value: {exc}") from None
    return Estimator(method=method, em=em, rsc=rsc, level=level, center=center)


def _load_panel(args, config: dict) -> PanelData:
    if args.input is None:
        raise ConfigError("an input panel CSV is required (--input)")
    path = Path(args.input)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    t0 = _pick(getattr(args, "t0", None), config, "t0", None)
    if t0 is None:
        raise ConfigError("the intervention index is required (--t0 or config t0)")
    no_header = getattr(args, "no_header", False) or _config_bool(config.get("no_header", False), "no_header")
    target_row = _config_int(_pick(getattr(args, "target_row", None), config, "target_row", 0), "target_row")
    return load_csv(path, t0=_config_int(t0, "t0"), has_header=not no_header, target_row=target_row)


def _write_table(rows: list[dict], fieldnames: list[str], out: Path, fmt: str, meta: dict) -> None:
    if fmt == "json":
        write_json({"meta": meta, "rows": rows}, out)
    else:
        write_rows_csv(rows, out, fieldnames=fieldnames, meta=meta)


def cmd_infer(args, argv: list[str]) -> int:
    config = _load_config(args.config)
    panel = _load_panel(args, config)
    estimator = _build_estimator(args, config)
    seed = int(_pick(args.seed, config, "seed", 0))
    meta = _meta(argv, seed)
    pred = fit_predict(panel, estimator, seed=seed)

    t0 = panel.t0
    target_post = panel.values[0, t0:]
    have_observed = not panel.target_post_missing and np.all(np.isfinite(target_post))
    rows = []
    for i in range(panel.n_periods - t0):
        row = {
            "t": t0 + i,
            "time_label": panel.time_labels[t0 + i],
            "y_hat": float(pred.y_hat[i]),
        }
        if pred.ci_lower is not None:
            row["ci_lower"] = float(pred.ci_lower[i])
            row["ci_upper"] = float(pred.ci_upper[i])
        if have_observed:
            row["observed"] = float(target_post[i])
            row["effect"] = float(target_post[i] - pred.y_hat[i])
        rows.append(row)
    fieldnames = list(rows[0].keys())

    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_table(rows, fieldnames, out, args.format, meta)
    if pred.theta is not None:
        doc = _params_doc(pred.theta, loglik_trace=pred.loglik_trace)
        doc["meta"] = meta
        write_json(doc, out.with_suffix(out.suffix + ".theta.json"))
    if pred.weights is not None:
        doc = _weights_doc(pred.weights)
        doc["meta"] = meta
        write_json(doc, out.with_suffix(out.suffix + ".weights.json"))
    return 0


def _sim_config_from(doc: dict, seed: int | None) -> SimulationConfig:
    try:
        return SimulationConfig(
            d_true=int(doc["d_true"]),
            n_units=int(doc["n_units"]),
            t_total=int(doc["t_total"]),
            t0=int(doc["t0"]),
            a_q=float(doc.get("a_q", 0.01)),
            b_q=float(doc.get("b_q", 0.1)),
            a_r=float(doc.get("a_r", 0.01)),
            b_r=float(doc.get("b_r", 0.1)),
            spectral_radius=float(doc.get("spectral_radius", 0.95)),
            seed=int(doc.get("seed", 0)) if seed is None else seed,
        )
    except KeyError as exc:
        raise ConfigError(f"simulation config missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed simulation config value: {exc}") from None


def cmd_simulate(args, argv: list[str]) -> int:
    config = _load_config(args.config)
    seed = args.seed if args.seed is not None else None
    sim_config = _sim_config_from(config, seed)
    meta = _meta(argv, sim_config.seed)
    sim = simulate(sim_config)
    out = Path(args.output)
    paths = save_simulation(sim, out)
    doc = {"meta": meta, "config": sim_config.__dict__, "files": {k: str(v) for k, v in paths.items()}}
    write_json(doc, out / "meta.json")
    return 0


def cmd_placebo(args, argv: list[str]) -> int:
    config = _load_config(args.config)
    panel = _load_panel(args, config)
    estimator = _build_estimator(args, config)
    seed = int(_pick(args.seed, config, "seed", 0))
    meta = _meta(argv, seed)
    try:
        ratios = [float(r) for r in args.ratio.split(",")] if args.ratio else [10.0, 5.0, 2.0]
    except ValueError:
        raise ConfigError(f"--ratio must be comma-separated numbers, got {args.ratio!r}") from None

    result = placebo_suite(panel, estimator, seed=seed)
    target_pred = fit_predict(panel, estimator, seed=seed)
    target_pre_rmse = rmse(target_pred.fitted_pre, panel.values[0, : panel.t0])
    target_pre_mse = target_pre_rmse**2

    rows = []
    for entry in result.entries:
        rows.append(
            {
                "unit": entry.unit_label,
                "rmse_pre": entry.rmse_pre,
                "rmse_post": entry.rmse_post,
                "mse_ratio_to_target": (entry.rmse_pre**2) / target_pre_mse
                if target_pre_mse > 0 and entry.error is None
                else float("nan"),
                "error": entry.error or "",
            }
        )
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_table(rows, ["unit", "rmse_pre", "rmse_post", "mse_ratio_to_target", "error"], out, args.format, meta)

    gap_rows = []
    target_gap = None
    if not panel.target_post_missing:
        predicted = np.concatenate([target_pred.fitted_pre, target_pred.y_hat])
        target_gap = panel.values[0] - predicted
        for t in range(panel.n_periods):
            gap_rows.append(
                {"unit": panel.unit_labels[0], "t": t, "time_label": panel.time_labels[t], "gap": float(target_gap[t])}
            )
    for entry in result.entries:
        if entry.gap is None:
            continue
        for t in range(panel.n_periods):
            gap_rows.append(
                {"unit": entry.unit_label, "t": t, "time_label": panel.time_labels[t], "gap": float(entry.gap[t])}
            )
    gaps_path = Path(str(out) + ".gaps.csv")
    write_rows_csv(gap_rows, gaps_path, fieldnames=["unit", "t", "time_label", "gap"], meta=meta)

    retained = {
        repr(ratio): threshold_filter(result, target_pre_mse, ratio) for ratio in ratios
    }
    retained_doc = {"meta": meta, "target_pre_mse": target_pre_mse, "retained": retained}
    write_json(retained_doc, str(out) + ".retained.json")
    return 0


def cmd_permute(args, argv: list[str]) -> int:
    config = _load_config(args.config)
    estimator = _build_estimator(args, config)
    seed = int(_pick(args.seed, config, "seed", 0))
    meta = _meta(argv, seed)
    if args.simconfig:
        sim_doc = read_json(args.simconfig)
        data = _sim_config_from(sim_doc, None)
    else:
        data = _load_panel(args, config)
    result = permutation_stress_test(data, estimator, n_shuffles=args.shuffles, seed=seed)

    rows = [{"kind": "ordered", "index": -1, "rmse": result.rmse_ordered, "error": ""}]
    for i, (value, err) in enumerate(zip(result.rmse_shuffled, result.errors)):
        rows.append({"kind": "shuffled", "index": i, "rmse": value, "error": err or ""})
    rows.append({"kind": "mean_ratio", "index": -1, "rmse": result.mean_ratio, "error": ""})
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_table(rows, ["kind", "index", "rmse", "error"], out, args.format, meta)
    return 0


def cmd_bench(args, argv: list[str]) -> int:
    doc = read_json(args.regimes)
    regimes_doc = doc["regimes"] if isinstance(doc, dict) and "regimes" in doc else doc
    if not isinstance(regimes_doc, list) or not regimes_doc:
        raise ConfigError("regimes file must hold a nonempty list of simulation configs")
    names = []
    regimes = []
    for i, entry in enumerate(regimes_doc):
        if not isinstance(entry, dict):
            raise ConfigError(f"regime {i} must be a JSON object, got {entry!r}")
        names.append(str(entry.get("name", f"regime{i}")))
        regimes.append(_sim_config_from(entry, None))

    config = _load_config(args.config)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    estimators = []
    for m in methods:
        sub = argparse.Namespace(**{**vars(args), "method": m})
        estimators.append(_build_estimator(sub, config))  # checks the config values first
    seed = int(_pick(args.seed, config, "seed", 0))
    meta = _meta(argv, seed)

    reports = method_sweep(
        regimes,
        estimators,
        replicates=args.replicates,
        seed=seed,
        n_buckets=args.buckets,
        regime_names=names,
    )
    rows = reports_to_rows(reports)
    if args.metrics == "post":
        rows = [r for r in rows if r["metric"] in ("rmse_post", "error")]
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_table(rows, ["regime", "method", "replicate", "seed", "metric", "value"], out, args.format, meta)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); config failures are exit 1
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tasc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tasc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", help="panel CSV path")
            p.add_argument("--t0", type=int, help="number of pre-intervention columns")
            p.add_argument("--no-header", action="store_true", help="CSV has no label row/column")
            p.add_argument("--target-row", type=int, help="0-based target row in the CSV")
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--output", required=True, help="output path")
        p.add_argument("--seed", type=int, help="root seed recorded in all outputs")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def method_flags(p):
        p.add_argument("--method", choices=("tasc", "sc", "rsc"))
        p.add_argument("--d", type=int, help="latent dimension / kept rank")
        p.add_argument("--n1", type=int, help="EM iteration cap")
        p.add_argument("--lambda", dest="lambda_", type=float, help="ridge coefficient")
        p.add_argument("--level", type=float, help="confidence level (tasc)")
        p.add_argument("--center", action="store_true", help="donor-mean centering before fit")

    p = sub.add_parser("infer", help="fit one estimator and write the counterfactual path")
    common(p)
    method_flags(p)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("simulate", help="generate a synthetic panel with known truth")
    common(p, needs_input=False)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("placebo", help="donor-as-target placebo suite with threshold filtering")
    common(p)
    method_flags(p)
    p.add_argument("--ratio", help="comma-separated pre-fit MSE ratios (default 10,5,2)")
    p.set_defaults(func=cmd_placebo)

    p = sub.add_parser("permute", help="pre/post column shuffle stress test")
    common(p)
    method_flags(p)
    p.add_argument("--simconfig", help="simulation config JSON instead of an input panel")
    p.add_argument("--shuffles", type=int, default=20)
    p.set_defaults(func=cmd_permute)

    p = sub.add_parser("bench", help="regime x method x replicate sweep")
    common(p, needs_input=False)
    method_flags(p)
    p.add_argument(
        "--regimes", required=True,
        help="JSON list of simulation configs, or an object with a 'regimes' list; a file or the JSON text",
    )
    p.add_argument("--methods", default="tasc,sc,rsc", help="comma-separated method tags")
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--buckets", type=int, default=5)
    p.add_argument("--metrics", choices=("post", "all"), default="post",
                   help="emit only rmse_post rows (default) or every metric")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, argv)
    except SystemExit as exc:  # e.g. --version
        return int(exc.code or 0)
    except (ParseError, ConfigError, FileNotFoundError, IsADirectoryError, json.JSONDecodeError) as exc:
        print(f"tasc: error: {exc}", file=sys.stderr)
        return _FAIL_CONFIG
    except (NumericalError, FitError, SolverError) as exc:
        print(f"tasc: numerical failure: {exc}", file=sys.stderr)
        return _FAIL_NUMERIC


def main_entry() -> None:
    sys.exit(main())

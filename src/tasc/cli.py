"""Command-line entry point: infer / simulate / placebo / permute / bench.

Every command reads optional JSON configuration (flags override file values),
derives all randomness from one root seed, and stamps each output artifact
with the tool version, the command line and the seed so any file can be
regenerated.  Exit codes: 0 success, 1 parse/config failure or an
unwritable output path, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import get_type_hints

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

# What each config document may hold, key -> kind.  A kind is a JSON scalar
# type (bool, int, float, str), a nested table of this form, or [kind] for a
# list.  The em, simulation and regime tables are the dataclasses' own fields,
# so every key left out takes the dataclass's default.
_EM_KINDS = {k: v for k, v in get_type_hints(EmConfig).items() if k != "seed"}  # seed: top level or --seed
_RSC_KINDS = {"d": int, "lambda": float, "cv_grid": [float]}
_CONFIG_KINDS = {
    "method": str, "seed": int, "level": float, "center": bool, "em": _EM_KINDS, "rsc": _RSC_KINDS,
    "t0": int, "target_row": int, "no_header": bool,
}
_SIM_KINDS = get_type_hints(SimulationConfig)
_REGIME_KINDS = {**_SIM_KINDS, "name": str}
_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


def _meta(argv: list[str], seed: int | None) -> dict:
    return {"tool": "tasc", "version": __version__, "command": "tasc " + " ".join(argv), "seed": seed}


def _typed(value, kind, key: str):
    """``value`` if its JSON type is ``kind``, else a ConfigError naming ``key``.

    Nothing is parsed or rounded: a boolean is never a number, a float never
    an integer and a string never either.  An integer passes as a number, and
    is read as the float of the same value.
    """
    if isinstance(kind, dict):
        return _checked(value, kind, key)
    if isinstance(kind, list):
        if isinstance(value, list):
            return [_typed(item, kind[0], f"{key}[{i}]") for i, item in enumerate(value)]
    elif isinstance(value, bool) == (kind is bool) and isinstance(value, (int, float) if kind is float else kind):
        if kind is not float:
            return value
        if abs(value) <= sys.float_info.max:  # not inf or nan, nor an integer past the float range
            return float(value)
    raise ConfigError(f"{key} must be {'a list' if isinstance(kind, list) else _KIND_NAMES[kind]}, got {value!r}")


def _checked(doc, kinds: dict, where: str) -> dict:
    """``doc`` as a JSON object whose keys are all in ``kinds`` and whose values have those kinds.

    Messages name a key under ``where``: ``em`` names ``em.d``, and ``""`` the
    top level.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where or 'config'} must be a JSON object, got {doc!r}")
    checked = {}
    for key, value in doc.items():
        name = f"{where}.{key}" if where else key
        if key not in kinds:
            raise ConfigError(f"{name} is not a known key; expected one of: {', '.join(kinds)}")
        checked[key] = _typed(value, kinds[key], name)
    return checked


def _load_config(source: str | None, kinds: dict = _CONFIG_KINDS) -> dict:
    """The checked config object in ``source`` (a path or the JSON text); {} without one."""
    return {} if source is None else _checked(read_json(source), kinds, "")


def _simulation(doc: dict, where: str) -> SimulationConfig:
    """The SimulationConfig of a checked document; it must hold every key without a default."""
    for field in fields(SimulationConfig):
        if field.default is MISSING and field.name not in doc:
            raise ConfigError(f"{where} missing key {field.name!r}")
    return SimulationConfig(**doc)


def _pick(args_value, config: dict, key: str, default):
    """Flag value if given, else config-file value, else default."""
    return config.get(key, default) if args_value is None else args_value


def _build_estimator(args, config: dict) -> Estimator:
    method = _pick(args.method, config, "method", None)
    if method is None:
        raise ConfigError("no method given (use --method or the config file)")
    em_doc = dict(config.get("em", {}))
    rsc_doc = dict(config.get("rsc", {}))
    if args.d is not None:
        em_doc["d"] = rsc_doc["d"] = args.d
    if args.n1 is not None:
        em_doc.update(n_iters=args.n1)
    if args.lambda_ is not None:
        rsc_doc["lambda"] = args.lambda_

    em = rsc = None
    if method == "tasc":
        if "d" not in em_doc:
            raise ConfigError("tasc needs a latent dimension (--d or em.d in config)")
        em = EmConfig(**em_doc, seed=_pick(args.seed, config, "seed", 0))
    if method == "rsc":
        if "d" not in rsc_doc:
            raise ConfigError("rsc needs a kept rank (--d or rsc.d in config)")
        grid = rsc_doc.get("cv_grid")
        if grid is None and "lambda" not in rsc_doc:
            grid = DEFAULT_CV_GRID
        rsc = RscConfig(
            d=rsc_doc["d"], lambda_=rsc_doc.get("lambda", 0.0), cv_grid=None if grid is None else tuple(grid)
        )
    level = _pick(args.level, config, "level", 0.95)
    return Estimator(method=method, em=em, rsc=rsc, level=level, center=args.center or config.get("center", False))


def _load_panel(args, config: dict) -> PanelData:
    if args.input is None:
        raise ConfigError("an input panel CSV is required (--input)")
    path = Path(args.input)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    t0 = _pick(args.t0, config, "t0", None)
    if t0 is None:
        raise ConfigError("the intervention index is required (--t0 or config t0)")
    no_header = args.no_header or config.get("no_header", False)
    return load_csv(path, t0=t0, has_header=not no_header, target_row=_pick(args.target_row, config, "target_row", 0))


def _output(output: str) -> Path:
    """The ``--output`` path with its directory made, so a bad path fails before any work."""
    out = Path(output)
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _write_table(rows: list[dict], fieldnames: list[str], out: Path, fmt: str, meta: dict) -> None:
    """Write ``rows`` to ``out`` as CSV or JSON; a non-finite JSON cell is null."""
    if fmt == "json":
        rows = [{k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in r.items()} for r in rows]
        write_json({"meta": meta, "rows": rows}, out)
    else:
        write_rows_csv(rows, out, fieldnames=fieldnames, meta=meta)


def cmd_infer(args, argv: list[str]) -> int:
    config = _load_config(args.config)
    panel = _load_panel(args, config)
    estimator = _build_estimator(args, config)
    seed = _pick(args.seed, config, "seed", 0)
    meta = _meta(argv, seed)
    out = _output(args.output)
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
    _write_table(rows, list(rows[0].keys()), out, args.format, meta)
    if pred.em is not None:
        doc = _params_doc(pred.em.theta, loglik_trace=pred.em.loglik_trace)
        write_json({**doc, "meta": meta}, f"{out}.theta.json")
    if pred.weights is not None:
        write_json({**_weights_doc(pred.weights), "meta": meta}, f"{out}.weights.json")
    return 0


def cmd_simulate(args, argv: list[str]) -> int:
    doc = _load_config(args.config, _SIM_KINDS)
    if args.seed is not None:
        doc["seed"] = args.seed
    sim_config = _simulation(doc, "simulation config")
    meta = _meta(argv, sim_config.seed)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)  # before the simulation, so a bad path fails first
    sim = simulate(sim_config)
    paths = save_simulation(sim, out)
    doc = {"meta": meta, "config": sim_config.__dict__, "files": {k: str(v) for k, v in paths.items()}}
    write_json(doc, out / "meta.json")
    return 0


def cmd_placebo(args, argv: list[str]) -> int:
    config = _load_config(args.config)
    panel = _load_panel(args, config)
    estimator = _build_estimator(args, config)
    seed = _pick(args.seed, config, "seed", 0)
    meta = _meta(argv, seed)
    try:
        ratios = [float(r) for r in args.ratio.split(",")] if args.ratio else [10.0, 5.0, 2.0]
        valid = all(0.0 < r < math.inf for r in ratios)
    except ValueError:
        valid = False
    if not valid:  # checked before the suite runs or any file is written
        raise ConfigError(f"--ratio must be comma-separated finite numbers > 0, got {args.ratio!r}")
    out = _output(args.output)

    entries = placebo_suite(panel, estimator, seed=seed)
    target_pred = fit_predict(panel, estimator, seed=seed)
    target_pre_rmse = rmse(target_pred.fitted_pre, panel.values[0, : panel.t0])
    target_pre_mse = target_pre_rmse**2

    rows = [
        {
            "unit": entry.unit_label,
            "rmse_pre": entry.rmse_pre,
            "rmse_post": entry.rmse_post,
            "mse_ratio_to_target": (entry.rmse_pre**2) / target_pre_mse
            if target_pre_mse > 0 and entry.error is None
            else float("nan"),
            "error": entry.error or "",
        }
        for entry in entries
    ]
    _write_table(rows, ["unit", "rmse_pre", "rmse_post", "mse_ratio_to_target", "error"], out, args.format, meta)

    gaps = [] if panel.target_post_missing else [
        (panel.unit_labels[0], panel.values[0] - np.concatenate([target_pred.fitted_pre, target_pred.y_hat]))
    ]
    gaps += [(entry.unit_label, entry.gap) for entry in entries if entry.gap is not None]
    gap_rows = [
        {"unit": unit, "t": t, "time_label": label, "gap": float(gap[t])}
        for unit, gap in gaps
        for t, label in enumerate(panel.time_labels)
    ]
    write_rows_csv(gap_rows, f"{out}.gaps.csv", fieldnames=["unit", "t", "time_label", "gap"], meta=meta)

    retained = {repr(ratio): threshold_filter(entries, target_pre_mse, ratio) for ratio in ratios}
    retained_doc = {"meta": meta, "target_pre_mse": target_pre_mse, "retained": retained}
    write_json(retained_doc, f"{out}.retained.json")
    return 0


def cmd_permute(args, argv: list[str]) -> int:
    config = _load_config(args.config)
    estimator = _build_estimator(args, config)
    seed = _pick(args.seed, config, "seed", 0)
    meta = _meta(argv, seed)
    if args.simconfig:
        data = _simulation(_load_config(args.simconfig, _SIM_KINDS), "simulation config")
    else:
        data = _load_panel(args, config)
    out = _output(args.output)
    result = permutation_stress_test(data, estimator, n_shuffles=args.shuffles, seed=seed)

    rows = [{"kind": "ordered", "index": -1, "rmse": result.rmse_ordered, "error": ""}]
    for i, (value, err) in enumerate(zip(result.rmse_shuffled, result.errors)):
        rows.append({"kind": "shuffled", "index": i, "rmse": value, "error": err or ""})
    rows.append({"kind": "mean_ratio", "index": -1, "rmse": result.mean_ratio, "error": ""})
    _write_table(rows, ["kind", "index", "rmse", "error"], out, args.format, meta)
    return 0


def cmd_bench(args, argv: list[str]) -> int:
    doc = read_json(args.regimes)
    wrapper = _checked(doc if isinstance(doc, dict) else {"regimes": doc}, {"regimes": [_REGIME_KINDS]}, "")
    if not wrapper.get("regimes"):
        raise ConfigError("regimes file must hold a nonempty list of simulation configs")
    names = []
    regimes = []
    for i, entry in enumerate(wrapper["regimes"]):
        names.append(entry.pop("name", f"regime{i}"))
        regimes.append(_simulation(entry, f"regimes[{i}]"))

    config = _load_config(args.config)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ConfigError(f"--methods must name at least one method, got {args.methods!r}")
    estimators = []
    for m in methods:
        sub = argparse.Namespace(**{**vars(args), "method": m})
        estimators.append(_build_estimator(sub, config))  # checks the config values first
    seed = _pick(args.seed, config, "seed", 0)
    meta = _meta(argv, seed)
    out = _output(args.output)
    reports = method_sweep(
        regimes, estimators, replicates=args.replicates, seed=seed, n_buckets=args.buckets, regime_names=names
    )
    rows = reports_to_rows(reports)
    if args.metrics == "post":
        rows = [r for r in rows if r["metric"] in ("rmse_post", "error")]
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
    except (ParseError, ConfigError, OSError) as exc:
        print(f"tasc: error: {exc}", file=sys.stderr)
        return _FAIL_CONFIG
    except (NumericalError, FitError, SolverError) as exc:
        print(f"tasc: numerical failure: {exc}", file=sys.stderr)
        return _FAIL_NUMERIC


def main_entry() -> None:
    sys.exit(main())

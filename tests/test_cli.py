import json
from pathlib import Path

import numpy as np
import pytest

from tasc import (
    EmConfig, PanelData, ParseError, fit_predict, load_csv, params_from_json, save_csv, weights_from_json, weights_to_json
)
from tasc import cli
from tasc.cli import main


@pytest.fixture()
def toy_panel_csv(tmp_path):
    """Noiseless rank-1 panel; target row equals donor 1's row."""
    t_total, t0 = 24, 16
    xs = 5.0 * 0.9 ** np.arange(1, t_total + 1)
    h = np.array([1.0, 1.0, 0.6, -0.4])
    values = np.outer(h, xs)
    panel = PanelData(
        values, t0,
        ("target", "donor1", "donor2", "donor3"),
        tuple(f"t{j}" for j in range(t_total)),
    )
    path = tmp_path / "panel.csv"
    save_csv(panel, path)
    return path, t0


def read_csv_rows(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


class TestInfer:
    def test_tasc_writes_path_with_intervals_and_theta(self, toy_panel_csv, tmp_path, monkeypatch):
        path, t0 = toy_panel_csv
        out = tmp_path / "out.csv"
        fits = []

        def recording_fit_predict(*args, **kwargs):
            fits.append(fit_predict(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(cli, "fit_predict", recording_fit_predict)
        code = main([
            "infer", "--input", str(path), "--t0", str(t0), "--method", "tasc",
            "--d", "1", "--n1", "40", "--output", str(out), "--seed", "0",
        ])
        assert code == 0
        rows = read_csv_rows(out)
        assert len(rows) == 24 - t0
        assert {"t", "time_label", "y_hat", "ci_lower", "ci_upper", "observed", "effect"} <= set(rows[0])
        theta_doc = json.loads(out.with_suffix(".csv.theta.json").read_text())
        assert theta_doc["d"] == 1
        assert theta_doc["meta"]["seed"] == 0
        written = params_from_json(out.with_suffix(".csv.theta.json"))
        (fitted,) = fits
        for name in ("A", "H", "Q", "R", "m0", "P0"):
            assert np.array_equal(getattr(written, name), getattr(fitted.em.theta, name))
        assert written.diag_noise == fitted.em.theta.diag_noise
        assert theta_doc["R"] == fitted.em.theta.R.tolist()  # diag_noise: R is its diagonal
        assert theta_doc["loglik_trace"] == fitted.loglik_trace

    def test_sc_vertex_weights_on_identical_donor(self, toy_panel_csv, tmp_path, monkeypatch):
        path, t0 = toy_panel_csv
        out = tmp_path / "sc.csv"
        fits = []

        def recording_fit_predict(*args, **kwargs):
            fits.append(fit_predict(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(cli, "fit_predict", recording_fit_predict)
        code = main([
            "infer", "--input", str(path), "--t0", str(t0), "--method", "sc",
            "--output", str(out), "--seed", "0",
        ])
        assert code == 0
        weights_path = out.with_suffix(".csv.weights.json")
        weights = json.loads(weights_path.read_text())
        assert weights["kind"] == "simplex"
        assert weights["f"][0] >= 0.999
        (fitted,) = fits
        assert weights.pop("meta")["seed"] == 0
        assert json.dumps(weights, indent=2) == weights_to_json(fitted.weights)
        written = weights_from_json(weights_path)
        assert np.array_equal(written.f, fitted.weights.f)
        assert (written.kind, written.lambda_, written.d) == (
            fitted.weights.kind, fitted.weights.lambda_, fitted.weights.d
        )

    def test_missing_input_exits_1_without_output(self, tmp_path):
        out = tmp_path / "never.csv"
        code = main([
            "infer", "--input", str(tmp_path / "nope.csv"), "--t0", "2",
            "--method", "sc", "--output", str(out),
        ])
        assert code == 1
        assert not out.exists()

    def test_json_format(self, toy_panel_csv, tmp_path):
        path, t0 = toy_panel_csv
        out = tmp_path / "out.json"
        code = main([
            "infer", "--input", str(path), "--t0", str(t0), "--method", "rsc",
            "--d", "1", "--lambda", "0.1", "--output", str(out), "--format", "json",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["tool"] == "tasc"
        assert len(doc["rows"]) == 24 - t0

    def test_output_under_a_file_exits_1(self, toy_panel_csv, tmp_path, capsys):
        path, t0 = toy_panel_csv
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main([
            "infer", "--input", str(path), "--t0", str(t0), "--method", "sc", "--output", str(blocker / "out.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("tasc: error: ") and err.count("\n") == 1

    def test_numerical_failure_exits_2(self, tmp_path):
        # An all-zero pre panel has relative noise floors of 0, which makes R
        # singular at every EM restart.
        panel = PanelData(
            np.zeros((3, 12)),
            8,
            ("a", "b", "c"),
            tuple(f"t{j}" for j in range(12)),
        )
        path = tmp_path / "bad.csv"
        save_csv(panel, path)
        code = main([
            "infer", "--input", str(path), "--t0", "8", "--method", "tasc",
            "--d", "1", "--n1", "5", "--output", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_config_file_with_flag_override(self, toy_panel_csv, tmp_path):
        path, t0 = toy_panel_csv
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"method": "rsc", "t0": t0, "rsc": {"d": 2, "lambda": 1.0}}))
        out = tmp_path / "out.csv"
        code = main([
            "infer", "--input", str(path), "--config", str(config),
            "--d", "1", "--output", str(out),
        ])
        assert code == 0
        weights = json.loads(out.with_suffix(".csv.weights.json").read_text())
        assert weights["d"] == 1  # flag overrode the config file

    def test_inline_config_text_matches_file(self, toy_panel_csv, tmp_path):
        path, t0 = toy_panel_csv
        text = json.dumps({"method": "sc", "t0": t0})
        config = tmp_path / "config.json"
        config.write_text(text)
        outs = []
        for i, source in enumerate((str(config), text)):
            outs.append(tmp_path / f"out{i}.csv")
            code = main(["infer", "--input", str(path), "--config", source, "--output", str(outs[-1])])
            assert code == 0
        weights = [json.loads(out.with_suffix(".csv.weights.json").read_text()) for out in outs]
        assert weights[0]["f"] == weights[1]["f"]


class TestSimulate:
    def test_writes_panel_signal_theta(self, tmp_path):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({
            "d_true": 2, "n_units": 6, "t_total": 20, "t0": 12, "seed": 5,
        }))
        out = tmp_path / "simout"
        code = main(["simulate", "--config", str(config), "--output", str(out)])
        assert code == 0
        for name in ("panel.csv", "signal.csv", "theta.json", "meta.json"):
            assert (out / name).exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["seed"] == 5

    def test_output_that_is_a_file_exits_1(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        code = main([
            "simulate", "--config", '{"d_true": 1, "n_units": 4, "t_total": 12, "t0": 8}', "--output", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("tasc: error: ") and err.count("\n") == 1
        assert out.read_text() == ""

    def test_seed_flag_overrides(self, tmp_path):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"d_true": 1, "n_units": 4, "t_total": 10, "t0": 6}))
        out = tmp_path / "simout"
        code = main(["simulate", "--config", str(config), "--output", str(out), "--seed", "9"])
        assert code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["seed"] == 9

    def test_simulated_panel_feeds_infer_unchanged(self, tmp_path):
        # panel.csv carries no leading # meta line, so infer reads its first line as the header.
        out = tmp_path / "simout"
        config = '{"d_true": 1, "n_units": 4, "t_total": 12, "t0": 8}'
        assert main(["simulate", "--config", config, "--output", str(out)]) == 0
        code = main([
            "infer", "--input", str(out / "panel.csv"), "--t0", "8", "--method", "sc",
            "--output", str(tmp_path / "cf.csv"),
        ])
        assert code == 0
        assert len(read_csv_rows(tmp_path / "cf.csv")) == 4


class TestPlacebo:
    def test_outputs_tables_and_retained_lists(self, toy_panel_csv, tmp_path):
        path, t0 = toy_panel_csv
        out = tmp_path / "placebo.csv"
        code = main([
            "placebo", "--input", str(path), "--t0", str(t0), "--method", "sc",
            "--output", str(out), "--seed", "1", "--ratio", "10,5,2",
        ])
        assert code == 0
        rows = read_csv_rows(out)
        assert len(rows) == 3  # one per donor
        retained = json.loads(Path(str(out) + ".retained.json").read_text())
        assert set(retained["retained"].keys()) == {"10.0", "5.0", "2.0"}
        gaps = Path(str(out) + ".gaps.csv")
        assert gaps.exists()

    @pytest.mark.parametrize("ratio", ["0", "nan", "1,-2", "inf"])
    def test_ratio_not_finite_and_positive_exits_1_before_any_fit(
        self, toy_panel_csv, tmp_path, capsys, monkeypatch, ratio
    ):
        path, t0 = toy_panel_csv
        out = tmp_path / "p.csv"
        monkeypatch.setattr(cli, "placebo_suite", lambda *a, **k: pytest.fail("the suite ran"))
        code = main([
            "placebo", "--input", str(path), "--t0", str(t0), "--method", "sc",
            "--output", str(out), "--ratio", ratio,
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("tasc: error: --ratio must be ")
        assert list(tmp_path.iterdir()) == [path]


class TestPermute:
    def test_identity_only_shuffles_report_unit_ratio(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((4, 2))
        panel = PanelData(values, 1, ("t", "a", "b", "c"), ("t0", "t1"))
        path = tmp_path / "tiny.csv"
        save_csv(panel, path)
        out = tmp_path / "perm.csv"
        code = main([
            "permute", "--input", str(path), "--t0", "1", "--method", "sc",
            "--shuffles", "4", "--output", str(out), "--seed", "0",
        ])
        assert code == 0
        rows = read_csv_rows(out)
        ratio_row = [r for r in rows if r["kind"] == "mean_ratio"][0]
        assert float(ratio_row["rmse"]) == pytest.approx(1.0)

    def test_simconfig_input(self, tmp_path):
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({
            "d_true": 1, "n_units": 4, "t_total": 12, "t0": 8, "seed": 3,
        }))
        out = tmp_path / "perm.csv"
        code = main([
            "permute", "--simconfig", str(sim), "--method", "sc",
            "--shuffles", "2", "--output", str(out), "--seed", "0",
        ])
        assert code == 0
        rows = read_csv_rows(out)
        assert len(rows) == 4  # ordered + 2 shuffles + ratio


class TestBench:
    def test_single_cell_single_row(self, tmp_path):
        regimes = tmp_path / "regimes.json"
        regimes.write_text(json.dumps([
            {"name": "tiny", "d_true": 1, "n_units": 4, "t_total": 12, "t0": 8},
        ]))
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--regimes", str(regimes), "--methods", "sc",
            "--replicates", "1", "--output", str(out), "--seed", "0",
        ])
        assert code == 0
        rows = read_csv_rows(out)
        assert len(rows) == 1
        assert rows[0]["metric"] == "rmse_post"
        assert rows[0]["regime"] == "tiny"

    @pytest.mark.parametrize("methods", [",", " , ", ""])
    def test_no_method_left_exits_1_before_the_sweep(self, tmp_path, capsys, monkeypatch, methods):
        monkeypatch.setattr(cli, "method_sweep", lambda *a, **k: pytest.fail("the sweep ran"))
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--regimes", '[{"d_true": 1, "n_units": 4, "t_total": 12, "t0": 8}]', "--methods", methods,
            "--output", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("tasc: error: --methods must name at least one method")
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        regimes = tmp_path / "regimes.json"
        regimes.write_text(json.dumps([
            {"d_true": 1, "n_units": 4, "t_total": 12, "t0": 8},
        ]))
        args = [
            "bench", "--regimes", str(regimes), "--methods", "sc,rsc", "--d", "1",
            "--replicates", "2", "--seed", "7",
        ]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(out_a)]) == 0
        assert main(args + ["--output", str(out_b)]) == 0
        text_a = out_a.read_text().replace(str(out_a), "OUT")
        text_b = out_b.read_text().replace(str(out_b), "OUT")
        assert text_a == text_b

    @pytest.mark.parametrize("wrap", [False, True], ids=["list", "object"])
    def test_inline_regimes_json(self, tmp_path, wrap):
        regimes = [{"name": "tiny", "d_true": 1, "n_units": 4, "t_total": 12, "t0": 8}]
        text = json.dumps({"regimes": regimes} if wrap else regimes)
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--regimes", text, "--methods", "sc",
            "--replicates", "1", "--output", str(out), "--seed", "0",
        ])
        assert code == 0
        rows = read_csv_rows(out)
        assert [row["regime"] for row in rows] == ["tiny"]


class TestParsing:
    def test_unknown_command_exits_1(self):
        assert main(["frobnicate"]) == 1

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "tasc" in capsys.readouterr().out

    def test_bad_config_json_exits_1(self, toy_panel_csv, tmp_path):
        path, t0 = toy_panel_csv
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main([
            "infer", "--input", str(path), "--t0", str(t0), "--method", "sc",
            "--config", str(bad), "--output", str(tmp_path / "o.csv"),
        ])
        assert code == 1

    def test_config_file_not_utf8_exits_1(self, toy_panel_csv, tmp_path, capsys):
        path, t0 = toy_panel_csv
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"seed": "\xff"}')
        code = main([
            "infer", "--input", str(path), "--t0", str(t0), "--method", "sc",
            "--config", str(bad), "--output", str(tmp_path / "o.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("tasc: error: invalid JSON: ")

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"unit,t0,t1,t2\n", "CSV input has no data rows"),
            (b"unit,t0,t1\nu0,1,2,3\nu1,4,5,6\n", "header row has 2 time labels for 3 value columns"),
            (b"unit,t0,t1,t2\n\xff,1,2,3\nu1,4,5,6\n", "CSV input is not valid text: 'utf-8' codec can't decode"),
        ],
        ids=["header_only", "header_width", "not_utf8"],
    )
    def test_malformed_panel_csv_is_a_parse_error_and_exits_1(self, tmp_path, capsys, content, message):
        path = tmp_path / "panel.csv"
        path.write_bytes(content)
        with pytest.raises(ParseError, match=f"^{message}"):
            load_csv(path, t0=2)
        out = tmp_path / "o.csv"
        code = main(["infer", "--input", str(path), "--t0", "2", "--method", "sc", "--output", str(out)])
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err.startswith(f"tasc: error: {message}")

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("infer", ["--config", '{"em": {"d": "x"}}', "--method", "tasc"]),
            ("infer", ["--config", '{"rsc": {"d": 2, "cv_grid": 5}}', "--method", "rsc"]),
            ("bench", ["--regimes", "[1, 2]"]),
            ("bench", ["--regimes", '[{"d_true": "two", "n_units": 4, "t_total": 12, "t0": 8}]']),
            ("simulate", ["--config", '{"d_true": 1, "n_units": 4, "t_total": 12, "t0": 8, "a_q": "big"}']),
            ("simulate", ["--config", '{"n_units": 4, "t_total": 12, "t0": 8}']),
            # json.loads raises ValueError past Python's 4300-digit limit for int().
            ("infer", ["--config", '{"seed": ' + "1" * 4400 + "}", "--method", "sc"]),
        ],
        ids=["em_d_not_int", "cv_grid_not_list", "regime_not_object", "d_true_not_int", "a_q_not_float",
             "d_true_missing", "int_past_digit_limit"],
    )
    def test_malformed_config_value_exits_1(self, toy_panel_csv, tmp_path, capsys, command, extra):
        path, t0 = toy_panel_csv
        args = [command, "--output", str(tmp_path / "o.csv"), *extra]
        if command == "infer":
            args += ["--input", str(path), "--t0", str(t0)]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("tasc: error: ")

    @pytest.mark.parametrize(
        "command, extra, named",
        [
            ("infer", ["--method", "sc", "--config", '{"t0": "x"}'], "t0"),
            ("infer", ["--method", "sc", "--config", '{"t0": 12.7}'], "t0"),
            ("infer", ["--method", "sc", "--t0", "16", "--config", '{"target_row": "x"}'], "target_row"),
            ("infer", ["--method", "sc", "--t0", "16", "--config", '{"center": "false"}'], "center"),
            ("infer", ["--method", "sc", "--t0", "16", "--config", '{"no_header": "false"}'], "no_header"),
            ("infer", ["--method", "tasc", "--t0", "16", "--config", '{"em": {"d": 1, "diag_noise": "false"}}'],
             "em.diag_noise"),
            ("placebo", ["--method", "sc", "--t0", "16", "--ratio", "a,b"], "--ratio"),
            ("placebo", ["--method", "sc", "--t0", "16", "--ratio", "1,,2"], "--ratio"),
            ("infer", ["--method", "tasc", "--t0", "16", "--config", '{"em": {"d": 2.9}}'], "em.d"),
            ("infer", ["--method", "tasc", "--t0", "16", "--config", '{"em": {"d": "2"}}'], "em.d"),
            ("infer", ["--method", "sc", "--t0", "16", "--config", '{"seed": 2.7}'], "seed"),
            ("infer", ["--method", "sc", "--t0", "16", "--config", '{"seed": true}'], "seed"),
            ("infer", ["--method", "tasc", "--d", "1", "--t0", "16", "--config", '{"level": "0.9"}'], "level"),
            ("infer", ["--method", "sc", "--t0", "16", "--config", '{"level": NaN}'], "level"),
            ("infer", ["--method", "tasc", "--t0", "16", "--config", '{"em": {"d": 1, "rel_tol": true}}'],
             "em.rel_tol"),
            ("infer", ["--method", "rsc", "--t0", "16", "--config", '{"rsc": {"d": 2.5}}'], "rsc.d"),
            ("infer", ["--method", "rsc", "--t0", "16", "--config", '{"rsc": {"d": 1, "cv_grid": ["1"]}}'],
             "rsc.cv_grid[0]"),
            ("bench", ["--methods", "sc", "--regimes", '[{"d_true": 1, "n_units": 4.5, "t_total": 12, "t0": 8}]'],
             "regimes[0].n_units"),
        ],
        ids=["t0_str", "t0_float", "target_row_str", "center_str", "no_header_str", "diag_noise_str",
             "ratio_word", "ratio_empty", "em_d_float", "em_d_str", "seed_float", "seed_bool", "level_str", "level_nan",
             "rel_tol_bool", "rsc_d_float", "cv_grid_str", "regime_n_units_float"],
    )
    def test_config_value_of_wrong_type_exits_1(self, toy_panel_csv, tmp_path, capsys, command, extra, named):
        path, _ = toy_panel_csv
        inputs = [] if command == "bench" else ["--input", str(path)]
        assert main([command, *inputs, "--output", str(tmp_path / "o.csv"), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"tasc: error: {named} must be ")
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "command, extra, named",
        [
            ("infer", ["--method", "tasc", "--t0", "16", "--config", '{"em": {"d": 1, "n_iter": 50}}'], "em.n_iter"),
            ("infer", ["--method", "tasc", "--t0", "16", "--config", '{"em": {"d": 1, "seed": 3}}'], "em.seed"),
            ("infer", ["--t0", "16", "--config", '{"metod": "sc"}'], "metod"),
            ("simulate", ["--config", '{"d_true": 1, "n_units": 4, "t_total": 12, "t0": 8, "sed": 3}'], "sed"),
            ("bench", ["--methods", "sc", "--regimes", '[{"d_true": 1, "n_units": 4, "t_total": 12, "t0": 8, "T": 9}]'],
             "regimes[0].T"),
            ("bench", ["--methods", "sc", "--regimes",
                       '{"regimes": [{"d_true": 1, "n_units": 4, "t_total": 12, "t0": 8}], "replicatez": 5}'],
             "replicatez"),
        ],
        ids=["em_n_iter", "em_seed", "top_metod", "simulate_sed", "regime_T", "regimes_wrapper"],
    )
    def test_unknown_config_key_exits_1(self, toy_panel_csv, tmp_path, capsys, command, extra, named):
        path, _ = toy_panel_csv
        inputs = ["--input", str(path)] if command == "infer" else []
        assert main([command, *inputs, "--output", str(tmp_path / "o.csv"), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"tasc: error: {named} is not a known key; expected one of: ")
        assert not (tmp_path / "o.csv").exists()

    def test_negative_cv_grid_entry_exits_1(self, toy_panel_csv, tmp_path, capsys):
        path, _ = toy_panel_csv
        code = main([
            "infer", "--input", str(path), "--t0", "16", "--method", "rsc", "--output", str(tmp_path / "o.csv"),
            "--config", '{"rsc": {"d": 1, "cv_grid": [-1.0, 1.0]}}',
        ])
        assert code == 1
        assert capsys.readouterr().err == "tasc: error: cv_grid entries must be finite and >= 0\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("command", ["infer", "placebo", "bench"])
    def test_level_out_of_range_exits_1_before_any_fit(self, toy_panel_csv, tmp_path, capsys, monkeypatch, command):
        import tasc.evaluate

        path, t0 = toy_panel_csv
        for module in (cli, tasc.evaluate):
            monkeypatch.setattr(module, "fit_predict", lambda *a, **k: pytest.fail("a fit ran"))
        out = tmp_path / "o.csv"
        if command == "bench":
            inputs = ["--regimes", '[{"d_true": 1, "n_units": 4, "t_total": 12, "t0": 8}]', "--methods", "tasc"]
        else:
            inputs = ["--input", str(path), "--t0", str(t0), "--method", "tasc"]
        code = main([command, *inputs, "--d", "1", "--level", "1.5", "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "tasc: error: confidence level must be in (0, 1)\n"
        assert not out.exists()

    def test_em_section_takes_every_default_from_emconfig(self):
        args = cli.build_parser().parse_args(["infer", "--method", "tasc", "--output", "o.csv"])
        estimator = cli._build_estimator(args, cli._load_config('{"em": {"d": 2}}'))
        assert estimator.em == EmConfig(d=2, seed=0)

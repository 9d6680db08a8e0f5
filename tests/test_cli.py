import json
from pathlib import Path

import numpy as np
import pytest

from tasc import PanelData, fit_predict, params_from_json, save_csv
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
            assert np.array_equal(getattr(written, name), getattr(fitted.theta, name))
        assert written.diag_noise == fitted.theta.diag_noise
        assert theta_doc["loglik_trace"] == fitted.loglik_trace

    def test_sc_vertex_weights_on_identical_donor(self, toy_panel_csv, tmp_path):
        path, t0 = toy_panel_csv
        out = tmp_path / "sc.csv"
        code = main([
            "infer", "--input", str(path), "--t0", str(t0), "--method", "sc",
            "--output", str(out), "--seed", "0",
        ])
        assert code == 0
        weights = json.loads(out.with_suffix(".csv.weights.json").read_text())
        assert weights["kind"] == "simplex"
        assert weights["f"][0] >= 0.999

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

    def test_numerical_failure_exits_2(self, tmp_path):
        # Huge-scale rank-deficient panel drives every EM restart singular.
        base = 1e8 * np.ones((3, 12))
        base[1:] *= 1.0
        panel = PanelData(
            base + 1e8 * np.tile(np.arange(12.0), (3, 1)),
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

    def test_seed_flag_overrides(self, tmp_path):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"d_true": 1, "n_units": 4, "t_total": 10, "t0": 6}))
        out = tmp_path / "simout"
        code = main(["simulate", "--config", str(config), "--output", str(out), "--seed", "9"])
        assert code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["seed"] == 9


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

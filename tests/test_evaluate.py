import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasc import (
    ConfigError,
    EmConfig,
    Estimator,
    PanelData,
    RscConfig,
    SimulationConfig,
    TascError,
    fit_predict,
    method_sweep,
    permutation_stress_test,
    placebo_suite,
    reports_to_rows,
    rmse,
    rmse_by_horizon,
    simulate,
    tasc_infer,
    threshold_filter,
    write_rows_csv,
)
from tasc.evaluate import StressResult


def make_panel(values, t0):
    values = np.asarray(values, dtype=float)
    n, t = values.shape
    return PanelData(
        values, t0,
        tuple(f"u{i}" for i in range(n)),
        tuple(f"t{j}" for j in range(t)),
    )


class TestRmse:
    def test_zero_when_equal(self):
        x = np.array([1.0, 2.0, 3.0])
        assert rmse(x, x) == 0.0

    def test_constant_offset(self):
        x = np.array([1.0, 2.0, 3.0])
        assert rmse(x + 1.0, x) == pytest.approx(1.0)

    def test_hand_value(self):
        assert rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(
            3.5355339059327378
        )

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(6), rng.standard_normal(6)
        assert rmse(a, b) == rmse(b, a)

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            rmse(np.ones(3), np.ones(4))


class TestRmseByHorizon:
    def test_single_bucket_equals_rmse(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal(7), rng.standard_normal(7)
        [(rng_pair, value)] = rmse_by_horizon(a, b, 1)
        assert rng_pair == (0, 7)
        assert value == pytest.approx(rmse(a, b))

    def test_constant_error_everywhere(self):
        truth = np.zeros(12)
        pred = np.full(12, 2.5)
        for _, value in rmse_by_horizon(pred, truth, 4):
            assert value == pytest.approx(2.5)

    def test_fifty_periods_five_buckets_of_ten(self):
        pred = np.zeros(50)
        truth = np.zeros(50)
        buckets = rmse_by_horizon(pred, truth, 5)
        widths = [hi - lo for (lo, hi), _ in buckets]
        assert widths == [10, 10, 10, 10, 10]

    def test_last_bucket_absorbs_remainder(self):
        buckets = rmse_by_horizon(np.zeros(11), np.zeros(11), 3)
        widths = [hi - lo for (lo, hi), _ in buckets]
        assert widths == [3, 3, 5]


SC = Estimator(method="sc")
RSC = Estimator(method="rsc", rsc=RscConfig(d=2, lambda_=0.1))
TASC = Estimator(method="tasc", em=EmConfig(d=2, n_iters=25, n_restarts=1, seed=0))


class TestFitPredict:
    def test_output_shapes_all_methods(self):
        sim = simulate(SimulationConfig(d_true=2, n_units=8, t_total=30, t0=20, seed=0))
        for est in (SC, RSC, TASC):
            pred = fit_predict(sim.panel, est, seed=1)
            assert pred.y_hat.shape == (10,)
            assert pred.fitted_pre.shape == (20,)
        tasc_pred = fit_predict(sim.panel, TASC, seed=1)
        assert tasc_pred.ci_lower is not None
        assert tasc_pred.em.theta is not None
        sc_pred = fit_predict(sim.panel, SC)
        assert sc_pred.weights is not None

    def test_centering_restores_scale(self):
        # Donors share one constant trajectory; the centered fit is zero and
        # the prediction equals the donor mean trajectory.
        base = np.linspace(10.0, 20.0, 8)
        values = np.vstack([base, base, base, base])
        panel = make_panel(values, 5)
        est = Estimator(method="sc", center=True)
        pred = fit_predict(panel, est)
        assert np.allclose(pred.y_hat, base[5:])
        assert np.allclose(pred.fitted_pre, base[:5])

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, float("nan")])
    def test_level_outside_unit_interval_rejected(self, level):
        with pytest.raises(ConfigError, match=r"^confidence level must be in \(0, 1\)$"):
            Estimator(method="sc", level=level)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            Estimator(method="nope")
        with pytest.raises(ConfigError):
            Estimator(method="tasc")  # missing EmConfig
        with pytest.raises(ConfigError):
            Estimator(method="rsc")  # missing RscConfig


class TestPlaceboSuite:
    def test_one_entry_per_donor(self):
        sim = simulate(SimulationConfig(d_true=1, n_units=3, t_total=20, t0=12, seed=1))
        result = placebo_suite(sim.panel, SC, seed=0)
        assert len(result) == 2
        assert [e.unit_label for e in result] == ["unit1", "unit2"]

    def test_one_donor_panel_rejected_up_front(self):
        panel = make_panel(np.arange(10.0).reshape(2, 5), 3)
        with pytest.raises(ConfigError, match=r"^a placebo suite needs at least 2 donors \(got 1\)$"):
            placebo_suite(panel, SC, seed=0)

    def test_identical_rows_fit_exactly_under_sc(self):
        base = np.linspace(0.0, 4.0, 10)
        values = np.vstack([base, base, base, base])
        panel = make_panel(values, 6)
        result = placebo_suite(panel, SC, seed=0)
        for entry in result:
            assert entry.rmse_post <= 1e-6

    def test_deterministic_given_seed(self):
        sim = simulate(SimulationConfig(d_true=2, n_units=6, t_total=24, t0=16, seed=2))
        a = placebo_suite(sim.panel, TASC, seed=5)
        b = placebo_suite(sim.panel, TASC, seed=5)
        for ea, eb in zip(a, b):
            assert ea.rmse_post == eb.rmse_post
            assert np.array_equal(ea.gap, eb.gap)

    def test_per_unit_failures_do_not_abort(self):
        sim = simulate(SimulationConfig(d_true=2, n_units=4, t_total=20, t0=10, seed=3))
        # latent dimension exceeds the pseudo panel's donor count -> per-unit error
        bad = Estimator(method="tasc", em=EmConfig(d=5, n_iters=5, n_restarts=1))
        result = placebo_suite(sim.panel, bad, seed=0)
        assert len(result) == 3
        assert all(e.error is not None for e in result)

    def test_gap_series_is_observed_minus_predicted(self):
        sim = simulate(SimulationConfig(d_true=1, n_units=4, t_total=15, t0=10, seed=4))
        result = placebo_suite(sim.panel, SC, seed=0)
        entry = result[0]
        assert entry.gap.shape == (15,)

    def test_time_aware_placebo_beats_spectral_under_heavy_noise(self):
        # Qualitative ranking in the strong-trend / noisy-observation regime,
        # pooled over 50 replicates (slow-ish: ~0.5 min).
        from tasc import DEFAULT_CV_GRID
        from tasc._numeric import derive_seed

        tasc_errs, rsc_errs = [], []
        t_est = Estimator(method="tasc", em=EmConfig(d=3, n_iters=40, n_restarts=1))
        r_est = Estimator(method="rsc", rsc=RscConfig(d=3, cv_grid=DEFAULT_CV_GRID))
        for rep in range(50):
            cfg = SimulationConfig(
                d_true=3, n_units=8, t_total=60, t0=30,
                a_q=0.01, b_q=0.1, a_r=0.1, b_r=1.0, seed=derive_seed(99, rep),
            )
            panel = simulate(cfg).panel
            tasc_errs.extend(
                e.rmse_post for e in placebo_suite(panel, t_est, seed=rep) if e.error is None
            )
            rsc_errs.extend(
                e.rmse_post for e in placebo_suite(panel, r_est, seed=rep) if e.error is None
            )
        assert np.median(tasc_errs) < np.median(rsc_errs)


class TestPlaceboFitReuse:
    """A tasc placebo suite runs EM once and permutes that fit for later donors."""

    PANEL = simulate(SimulationConfig(d_true=2, n_units=5, t_total=24, t0=16, seed=11)).panel
    EST = Estimator(method="tasc", em=EmConfig(d=2, n_iters=10, n_restarts=2))

    @staticmethod
    def _count_em(monkeypatch, fail_first=False):
        from tasc import FitError, engine

        calls = []
        original = engine.em_pre

        def counted(Y_pre, config):
            calls.append(config.seed)
            if fail_first and len(calls) == 1:
                raise FitError("first fit fails")
            return original(Y_pre, config)

        monkeypatch.setattr(engine, "em_pre", counted)
        return calls

    @pytest.mark.parametrize(
        "estimator, em_calls",
        [(EST, 1), (Estimator(method="tasc", em=EST.em, center=True), 4), (SC, 0)],
        ids=["tasc", "tasc_centered", "sc"],
    )
    def test_em_runs_once_per_uncentered_tasc_suite(self, monkeypatch, estimator, em_calls):
        calls = self._count_em(monkeypatch)
        result = placebo_suite(self.PANEL, estimator, seed=3)
        assert all(e.error is None for e in result)
        assert len(calls) == em_calls

    def test_reused_fit_is_the_first_fit_with_rows_permuted(self, monkeypatch):
        import tasc.evaluate
        from tasc._numeric import derive_seed
        from tasc.engine import EmResult

        fits = []
        original = tasc.evaluate.fit_predict

        def recorded(panel, estimator, seed=None):
            pred = original(panel, estimator, seed)
            fits.append((panel, estimator, seed, pred))
            return pred

        monkeypatch.setattr(tasc.evaluate, "fit_predict", recorded)
        result = placebo_suite(self.PANEL, self.EST, seed=3)
        assert len(fits) == 4 and all(e.error is None for e in result)
        first_panel, first_est, first_seed, first = fits[0]
        assert first_est.em_result is None and first_seed == derive_seed(3, 1)
        rows = {label: i for i, label in enumerate(first_panel.unit_labels)}
        for pseudo, est, _, pred in fits[1:]:
            idx = [rows[label] for label in pseudo.unit_labels]
            theta = pred.em.theta
            assert np.array_equal(theta.H, first.em.theta.H[idx])
            assert np.array_equal(theta.R, first.em.theta.R[idx])  # diagonal noise: R is a vector
            for name in ("A", "Q", "m0", "P0"):
                assert np.array_equal(getattr(theta, name), getattr(first.em.theta, name))
            assert pred.loglik_trace == first.loglik_trace
            # The pass on that theta alone, outside the suite, gives the same path.
            alone = tasc_infer(pseudo, self.EST.em, em=EmResult(theta=theta, loglik_trace=[]))
            assert np.array_equal(pred.y_hat, alone.y_hat)
            assert np.array_equal(pred.ci_upper, alone.ci_upper)

    def test_reused_fits_keep_the_winning_restart_and_trace(self, monkeypatch):
        import tasc.evaluate

        preds = []
        original = tasc.evaluate.fit_predict

        def recorded(panel, estimator, seed=None):
            preds.append(original(panel, estimator, seed))
            return preds[-1]

        monkeypatch.setattr(tasc.evaluate, "fit_predict", recorded)
        result = placebo_suite(self.PANEL, self.EST, seed=1)
        assert len(preds) == 4 and all(e.error is None for e in result)
        first, *reused = [pred.em for pred in preds]
        assert first.restart_index == 1  # at this seed the second restart wins
        for em in reused:
            assert em.restart_index == first.restart_index
            assert em.loglik_trace == first.loglik_trace

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16))
    def test_reused_fit_matches_a_refit_at_the_first_donors_seed(self, seed):
        # Donor order does not move a fit, so each later donor's pass on the
        # permuted first fit predicts what refitting its pseudo-panel with the
        # first donor's seed would.
        from tasc._numeric import derive_seed

        panel = simulate(SimulationConfig(d_true=2, n_units=7, t_total=30, t0=20, seed=seed)).panel
        estimator = Estimator(method="tasc", em=EmConfig(d=2, n_iters=10, n_restarts=1))
        suite = placebo_suite(panel, estimator, seed=seed)
        donors = list(range(1, panel.n_units))
        for j, entry in zip(donors, suite):
            assert entry.error is None
            order = [j] + [i for i in donors if i != j]
            pseudo = PanelData(
                panel.values[order], panel.t0, tuple(panel.unit_labels[i] for i in order), panel.time_labels
            )
            refit = fit_predict(pseudo, estimator, seed=derive_seed(seed, 1))
            predicted = np.concatenate([refit.fitted_pre, refit.y_hat])
            reused = panel.values[j] - entry.gap
            assert np.max(np.abs(reused - predicted)) <= 1e-10 * np.max(np.abs(predicted))

    def test_failed_first_fit_passes_the_fit_to_the_next_donor(self, monkeypatch):
        from tasc._numeric import derive_seed

        calls = self._count_em(monkeypatch, fail_first=True)
        result = placebo_suite(self.PANEL, self.EST, seed=3)
        assert [e.error is None for e in result] == [False, True, True, True]
        assert calls == [derive_seed(3, 1), derive_seed(3, 2)]

    def test_centered_suite_refits_each_donor_with_its_own_seed(self):
        from tasc._numeric import derive_seed

        centered = Estimator(method="tasc", em=self.EST.em, center=True)
        result = placebo_suite(self.PANEL, centered, seed=3)
        for j, entry in zip(range(1, self.PANEL.n_units), result):
            order = [j] + [i for i in range(1, self.PANEL.n_units) if i != j]
            pseudo = PanelData(
                self.PANEL.values[order], self.PANEL.t0,
                tuple(self.PANEL.unit_labels[i] for i in order), self.PANEL.time_labels,
            )
            pred = fit_predict(pseudo, centered, seed=derive_seed(3, j))
            assert entry.rmse_post == rmse(pred.y_hat, self.PANEL.values[j, self.PANEL.t0 :])


class TestThresholdFilter:
    def _placebo(self):
        sim = simulate(SimulationConfig(d_true=1, n_units=5, t_total=20, t0=12, seed=5))
        return placebo_suite(sim.panel, SC, seed=0)

    def test_huge_ratio_keeps_all(self):
        result = self._placebo()
        kept = threshold_filter(result, target_pre_mse=1e-12, ratio=1e18)
        assert len(kept) == len(result)

    def test_tiny_ratio_keeps_none(self):
        result = self._placebo()
        kept = threshold_filter(result, target_pre_mse=1e-12, ratio=1e-6)
        assert kept == []

    def test_monotone_in_ratio(self):
        result = self._placebo()
        target_mse = np.median([e.rmse_pre**2 for e in result])
        sizes = [len(threshold_filter(result, target_mse, r)) for r in (0.5, 1.0, 2.0, 10.0)]
        assert sizes == sorted(sizes)

    def test_standard_ratios_run(self):
        result = self._placebo()
        for ratio in (10.0, 5.0, 2.0):
            threshold_filter(result, target_pre_mse=1.0, ratio=ratio)


class TestPermutationStress:
    def test_identity_only_shuffles_are_exact(self):
        # With one pre and one post column the only permutation is identity.
        rng = np.random.default_rng(6)
        panel = make_panel(rng.standard_normal((4, 2)), 1)
        result = permutation_stress_test(panel, SC, n_shuffles=3, seed=0)
        for value in result.rmse_shuffled:
            assert value == result.rmse_ordered
        assert result.mean_ratio == pytest.approx(1.0)

    def test_zero_ordered_rmse_gives_a_ratio_without_a_warning(self):
        # The target equals donor 2, so SC fits it exactly in every ordering: 0 / 0.
        values = np.random.default_rng(3).standard_normal((4, 12))
        values[0] = values[2]
        result = permutation_stress_test(make_panel(values, 8), SC, n_shuffles=3, seed=0)
        assert result.rmse_ordered == 0.0 and result.rmse_shuffled == [0.0] * 3
        assert np.isnan(result.mean_ratio)
        assert StressResult(0.0, [0.5, 1.5], [None, None]).mean_ratio == np.inf

    def test_sc_and_rsc_invariant_to_shuffles(self):
        config = SimulationConfig(d_true=2, n_units=10, t_total=40, t0=25, seed=7)
        for est in (Estimator(method="sc", sc_tol=1e-10),
                    Estimator(method="rsc", rsc=RscConfig(d=2, lambda_=1.0))):
            result = permutation_stress_test(config, est, n_shuffles=5, seed=1)
            for value in result.rmse_shuffled:
                assert abs(value - result.rmse_ordered) <= 1e-10

    def test_requires_observed_target_post(self):
        values = np.ones((3, 6))
        values[0, 4:] = np.nan
        panel = PanelData(values, 4, ("a", "b", "c"), tuple("012345"), target_post_missing=True)
        with pytest.raises(ConfigError):
            permutation_stress_test(panel, SC, n_shuffles=1, seed=0)

    def test_errors_tagged_per_shuffle(self):
        config = SimulationConfig(d_true=1, n_units=3, t_total=10, t0=5, seed=8)
        result = permutation_stress_test(config, SC, n_shuffles=2, seed=0)
        assert result.errors == [None, None]


class TestMethodSweep:
    def test_cross_product_shape(self):
        regimes = [SimulationConfig(d_true=1, n_units=4, t_total=16, t0=10, seed=0)]
        reports = method_sweep(regimes, [SC], replicates=1, seed=0)
        assert len(reports) == 1
        assert reports[0].method == "sc"
        assert reports[0].error is None
        assert len(reports[0].rmse_by_bucket) == 5

    def test_identical_seed_identical_table(self):
        regimes = [SimulationConfig(d_true=2, n_units=6, t_total=20, t0=12, seed=0)]
        ests = [SC, RSC]
        a = method_sweep(regimes, ests, replicates=2, seed=42)
        b = method_sweep(regimes, ests, replicates=2, seed=42)
        assert [r.rmse_post for r in a] == [r.rmse_post for r in b]

    def test_per_cell_failures_recorded(self):
        regimes = [SimulationConfig(d_true=1, n_units=3, t_total=12, t0=6, seed=0)]
        bad = Estimator(method="tasc", em=EmConfig(d=4, n_iters=3, n_restarts=1), name="tasc-too-big")
        reports = method_sweep(regimes, [bad, SC], replicates=1, seed=0)
        assert reports[0].error is not None
        assert reports[1].error is None

    def test_shared_data_across_methods(self):
        regimes = [SimulationConfig(d_true=1, n_units=4, t_total=14, t0=8, seed=0)]
        reports = method_sweep(regimes, [SC, SC], replicates=1, seed=1)
        assert reports[0].rmse_post == reports[1].rmse_post

    def test_bucket_count_below_one_rejected_before_any_fit(self, monkeypatch):
        import tasc.evaluate

        calls = []
        monkeypatch.setattr(tasc.evaluate, "fit_predict", lambda *args: calls.append(args))
        regimes = [SimulationConfig(d_true=1, n_units=4, t_total=14, t0=8, seed=0)]
        with pytest.raises(ConfigError, match="n_buckets"):
            method_sweep(regimes, [SC], replicates=1, seed=0, n_buckets=0)
        assert calls == []

    def test_interval_coverage_of_tasc_cells(self):
        from tasc._numeric import derive_seed

        regimes = [SimulationConfig(d_true=2, n_units=5, t_total=24, t0=16, seed=0)]
        reports = method_sweep(regimes, [TASC, SC, RSC], replicates=2, seed=5)
        for rep, report in enumerate(reports[::3]):
            assert report.error is None
            panel = simulate(SimulationConfig(d_true=2, n_units=5, t_total=24, t0=16, seed=derive_seed(5, 0, rep))).panel
            pred = fit_predict(panel, TASC, report.seed)
            truth = panel.values[0, panel.t0 :]
            inside = [lo <= y <= hi for lo, y, hi in zip(pred.ci_lower, truth, pred.ci_upper)]
            assert report.coverage == sum(inside) / len(inside)
        assert all(r.coverage is None and r.ci_width is None for r in reports if r.method != "tasc")
        rows = reports_to_rows(reports)
        assert [r["method"] for r in rows if r["metric"] == "coverage"] == ["tasc", "tasc"]
        assert [r["value"] for r in rows if r["metric"] == "coverage"] == [reports[0].coverage, reports[3].coverage]


_HARNESS_PANEL = simulate(SimulationConfig(d_true=1, n_units=4, t_total=16, t0=10, seed=0)).panel

# Each harness run, the (error, post RMSE) it records per harness fit, and the
# record that the second fit_predict call fills.  The stress test's first call
# is the ordered fit, outside the shuffle records.
_HARNESSES = {
    "placebo_suite": (
        lambda: placebo_suite(_HARNESS_PANEL, SC, seed=0),
        lambda result: [(e.error, e.rmse_post) for e in result],
        1,
    ),
    "permutation_stress_test": (
        lambda: permutation_stress_test(_HARNESS_PANEL, SC, n_shuffles=3, seed=0),
        lambda result: list(zip(result.errors, result.rmse_shuffled)),
        0,
    ),
    "method_sweep": (
        lambda: method_sweep([SimulationConfig(d_true=1, n_units=4, t_total=16, t0=10)], [SC, RSC, SC], 1),
        lambda reports: [(r.error, r.rmse_post) for r in reports],
        1,
    ),
}


def _fail_second_call(monkeypatch, exc):
    import tasc.evaluate

    original, calls = tasc.evaluate.fit_predict, []

    def failing(panel, estimator, seed=None):
        calls.append(None)
        if len(calls) == 2:
            raise exc
        return original(panel, estimator, seed)

    monkeypatch.setattr(tasc.evaluate, "fit_predict", failing)


class TestHarnessFailureContract:
    @pytest.mark.parametrize("harness", list(_HARNESSES))
    def test_a_failed_fit_is_recorded_by_its_message_alone(self, monkeypatch, harness):
        run, records, failed = _HARNESSES[harness]
        clean = records(run())
        _fail_second_call(monkeypatch, TascError("boom"))
        got = records(run())
        assert got[failed][0] == "boom" and np.isnan(got[failed][1])
        assert got[:failed] + got[failed + 1 :] == clean[:failed] + clean[failed + 1 :]
        assert all(error is None for error, _ in clean)

    @pytest.mark.parametrize("harness", list(_HARNESSES))
    def test_other_exceptions_propagate(self, monkeypatch, harness):
        class Stop(Exception):
            pass

        _fail_second_call(monkeypatch, Stop("not a TascError"))
        with pytest.raises(Stop):
            _HARNESSES[harness][0]()


class TestReportRows:
    def test_long_format_and_csv(self):
        regimes = [SimulationConfig(d_true=1, n_units=4, t_total=14, t0=8, seed=0)]
        reports = method_sweep(regimes, [SC], replicates=1, seed=3, n_buckets=2)
        rows = reports_to_rows(reports)
        metrics = {row["metric"] for row in rows}
        assert "rmse_post" in metrics and "rmse_pre" in metrics
        buf = io.StringIO()
        write_rows_csv(rows, buf, fieldnames=["regime", "method", "replicate", "seed", "metric", "value"], meta={"seed": 3})
        text = buf.getvalue()
        assert text.startswith('# {"seed": 3}\n')
        assert "rmse_post" in text

    def test_path_and_handle_write_same_text(self, tmp_path):
        rows = [{"a": 1, "b": 0.1}, {"a": 2, "b": None}]
        buf = io.StringIO()
        write_rows_csv(rows, buf, meta={"seed": 4})
        path = tmp_path / "rows.csv"
        write_rows_csv(rows, path, meta={"seed": 4})
        assert path.read_bytes() == buf.getvalue().encode()
        assert buf.getvalue() == '# {"seed": 4}\na,b\n1,0.1\n2,\n'

    def test_numpy_floats_print_as_plain_floats(self):
        buf = io.StringIO()
        write_rows_csv([{"a": np.float64(1.5), "b": np.float64(-0.0), "c": np.float32(0.1), "d": 0.1}], buf)
        assert buf.getvalue() == "a,b,c,d\n1.5,-0.0,0.1,0.1\n"

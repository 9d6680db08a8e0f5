import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasc import NumericalError, SolverError, StateSpaceParams, filter_pass, m_step, sc_fit, smooth_pass
from tasc import _numeric, baselines
from tasc._numeric import gate_factor_diag, spd_cholesky, spd_solve, try_cholesky
from tasc.engine import SufficientStats

from oracles import factor_diag_ok

_WHAT = "test factor"
_MESSAGES = {
    "pd": f"{_WHAT} is not positive definite",
    "inf": f"{_WHAT} produced a non-finite factor",
    "cond": f"{_WHAT} condition number exceeds 1e+12",
}

_powers = st.floats(-300, 300).map(lambda e: 10.0**e)
_entries = st.one_of(
    st.just(0.0), _powers.map(lambda x: -x), st.just(np.nan), st.just(np.inf), st.just(-np.inf), _powers
)


@st.composite
def _stacks(draw, entries=_entries):
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    return np.array([[draw(entries) for _ in range(cols)] for _ in range(rows)])


def _gate(diags, steps):
    """The NumericalError the gate raises, or None; any warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            gate_factor_diag(diags, _WHAT, steps)
        except NumericalError as err:
            return err
    return None


def _expected_message(row):
    if np.isnan(row).any() or row.min() <= 0:
        return _MESSAGES["pd"]
    if row.max() == np.inf:
        return _MESSAGES["inf"]
    return _MESSAGES["cond"]


class TestGate:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(diags=_stacks())
    def test_first_failing_row_is_named_with_its_message(self, diags):
        # Steps unrelated to the row index, so a wrong row would name a wrong step.
        steps = 100 + 7 * np.arange(len(diags))
        err = _gate(diags, steps)
        positive = np.all(diags > 0, axis=1)
        bad = ~positive | ~factor_diag_ok(diags)
        if not bad.any():
            assert err is None
            return
        first = int(np.flatnonzero(bad)[0])
        assert err is not None and err.step == steps[first]
        assert str(err) == _expected_message(diags[first])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(diags=_stacks(st.one_of(st.just(np.inf), _powers)))
    def test_positive_rows_decide_as_the_squared_ratio(self, diags):
        for row, ok in zip(diags, factor_diag_ok(diags)):
            assert (_gate(row, 3) is None) == ok

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(lo=st.floats(-300, 290).map(lambda e: 10.0**e))
    def test_ratios_at_the_limit_decide_as_the_squared_ratio(self, lo):
        ratios = 1e6 + np.arange(-2000, 2001) * np.spacing(1e6)
        rows = np.column_stack([np.full(len(ratios), lo), lo * ratios])
        for row, ok in zip(rows, factor_diag_ok(rows)):
            assert (_gate(row, None) is None) == ok

    @pytest.mark.parametrize("diag, kind", [
        ([1.0, np.nan], "pd"), ([1.0, 0.0], "pd"), ([np.inf, -1.0], "pd"), ([1.0, np.inf], "inf"),
        ([1e-300, 1e10], "cond"), ([1.0, 1e6], None),
    ])
    def test_single_diagonal_carries_its_step(self, diag, kind):
        err = _gate(np.array(diag), 5)
        if kind is None:
            assert err is None
        else:
            assert str(err) == _MESSAGES[kind] and err.step == 5

    def test_spd_cholesky_failure_is_not_positive_definite(self):
        # The binding leaves the "invalid" flag of a failing factorization to
        # the caller's pass, which silences it once.
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match=f"^{_MESSAGES['pd']}$") as err:
            spd_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]), _WHAT, step=4)
        assert err.value.step == 4


def _random_spd(rng, d):
    x = rng.standard_normal((d, d + 2))
    return x @ x.T + 1e-3 * np.eye(d)


class TestBinding:
    """The LAPACK binding is numpy's own: the first tests to fail if numpy moves its linalg kernels."""

    @pytest.mark.parametrize("d", range(1, 13))
    def test_factor_and_solve_equal_numpy_linalg_bitwise(self, d):
        rng = np.random.default_rng(d)
        for _ in range(5):
            m = _random_spd(rng, d)
            b, B = rng.standard_normal(d), rng.standard_normal((d, 3))
            expected = np.linalg.cholesky(m)
            assert np.array_equal(spd_cholesky(m, _WHAT), expected)
            assert np.array_equal(try_cholesky(m), expected)
            assert np.array_equal(spd_solve(m, b), np.linalg.solve(m, b))
            assert np.array_equal(spd_solve(m, B), np.linalg.solve(m, B))

    def test_stacked_calls_equal_one_call_per_matrix(self):
        rng = np.random.default_rng(0)
        ms, bs = np.array([_random_spd(rng, 4) for _ in range(6)]), rng.standard_normal((6, 4, 2))
        stacked_factor, stacked_solve = _numeric.cholesky(ms), spd_solve(ms, bs)
        for m, b, low, x in zip(ms, bs, stacked_factor, stacked_solve):
            assert np.array_equal(low, np.linalg.cholesky(m))
            assert np.array_equal(x, np.linalg.solve(m, b))

    @pytest.mark.parametrize("d", range(1, 13))
    def test_non_positive_definite_input_fails(self, d):
        m = _random_spd(np.random.default_rng(d), d)
        m[-1, -1] = -1.0
        with np.errstate(invalid="ignore"):
            assert try_cholesky(m) is None
            with pytest.raises(NumericalError, match=f"^{_MESSAGES['pd']}$"):
                spd_cholesky(m, _WHAT)


def _no_warning(call, error):
    """``call()`` raises ``error`` with every warning turned into an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call()


class TestFailingFactorizationsStayQuiet:
    """A failing factorization inside a pass raises its typed error and no RuntimeWarning."""

    def test_filter_pass_with_an_unfactorable_M(self, monkeypatch):
        theta = StateSpaceParams(
            A=[[0.5, -1.0], [1.0, 1e9]], H=[[0.0, -1.0]], Q=np.diag([1e-8, 1e16]),
            R=[1.0], m0=np.zeros(2), P0=1e-8 * np.eye(2),
        )
        monkeypatch.setattr(_numeric, "COND_LIMIT", np.inf)  # so the failure is M's factorization
        _no_warning(lambda: filter_pass(np.zeros((1, 6)), theta), NumericalError)

    def test_filter_and_smooth_pass_with_an_unfactorable_P_pred(self):
        # A singular A and Q = 0: P_pred is singular from step 2, so the filter
        # takes psd_sqrt's root and the smoother's gate rejects it.
        theta = StateSpaceParams(
            A=[[1.0, 0.0], [0.0, 0.0]], H=[[1.0, 1.0], [1.0, -1.0]], Q=np.zeros((2, 2)),
            R=[1.0, 1.0], m0=np.zeros(2), P0=np.eye(2),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            filtered = filter_pass(np.ones((2, 5)), theta)
        assert not filtered.chol_e.all()
        _no_warning(lambda: smooth_pass(filtered, theta), NumericalError)

    def test_m_step_with_a_singular_phi(self):
        theta = StateSpaceParams(
            A=np.eye(2), H=np.ones((3, 2)), Q=np.eye(2), R=np.ones(3), m0=np.zeros(2), P0=np.eye(2)
        )
        stats = SufficientStats(
            sigma=np.eye(2), phi=np.zeros((2, 2)), b=np.ones((3, 2)), c=np.eye(2), Y=np.ones((3, 4))
        )
        _no_warning(lambda: m_step(stats, theta, np.zeros(2), np.eye(2)), NumericalError)

    def test_sc_fit_with_a_failing_support_factorization(self, monkeypatch):
        # Wolfe's supports stay affinely independent on real inputs; a negated
        # Gram matrix makes every minor cycle's factorization fail inside sc_fit.
        monkeypatch.setattr(_numeric, "cholesky", lambda m: np.linalg._umath_linalg.cholesky_lo(-m))
        donors = np.random.default_rng(0).standard_normal((4, 6))
        _no_warning(lambda: sc_fit(donors.mean(axis=0), donors), SolverError)

    def test_ridge_solve_with_a_singular_normal_matrix(self):
        # The zero normal matrix of lambda = 0 has no factor: its row is NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = baselines._ridge_solve(np.zeros((3, 5)), np.ones(5), np.array([0.0, 1.0]))
        assert np.isnan(f[0]).all() and np.array_equal(f[1], np.zeros(3))

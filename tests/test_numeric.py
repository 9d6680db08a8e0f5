import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasc import NumericalError
from tasc._numeric import gate_factor_diag, spd_cholesky

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
        with pytest.raises(NumericalError, match=f"^{_MESSAGES['pd']}$") as err:
            spd_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]), _WHAT, step=4)
        assert err.value.step == 4

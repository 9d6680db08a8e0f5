import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import save_csv_reference
from tasc import (
    ConfigError,
    PanelData,
    ParseError,
    SimulationConfig,
    load_csv,
    mean_center,
    permute_columns,
    save_csv,
    save_simulation,
    simulate,
    split,
)

CSV_3X4 = """unit,t0,t1,t2,t3
target,1.0,2.0,3.0,4.0
donorA,0.5,1.5,2.5,3.5
donorB,2.0,2.0,2.0,2.0
"""


def make_panel(values, t0, missing=False):
    values = np.asarray(values, dtype=float)
    n, t = values.shape
    return PanelData(
        values,
        t0,
        tuple(f"u{i}" for i in range(n)),
        tuple(f"t{j}" for j in range(t)),
        target_post_missing=missing,
    )


class TestPanelData:
    def test_validation(self):
        with pytest.raises(ConfigError):
            make_panel(np.ones((1, 4)), 2)
        with pytest.raises(ConfigError):
            make_panel(np.ones((3, 4)), 0)
        with pytest.raises(ConfigError):
            make_panel(np.ones((3, 4)), 4)
        with pytest.raises(ConfigError):
            PanelData(np.ones((3, 4)), 2, ("a",), ("t0", "t1", "t2", "t3"))

    def test_nan_only_allowed_in_flagged_target_post(self):
        values = np.ones((3, 4))
        values[0, 3] = np.nan
        with pytest.raises(ConfigError):
            make_panel(values, 2)
        panel = make_panel(values, 2, missing=True)
        assert panel.target_post_missing
        values[1, 3] = np.nan
        with pytest.raises(ConfigError):
            make_panel(values, 2, missing=True)

    def test_values_immutable(self):
        panel = make_panel(np.ones((3, 4)), 2)
        with pytest.raises(ValueError):
            panel.values[0, 0] = 5.0


class TestLoadCsv:
    def test_direct_read_through(self):
        panel = load_csv(io.StringIO(CSV_3X4), t0=2)
        assert panel.n_units == 3
        assert panel.n_periods == 4
        assert panel.t0 == 2
        assert not panel.target_post_missing
        assert panel.unit_labels == ("target", "donorA", "donorB")
        assert panel.values[0, 0] == 1.0

    def test_missing_target_post_sets_flag(self):
        text = CSV_3X4.replace("target,1.0,2.0,3.0,4.0", "target,1.0,2.0,,")
        panel = load_csv(io.StringIO(text), t0=2)
        assert panel.target_post_missing
        assert np.isnan(panel.values[0, 2]) and np.isnan(panel.values[0, 3])

    def test_ragged_rows_raise_with_row_index(self):
        text = "1,2,3,4\n1,2,3,4\n1,2,3\n"
        with pytest.raises(ParseError) as err:
            load_csv(io.StringIO(text), t0=2, has_header=False)
        assert err.value.row == 2

    def test_non_numeric_donor_cell(self):
        text = CSV_3X4.replace("donorA,0.5", "donorA,oops")
        with pytest.raises(ParseError):
            load_csv(io.StringIO(text), t0=2)

    def test_t0_out_of_range(self):
        with pytest.raises(ConfigError):
            load_csv(io.StringIO(CSV_3X4), t0=4)

    def test_target_row_moved_to_front(self):
        panel = load_csv(io.StringIO(CSV_3X4), t0=2, target_row=2)
        assert panel.unit_labels[0] == "donorB"
        assert np.allclose(panel.values[0], [2.0, 2.0, 2.0, 2.0])

    def test_headerless_numeric_matrix(self):
        text = "1,2,3,4\n5,6,7,8\n"
        panel = load_csv(io.StringIO(text), t0=2, has_header=False)
        assert panel.unit_labels == ("unit0", "unit1")

    def test_empty_cell_outside_target_post_rejected(self):
        text = CSV_3X4.replace("donorA,0.5", "donorA,")
        with pytest.raises(ParseError):
            load_csv(io.StringIO(text), t0=2)

    def test_cells_parse_bitwise_as_python_float(self):
        cells = [
            " 1.5 ", "\t2e-3", "1_000.5", "-0", "-0.0", "+1E+5", ".5", "5.",
            "1e-320", "١٢٣", "１２.５", "0.1", "-7", "3.141592653589793",
        ]
        text = "\n".join([",".join(cells), ",".join(reversed(cells))]) + "\n"
        panel = load_csv(io.StringIO(text), t0=2, has_header=False)
        expected = np.array([[float(c.strip()) for c in cells], [float(c.strip()) for c in reversed(cells)]])
        assert panel.values.view(np.int64).tolist() == expected.view(np.int64).tolist()

    def test_blank_target_post_cell_sets_flag_and_keeps_values(self):
        text = CSV_3X4.replace("target,1.0,2.0,3.0,4.0", "target,1.0,2.0,  ,4.0")
        panel = load_csv(io.StringIO(text), t0=2)
        assert panel.target_post_missing
        assert np.isnan(panel.values[0, 2])
        assert panel.values[0].tolist()[:2] == [1.0, 2.0] and panel.values[0, 3] == 4.0
        assert panel.values[1:].tolist() == [[0.5, 1.5, 2.5, 3.5], [2.0, 2.0, 2.0, 2.0]]

    @pytest.mark.parametrize(
        ("replace", "message", "row"),
        [
            (("donorA,0.5", "donorA,oops"), "non-numeric cell 'oops' at row 1, column 0", 1),
            (("donorB,2.0,2.0,2.0,2.0", "donorB,2.0,2.0,2.0,x"), "non-numeric cell 'x' at row 2, column 3", 2),
            (("donorA,0.5", "donorA,nan"), "non-finite cell 'nan' at row 1, column 0", 1),
            (("donorB,2.0,2.0", "donorB,2.0,-inf"), "non-finite cell '-inf' at row 2, column 1", 2),
            (("donorB,2.0,2.0", "donorB,2.0,1e999"), "non-finite cell '1e999' at row 2, column 1", 2),
            (("target,1.0", "target, nan "), "non-finite cell 'nan' at row 0, column 0", 0),
            (("donorA,0.5", "donorA,"), "empty cell at row 1, column 0 outside target post period", 1),
            (("target,1.0", "target,"), "empty cell at row 0, column 0 outside target post period", 0),
        ],
    )
    def test_parse_errors_keep_text_and_row(self, replace, message, row):
        text = CSV_3X4.replace(*replace)
        with pytest.raises(ParseError) as err:
            load_csv(io.StringIO(text), t0=2)
        assert str(err.value) == message
        assert err.value.row == row

    @pytest.mark.parametrize(
        ("rows", "message", "row"),
        [
            # The first bad cell in row-major order reports, whatever its kind.
            (["1,2,3", "4,inf,6", "7,8,oops"], "non-finite cell 'inf' at row 1, column 1", 1),
            (["1,2,3", "4,5,oops", "inf,8,9"], "non-numeric cell 'oops' at row 1, column 2", 1),
            (["1,2,3", "4,5,6", "7,8,9", ",oops,nan"], "non-numeric cell 'oops' at row 3, column 1", 3),
            # Bad cells are reported before blank cells outside the target post period.
            (["1,2,3", ",5,6", "7,8,nan"], "non-finite cell 'nan' at row 2, column 2", 2),
        ],
    )
    def test_first_bad_cell_reports(self, rows, message, row):
        with pytest.raises(ParseError) as err:
            load_csv(io.StringIO("\n".join(rows) + "\n"), t0=1, has_header=False)
        assert str(err.value) == message
        assert err.value.row == row


class TestSaveCsvRoundTrip:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((4, 6)) * np.pi
        panel = make_panel(values, 3)
        buf = io.StringIO()
        save_csv(panel, buf)
        back = load_csv(io.StringIO(buf.getvalue()), t0=3)
        assert np.array_equal(back.values, panel.values)
        assert back.unit_labels == panel.unit_labels
        assert back.time_labels == panel.time_labels

    def test_round_trip_with_missing_cells(self):
        values = np.arange(12, dtype=float).reshape(3, 4)
        values[0, 2:] = np.nan
        panel = make_panel(values, 2, missing=True)
        buf = io.StringIO()
        save_csv(panel, buf)
        back = load_csv(io.StringIO(buf.getvalue()), t0=2)
        assert back.target_post_missing
        assert np.array_equal(back.values, panel.values, equal_nan=True)

    def test_path_and_handle_write_same_text(self, tmp_path):
        values = np.arange(12, dtype=float).reshape(3, 4) / 7.0
        values[0, 3] = np.nan
        panel = make_panel(values, 2, missing=True)
        buf = io.StringIO()
        save_csv(panel, buf)
        path = tmp_path / "panel.csv"
        save_csv(panel, path)
        assert path.read_bytes() == buf.getvalue().encode()


# Labels that csv must quote (delimiter, quote, line breaks), spaces, non-ASCII
# and the empty label; "t,3" and the like come from the same alphabet.
_LABELS = st.text(alphabet='at3 ,"\n\r\u00e9\u2713', max_size=5)
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e-7]),
    st.integers(-(10**17), 10**17).map(float),
)


def _text(write, panel):
    buf = io.StringIO()
    write(panel, buf)
    return buf.getvalue()


class TestSaveCsvBytes:
    """save_csv writes exactly the bytes of the per-cell reference writer."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_text_matches_reference_writer(self, tmp_path_factory, data):
        n = data.draw(st.integers(2, 4), label="N")
        t = data.draw(st.integers(2, 5), label="T")
        t0 = data.draw(st.integers(1, t - 1), label="t0")
        values = np.array(data.draw(st.lists(_FINITE, min_size=n * t, max_size=n * t), label="values")).reshape(n, t)
        missing = data.draw(st.booleans(), label="target_post_missing")
        if missing:
            post = st.one_of(_FINITE, st.sampled_from([np.nan, np.inf, -np.inf]))
            values[0, t0:] = data.draw(st.lists(post, min_size=t - t0, max_size=t - t0), label="target post")
        panel = PanelData(
            values,
            t0,
            tuple(data.draw(st.lists(_LABELS, min_size=n, max_size=n), label="unit labels")),
            tuple(data.draw(st.lists(_LABELS, min_size=t, max_size=t), label="time labels")),
            target_post_missing=missing,
        )
        assert _text(save_csv, panel) == _text(save_csv_reference, panel)
        got, ref = tmp_path_factory.getbasetemp() / "bytes_got.csv", tmp_path_factory.getbasetemp() / "bytes_ref.csv"
        save_csv(panel, got)
        save_csv_reference(panel, ref)
        assert got.read_bytes() == ref.read_bytes()

    def test_every_non_finite_cell_is_empty(self):
        values = np.array([[1.0, 2.0, np.inf, -np.inf, np.nan], [-0.0, 5e-324, 1e16, 0.5, 3.0]])
        panel = PanelData(values, 2, ("a,b", 'say "x"'), ("t0", "t,3", "", "t\n", "\u00e9"), target_post_missing=True)
        text = _text(save_csv, panel)
        assert text == (
            'unit,t0,"t,3",,"t\n",\u00e9\n"a,b",1.0,2.0,,,\n"say ""x""",-0.0,5e-324,1e+16,0.5,3.0\n'
        )
        back = load_csv(io.StringIO(text), t0=2)
        assert back.target_post_missing and np.isnan(back.values[0, 2:]).all()

    def test_simulation_files_match_reference_writer(self, tmp_path):
        sim = simulate(SimulationConfig(d_true=2, n_units=5, t_total=12, t0=8, seed=4))
        paths = save_simulation(sim, tmp_path)
        ref = tmp_path / "ref.csv"
        for key, panel in (("panel", sim.panel), ("signal", sim.panel.with_values(sim.signal))):
            save_csv_reference(panel, ref)
            assert paths[key].read_bytes() == ref.read_bytes()


class TestMeanCenter:
    def test_constant_rows_center_to_zero(self):
        c = np.array([3.0, 1.0, 4.0, 1.5])
        values = np.tile(c, (3, 1))
        centered, mean = mean_center(make_panel(values, 2))
        assert np.allclose(mean, c)
        assert np.allclose(centered.values, 0.0)

    def test_two_donor_hand_example(self):
        # donors (1,2,3) and (3,4,5): donor mean (2,3,4), centered donors -/+1.
        values = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [3.0, 4.0, 5.0]])
        centered, mean = mean_center(make_panel(values, 2))
        assert np.array_equal(mean, [2.0, 3.0, 4.0])
        assert np.array_equal(centered.values[1], [-1.0, -1.0, -1.0])
        assert np.array_equal(centered.values[2], [1.0, 1.0, 1.0])


class TestSplit:
    def test_shapes(self):
        panel = load_csv(io.StringIO(CSV_3X4), t0=2)
        pre, post = split(panel)
        assert pre.shape == (3, 2) and post.shape == (3, 2)
        assert np.array_equal(pre, panel.values[:, :2])

    def test_boundary_one_post_column(self):
        panel = make_panel(np.arange(8, dtype=float).reshape(2, 4), 3)
        pre, post = split(panel)
        assert post.shape == (2, 1)

    def test_reassembly(self):
        panel = make_panel(np.arange(12, dtype=float).reshape(3, 4), 2)
        pre, post = split(panel)
        assert np.array_equal(np.hstack([pre, post]), panel.values)


class TestPermuteColumns:
    def test_identity(self):
        panel = make_panel(np.arange(12, dtype=float).reshape(3, 4), 2)
        out = permute_columns(panel, [0, 1], [2, 3])
        assert np.array_equal(out.values, panel.values)
        assert out.time_labels == panel.time_labels

    def test_reverse_pre_segment(self):
        panel = make_panel(np.arange(10, dtype=float).reshape(2, 5), 3)
        out = permute_columns(panel, [2, 1, 0], [3, 4])
        assert np.array_equal(out.values[:, :3], panel.values[:, [2, 1, 0]])
        assert np.array_equal(out.values[:, 3:], panel.values[:, 3:])

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(3)
        panel = make_panel(rng.standard_normal((3, 6)), 4)
        perm_pre = rng.permutation(4)
        perm_post = 4 + rng.permutation(2)
        out = permute_columns(panel, perm_pre, perm_post)
        inv_pre = np.argsort(perm_pre)
        inv_post = 4 + np.argsort(perm_post - 4)
        back = permute_columns(out, inv_pre, inv_post)
        assert np.array_equal(back.values, panel.values)
        assert back.time_labels == panel.time_labels

    def test_malformed_permutation(self):
        panel = make_panel(np.ones((2, 4)), 2)
        with pytest.raises(ConfigError):
            permute_columns(panel, [0, 0], [2, 3])
        with pytest.raises(ConfigError):
            permute_columns(panel, [0, 1], [1, 2])

    def test_segments_never_mix(self):
        # Property over random panels and permutations: pre columns stay pre.
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = rng.integers(2, 6)
            t = rng.integers(3, 9)
            t0 = int(rng.integers(1, t))
            panel = make_panel(rng.standard_normal((n, t)), t0)
            out = permute_columns(panel, rng.permutation(t0), t0 + rng.permutation(t - t0))
            pre_cols = {tuple(col) for col in panel.values[:, :t0].T}
            assert {tuple(col) for col in out.values[:, :t0].T} == pre_cols

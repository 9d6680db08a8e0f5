import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasc import (
    ConfigError,
    DonorWeights,
    PanelData,
    RscConfig,
    SolverError,
    hsvt,
    rsc_fit,
    sc_fit,
    sc_predict,
    weights_from_json,
    weights_to_json,
)

from oracles import simplex_grid_search, simplex_kkt_gap


def donor_panel(values, t0):
    values = np.asarray(values, dtype=float)
    n, t = values.shape
    return PanelData(
        values, t0,
        tuple(f"u{i}" for i in range(n)),
        tuple(f"t{j}" for j in range(t)),
    )


def random_simplex_instance(data, min_n=1, kinds=("outside",)):
    """Target and donors with up to 60 donors and 40 pre periods.

    ``outside``: Gaussian target and donors; ``inside``: the target is a
    convex combination of the donors; ``low_rank``: donors of random rank.
    """
    n = data.draw(st.integers(min_n, 60), label="n")
    t0 = data.draw(st.integers(1, 40), label="t0")
    kind = data.draw(st.sampled_from(kinds), label="kind")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if kind == "low_rank":
        rank = int(rng.integers(1, t0 + 1))
        donors = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, t0))
    else:
        donors = rng.standard_normal((n, t0))
    y = rng.dirichlet(np.ones(n)) @ donors if kind == "inside" else rng.standard_normal(t0)
    return y, donors


class TestScFit:
    def test_single_donor_gets_unit_weight(self):
        out = sc_fit(np.array([5.0, 6.0]), np.array([[0.0, 0.0]]))
        assert np.array_equal(out.f, [1.0])

    def test_exact_vertex_fit(self):
        rng = np.random.default_rng(1)
        donors = rng.standard_normal((3, 8))
        out = sc_fit(donors[1].copy(), donors)
        assert np.max(np.abs(out.f - np.array([0.0, 1.0, 0.0]))) <= 1e-6

    def test_even_mixture_matches_grid_oracle(self):
        rng = np.random.default_rng(2)
        donors = rng.standard_normal((2, 10))
        y = 0.5 * donors[0] + 0.5 * donors[1]
        out = sc_fit(y, donors)
        assert np.max(np.abs(out.f - 0.5)) <= 1e-4
        f_grid, obj_grid = simplex_grid_search(y, donors)
        resid = y - out.f @ donors
        assert float(resid @ resid) <= obj_grid + 1e-3

    def test_matches_grid_search_objective_on_random_instances(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3):
            for _ in range(3):
                donors = rng.standard_normal((n, 6))
                y = rng.standard_normal(6)
                out = sc_fit(y, donors)
                resid = y - out.f @ donors
                _, obj_grid = simplex_grid_search(y, donors)
                assert float(resid @ resid) <= obj_grid + 1e-3

    def test_duplicate_donors_tie_break_to_lowest_index(self):
        base = np.array([1.0, 2.0, 3.0])
        donors = np.vstack([base, base])
        out = sc_fit(base.copy(), donors)
        assert np.allclose(out.f, [1.0, 0.0])

    def test_iteration_cap_raises_solver_error(self):
        rng = np.random.default_rng(4)
        donors = rng.standard_normal((3, 8))
        with pytest.raises(SolverError):
            sc_fit(rng.standard_normal(8), donors, tol=1e-16, max_iters=3)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_kkt_oracle_on_random_instances(self, data):
        y, donors = random_simplex_instance(data, kinds=("outside", "inside", "low_rank"))
        tol = 1e-10
        f = sc_fit(y, donors, tol=tol).f
        assert np.all(f >= 0.0) and abs(f.sum() - 1.0) <= 1e-12
        # The solver stops at a duality gap of at most tol * max(1, max_j |p_j|^2)
        # on the unit-RMS problem, so in data units the gradient entries differ
        # by a small multiple of tol * max(1, max_j |d_j - y|^2), plus rounding.
        reach = max(1.0, float(np.max(np.sum((donors - y) ** 2, axis=1))))
        assert simplex_kkt_gap(y, donors, f) <= 10 * tol * reach

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_donor_permutation_permutes_weights(self, data):
        y, donors = random_simplex_instance(data, min_n=2)
        perm = np.random.default_rng(donors.shape[0]).permutation(donors.shape[0])
        f = sc_fit(y, donors).f
        assert np.max(np.abs(sc_fit(y, donors[perm]).f - f[perm])) <= 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), k=st.integers(-40, 40), c=st.floats(1e-6, 1e6))
    def test_scale_invariance(self, data, k, c):
        y, donors = random_simplex_instance(data)
        f = sc_fit(y, donors).f
        assert np.array_equal(sc_fit(2.0**k * y, 2.0**k * donors).f, f)
        assert np.max(np.abs(sc_fit(c * y, c * donors).f - f)) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["y1_pre", "donors_pre"])
    def test_non_finite_input_rejected(self, where, bad):
        y, donors = np.ones(4), np.arange(12.0).reshape(3, 4)
        (y if where == "y1_pre" else donors)[1] = bad
        with pytest.raises(ConfigError, match=f"^{where} must be entirely finite$"):
            sc_fit(y, donors)

    def test_simplex_feasibility_exact(self):
        rng = np.random.default_rng(5)
        donors = rng.standard_normal((4, 12))
        out = sc_fit(rng.standard_normal(12), donors)
        assert np.isclose(out.f.sum(), 1.0, atol=1e-12)
        assert np.all(out.f >= 0)


class TestScPredict:
    def test_vertex_weight_selects_donor_row(self):
        rng = np.random.default_rng(6)
        post = rng.standard_normal((3, 4))
        w = DonorWeights(f=np.array([0.0, 1.0, 0.0]), kind="simplex")
        assert np.array_equal(sc_predict(w, post), post[1])

    def test_uniform_weights_on_identical_rows(self):
        row = np.array([2.0, 4.0, 8.0])
        post = np.vstack([row, row, row])
        w = DonorWeights(f=np.full(3, 1 / 3), kind="simplex")
        assert np.allclose(sc_predict(w, post), row)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        post = rng.standard_normal((3, 5))
        w = DonorWeights(f=np.array([0.5, 0.25, 0.25]), kind="simplex")
        assert np.allclose(sc_predict(w, 3.0 * post), 3.0 * sc_predict(w, post))


class TestHsvt:
    def test_rank_one_exact(self):
        rng = np.random.default_rng(8)
        Y = np.outer(rng.standard_normal(4), rng.standard_normal(6))
        assert np.max(np.abs(hsvt(Y, 1) - Y)) <= 1e-10

    def test_full_rank_identity(self):
        rng = np.random.default_rng(9)
        Y = rng.standard_normal((4, 6))
        assert np.max(np.abs(hsvt(Y, 4) - Y)) <= 1e-10

    def test_hand_diag_example(self):
        Y = np.diag([3.0, 1.0])
        assert np.allclose(hsvt(Y, 1), np.diag([3.0, 0.0]))

    def test_frobenius_identity(self):
        rng = np.random.default_rng(10)
        Y = rng.standard_normal((6, 9))
        s = np.linalg.svd(Y, compute_uv=False)
        for d in (1, 3, 5):
            tail = float(np.sum(s[d:] ** 2))
            err = float(np.linalg.norm(Y - hsvt(Y, d)) ** 2)
            assert abs(err - tail) <= 1e-8 * max(tail, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        Y = np.ones((3, 5))
        Y[2, 4] = bad
        with pytest.raises(ConfigError, match="^Y must be entirely finite$"):
            hsvt(Y, 1)

    def test_rank_bounds(self):
        Y = np.ones((3, 5))
        with pytest.raises(ConfigError):
            hsvt(Y, 0)
        with pytest.raises(ConfigError):
            hsvt(Y, 4)


class TestRscConfigValidation:
    def test_nan_lambda_rejected(self):
        # rsc_fit would otherwise report a singular normal matrix.
        with pytest.raises(ConfigError, match="ridge coefficient must be finite and >= 0"):
            RscConfig(d=1, lambda_=float("nan"))

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf")])
    def test_bad_cv_grid_entry_rejected(self, bad):
        # rsc_fit would otherwise score the candidate inf without a word.
        with pytest.raises(ConfigError, match="cv_grid entries must be finite and >= 0"):
            RscConfig(d=1, cv_grid=(bad, 1.0))

    @pytest.mark.parametrize("bad", [2.5, 2.0, True])
    def test_non_integer_rank_rejected(self, bad):
        # rsc_fit would otherwise fail slicing the SVD with an untyped TypeError.
        with pytest.raises(ConfigError, match=f"^d must be an integer, got {bad!r}$"):
            RscConfig(d=bad)
        assert RscConfig(d=np.int64(2)).d == 2


class TestRscFit:
    def test_exact_least_squares_when_target_in_row_space(self):
        rng = np.random.default_rng(11)
        donors = rng.standard_normal((3, 10))
        target = np.array([0.3, -1.2, 0.4]) @ donors
        values = np.vstack([target, donors])
        panel = donor_panel(values, 6)
        fit = rsc_fit(panel, RscConfig(d=3, lambda_=0.0))
        resid = target[:6] - fit.weights.f @ fit.denoised[:, :6]
        assert np.linalg.norm(resid) <= 1e-8

    def test_huge_ridge_shrinks_weights_to_zero(self):
        rng = np.random.default_rng(12)
        values = rng.standard_normal((4, 8))
        panel = donor_panel(values, 5)
        fit = rsc_fit(panel, RscConfig(d=2, lambda_=1e12))
        assert np.max(np.abs(fit.weights.f)) <= 1e-6

    def test_hand_normal_equation_example(self):
        # Denoised pre rows (1,0) and (0,1), target (1,2), lambda 1:
        # f = (I + I)^-1 (1,2) = (0.5, 1.0).
        values = np.array(
            [
                [1.0, 2.0, 0.0],
                [1.0, 0.0, 0.5],
                [0.0, 1.0, 0.5],
            ]
        )
        panel = donor_panel(values, 2)
        fit = rsc_fit(panel, RscConfig(d=2, lambda_=1.0))
        assert np.max(np.abs(fit.weights.f - np.array([0.5, 1.0]))) <= 1e-8

    def test_singular_normal_matrix_suggests_ridge(self):
        base = np.array([1.0, 2.0, 3.0, 4.0])
        values = np.vstack([base, base, base])  # duplicated donors, lambda=0
        panel = donor_panel(values, 3)
        with pytest.raises(SolverError) as err:
            rsc_fit(panel, RscConfig(d=1, lambda_=0.0))
        assert "lambda" in str(err.value)

    def test_cv_picks_validation_minimizer(self):
        rng = np.random.default_rng(13)
        cfg = RscConfig(d=2, cv_grid=tuple(10.0**k for k in range(-1, 7)))
        for seed in range(5):
            rng_i = np.random.default_rng(100 + seed)
            values = rng_i.standard_normal((5, 15)).cumsum(axis=1)
            panel = donor_panel(values, 10)
            fit = rsc_fit(panel, cfg)
            assert fit.cv_errors is not None
            best = min(fit.cv_errors.values())
            assert fit.cv_errors[fit.weights.lambda_] <= best + 1e-12

    def test_denoised_excludes_target_row(self):
        rng = np.random.default_rng(14)
        values = rng.standard_normal((4, 8))
        panel = donor_panel(values, 5)
        fit = rsc_fit(panel, RscConfig(d=3, lambda_=0.1))
        assert fit.denoised.shape == (3, 8)
        assert np.max(np.abs(fit.denoised - hsvt(values[1:], 3))) <= 1e-12


class TestRscPredict:
    """RSC predicts with ``sc_predict`` on ridge weights."""

    def test_vertex_weight(self):
        rng = np.random.default_rng(15)
        post = rng.standard_normal((3, 4))
        w = DonorWeights(f=np.array([0.0, 0.0, 1.0]), kind="ridge", lambda_=0.1, d=2)
        assert np.array_equal(sc_predict(w, post), post[2])

    def test_zero_weights_zero_prediction(self):
        w = DonorWeights(f=np.zeros(3), kind="ridge", lambda_=1.0, d=1)
        assert np.allclose(sc_predict(w, np.ones((3, 5))), 0.0)

    def test_linearity(self):
        rng = np.random.default_rng(16)
        post = rng.standard_normal((2, 6))
        w = DonorWeights(f=np.array([1.5, -0.5]), kind="ridge", lambda_=0.0, d=1)
        assert np.allclose(sc_predict(w, 2.0 * post), 2.0 * sc_predict(w, post))


class TestWeightsSerialization:
    def test_round_trip(self):
        w = DonorWeights(f=np.array([0.25, 0.75]), kind="simplex")
        back = weights_from_json(weights_to_json(w))
        assert np.array_equal(back.f, w.f)
        assert back.kind == "simplex"

    def test_ridge_metadata_kept(self):
        w = DonorWeights(f=np.array([1.0, -2.0]), kind="ridge", lambda_=100.0, d=5)
        back = weights_from_json(weights_to_json(w))
        assert back.lambda_ == 100.0
        assert back.d == 5

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"f": [1.0]}', "weights document is missing key 'kind'"),
            ('{"kind": "simplex"}', "weights document is missing key 'f'"),
            ("[1.0]", "weights document must be a JSON object, got list"),
        ],
        ids=["no_kind", "no_f", "list"],
    )
    def test_malformed_document_rejected(self, text, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            weights_from_json(text)

    def test_simplex_invariants_enforced(self):
        with pytest.raises(ConfigError):
            DonorWeights(f=np.array([0.7, 0.7]), kind="simplex")
        with pytest.raises(ConfigError):
            DonorWeights(f=np.array([-0.5, 1.5]), kind="simplex")

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasc import (
    ConfigError,
    NumericalError,
    StateSpaceParams,
    filter_pass,
    gen_panel,
    initial_state,
    kalman_step,
    kalman_step_missing_target,
    log_likelihood,
    params_from_json,
    params_to_json,
    rts_step,
    smooth_pass,
)

from tasc._numeric import write_json
from tasc.ssm import _params_doc

from oracles import conditioned_moments, observed_log_density, random_theta


def scalar_theta(A=1.0, H=1.0, Q=0.0, R=1.0, m0=0.0, P0=1.0):
    return StateSpaceParams(A=[[A]], H=[[H]], Q=[[Q]], R=[[R]], m0=[m0], P0=[[P0]])


class TestParams:
    def test_dimension_checks(self):
        with pytest.raises(ConfigError):
            StateSpaceParams(A=np.eye(2), H=np.ones((3, 1)), Q=np.eye(2), R=np.eye(3), m0=np.zeros(2), P0=np.eye(2))
        with pytest.raises(ConfigError):
            StateSpaceParams(A=np.eye(2), H=np.ones((3, 2)), Q=np.eye(2), R=np.eye(2), m0=np.zeros(2), P0=np.eye(2))

    def test_pd_checks(self):
        with pytest.raises(ConfigError):
            scalar_theta(R=-1.0)
        with pytest.raises(ConfigError):
            StateSpaceParams(
                A=np.eye(2), H=np.ones((2, 2)), Q=[[1.0, 2.0], [2.0, 1.0]],
                R=np.eye(2), m0=np.zeros(2), P0=np.eye(2),
            )

    def test_diag_noise_flag(self):
        with pytest.raises(ConfigError):
            StateSpaceParams(
                A=np.eye(2), H=np.ones((2, 2)), Q=[[1.0, 0.1], [0.1, 1.0]],
                R=np.eye(2), m0=np.zeros(2), P0=np.eye(2), diag_noise=True,
            )

    @pytest.mark.parametrize("name", ["A", "H", "Q", "R", "m0", "P0"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, name, bad):
        fields = dict(
            A=np.eye(2), H=np.ones((3, 2)), Q=np.eye(2), R=np.eye(3),
            m0=np.zeros(2), P0=np.eye(2),
        )
        fields[name] = fields[name].copy()
        fields[name].flat[-1] = bad
        with pytest.raises(ConfigError, match=f"^{name} must be finite$"):
            StateSpaceParams(**fields)

    @pytest.mark.parametrize(
        "name, value",
        [("H", "[[1.0], [NaN]]"), ("A", "[[Infinity]]"), ("R", "[1.0, NaN]")],
    )
    def test_non_finite_json_rejected(self, name, value):
        # json.loads accepts NaN and Infinity, so the file must be checked.
        fields = {
            "A": "[[0.5]]", "H": "[[1.0], [1.0]]", "Q": "[[1.0]]", "R": "[1.0, 1.0]",
            "m0": "[0.0]", "P0": "[[1.0]]",
        }
        fields[name] = value
        text = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + ', "diag_noise": true}'
        with pytest.raises(ConfigError, match=f"^{name} must be finite$"):
            params_from_json(text)

    def test_write_json_layout(self):
        theta = random_theta(np.random.default_rng(3), 2, 3)
        doc = _params_doc(theta, loglik_trace=[-1.5])
        assert write_json(doc) == json.dumps(doc, indent=2) + "\n"
        assert params_to_json(theta, loglik_trace=[-1.5]) == json.dumps(doc, indent=2)

    def test_json_round_trip_lossless(self):
        rng = np.random.default_rng(0)
        theta = random_theta(rng, 3, 4)
        text = params_to_json(theta, loglik_trace=[1.25, 2.5])
        back = params_from_json(text)
        for name in ("A", "H", "Q", "R", "m0", "P0"):
            assert np.array_equal(getattr(back, name), getattr(theta, name))
        assert back.diag_noise == theta.diag_noise

    @pytest.mark.parametrize("diag_noise", [True, False])
    def test_json_r_layout_follows_diag_noise(self, diag_noise):
        rng = np.random.default_rng(1)
        theta = random_theta(rng, 2, 5, diag_noise=diag_noise)
        text = params_to_json(theta)
        R = np.array(json.loads(text)["R"])
        assert R.shape == ((5,) if diag_noise else (5, 5))
        back = params_from_json(text)
        for name in ("A", "H", "Q", "R", "m0", "P0"):
            assert getattr(back, name).tobytes() == getattr(theta, name).tobytes()
        assert back.diag_noise == diag_noise

    def test_json_with_full_diagonal_r_still_loads(self, tmp_path):
        # Files written before R was stored as a vector carry it N x N.
        rng = np.random.default_rng(2)
        theta = random_theta(rng, 2, 4, diag_noise=True)
        doc = {
            "d": 2, "n_obs": 4, "diag_noise": True,
            "A": theta.A.tolist(), "H": theta.H.tolist(), "Q": theta.Q.tolist(),
            "R": theta.R.tolist(), "m0": theta.m0.tolist(), "P0": theta.P0.tolist(),
            "loglik_trace": [-3.5],
        }
        path = tmp_path / "old.theta.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        back = params_from_json(path)
        for name in ("A", "H", "Q", "R", "m0", "P0"):
            assert np.array_equal(getattr(back, name), getattr(theta, name))
        assert back.diag_noise


class TestKalmanStep:
    def test_scalar_conditioning_example(self):
        # Direct Gaussian conditioning: prior N(0,1), obs noise 1, y=1.
        theta = scalar_theta()
        st = kalman_step(np.array([1.0]), initial_state(theta), theta)
        assert np.allclose(st.m, 0.5)
        assert np.allclose(st.P, 0.5)

    def test_zero_observation_matrix_is_uninformative(self):
        rng = np.random.default_rng(1)
        theta = random_theta(rng, 2, 3)
        theta = StateSpaceParams(
            A=theta.A, H=np.zeros((3, 2)), Q=theta.Q, R=theta.R,
            m0=theta.m0, P0=theta.P0, diag_noise=False,
        )
        st = kalman_step(rng.standard_normal(3), initial_state(theta), theta)
        assert np.allclose(st.m, st.m_pred)
        assert np.allclose(st.P, st.P_pred)

    def test_pure_prediction(self):
        theta = scalar_theta(A=2.0, H=0.0, Q=0.0, P0=1.0, m0=0.7)
        st = kalman_step(np.array([0.0]), initial_state(theta), theta)
        assert np.allclose(st.m, 1.4)
        assert np.allclose(st.P, 4.0)

    def test_singular_innovation_covariance_raises_with_step(self):
        theta = StateSpaceParams(
            A=np.eye(1), H=np.zeros((2, 1)), Q=[[1.0]],
            R=np.diag([1e-13, 10.0]), m0=[0.0], P0=[[1.0]],
        )
        with pytest.raises(NumericalError) as err:
            kalman_step(np.zeros(2), initial_state(theta), theta)
        assert err.value.step == 1

    def test_seasonal_offset_shifts_innovation(self):
        theta = scalar_theta()
        plain = kalman_step(np.array([1.0]), initial_state(theta), theta)
        shifted = kalman_step(np.array([3.0]), initial_state(theta), theta, s_k=2.0)
        assert np.allclose(plain.m, shifted.m)
        assert np.allclose(plain.P, shifted.P)


class TestMissingTargetStep:
    def test_equivalent_to_donor_reduced_model(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(2, 5))
            theta = random_theta(rng, d, n)
            y = rng.standard_normal(n)
            prev = initial_state(theta)
            full = kalman_step_missing_target(y, prev, theta)

            reduced = StateSpaceParams(
                A=theta.A, H=theta.H[1:], Q=theta.Q, R=theta.R[1:, 1:],
                m0=theta.m0, P0=theta.P0, diag_noise=False,
            )
            red = kalman_step(y[1:], initial_state(reduced), reduced)
            assert np.max(np.abs(full.m - red.m)) <= 1e-12
            assert np.max(np.abs(full.P - red.P)) <= 1e-12

    def test_target_value_is_ignored(self):
        rng = np.random.default_rng(3)
        theta = random_theta(rng, 2, 3)
        y = rng.standard_normal(3)
        prev = initial_state(theta)
        y_a, y_b = y.copy(), y.copy()
        y_a[0] = 0.0
        y_b[0] = 1e6
        st_a = kalman_step_missing_target(y_a, prev, theta)
        st_b = kalman_step_missing_target(y_b, prev, theta)
        assert np.array_equal(st_a.m, st_b.m)
        assert np.array_equal(st_a.P, st_b.P)

    def test_hand_reduction_two_units(self):
        # H = (1,1)', R = diag(r1, 1), Q=0, A=1, P0=1, m0=0, donor obs 1:
        # matches the scalar model H=1, R=1 exactly.
        theta = StateSpaceParams(
            A=[[1.0]], H=[[1.0], [1.0]], Q=[[0.0]], R=np.diag([3.7, 1.0]),
            m0=[0.0], P0=[[1.0]],
        )
        st = kalman_step_missing_target(np.array([np.nan, 1.0]), initial_state(theta), theta)
        assert np.allclose(st.m, 0.5)
        assert np.allclose(st.P, 0.5)


class TestRtsStep:
    def test_zero_correction(self):
        rng = np.random.default_rng(4)
        theta = random_theta(rng, 2, 3)
        filt = filter_pass(rng.standard_normal((3, 4)), theta)
        k = 1
        nxt = filt[k + 1]
        m_s, P_s, G = rts_step(filt[k], nxt.m_pred, nxt.P_pred, theta)
        assert np.allclose(m_s, filt[k].m)
        assert np.allclose(P_s, filt[k].P)

    def test_zero_transition_decouples(self):
        rng = np.random.default_rng(5)
        base = random_theta(rng, 2, 3)
        theta = StateSpaceParams(
            A=np.zeros((2, 2)), H=base.H, Q=base.Q, R=base.R,
            m0=base.m0, P0=base.P0, diag_noise=False,
        )
        Y = rng.standard_normal((3, 5))
        filt = filter_pass(Y, theta)
        smoothed = smooth_pass(filt, theta)
        assert np.allclose(smoothed.G, 0.0)
        for k, st in enumerate(filt, start=1):
            assert np.allclose(smoothed.m_s[k], st.m)
            assert np.allclose(smoothed.P_s[k], st.P)

    def test_single_step_base_case(self):
        rng = np.random.default_rng(6)
        theta = random_theta(rng, 2, 2)
        filt = filter_pass(rng.standard_normal((2, 1)), theta)
        smoothed = smooth_pass(filt, theta)
        assert np.array_equal(smoothed.m_s[1], filt[0].m)
        assert np.array_equal(smoothed.P_s[1], filt[0].P)

    def test_singular_prediction_covariance_raises(self):
        theta = StateSpaceParams(
            A=np.zeros((2, 2)), H=np.eye(2), Q=np.diag([1e-13, 1.0]),
            R=np.eye(2), m0=np.zeros(2), P0=np.eye(2),
        )
        filt = filter_pass(np.zeros((2, 2)), theta)
        with pytest.raises(NumericalError):
            smooth_pass(filt, theta)


class TestFilterPass:
    @pytest.mark.parametrize(
        "step, missing_target_from",
        [(kalman_step, None), (kalman_step_missing_target, 0)],
        ids=["full", "missing_target"],
    )
    def test_single_column_matches_single_step(self, step, missing_target_from):
        rng = np.random.default_rng(7)
        theta = random_theta(rng, 2, 3)
        y = rng.standard_normal((3, 1))
        states = filter_pass(y, theta, missing_target_from=missing_target_from)
        single = step(y[:, 0], initial_state(theta), theta)
        assert len(states) == 1
        assert np.array_equal(states[0].m, single.m)
        assert np.array_equal(states[0].P, single.P)

    def test_output_indices_monotone(self):
        rng = np.random.default_rng(8)
        theta = random_theta(rng, 2, 3)
        states = filter_pass(rng.standard_normal((3, 6)), theta)
        assert [st.k for st in states] == [1, 2, 3, 4, 5, 6]

    def test_noiseless_donor_tracking(self):
        # Missing target throughout; tiny Q/R2 make the filter lock onto the
        # true latent path generated by the exact model.
        rng = np.random.default_rng(9)
        d, n = 2, 5
        A = 0.8 * np.eye(d) + 0.05 * rng.standard_normal((d, d))
        H = rng.standard_normal((n, d))
        theta_gen = StateSpaceParams(
            A=A, H=H, Q=1e-18 * np.eye(d), R=1e-18 * np.eye(n),
            m0=rng.standard_normal(d), P0=1e-18 * np.eye(d),
        )
        sim = gen_panel(theta_gen, t_total=30, t0=1, seed=10)
        theta_filter = StateSpaceParams(
            A=A, H=H, Q=1e-12 * np.eye(d), R=np.diag([1.0] + [1e-10] * (n - 1)),
            m0=theta_gen.m0, P0=np.eye(d),
        )
        states = filter_pass(sim.panel.values, theta_filter, missing_target_from=0)
        latent = sim.latent
        err = max(np.max(np.abs(st.m - latent[:, j])) for j, st in enumerate(states[3:], start=3))
        assert err < 1e-4

    def test_covariances_symmetric_psd(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            theta = random_theta(rng, int(rng.integers(1, 4)), int(rng.integers(2, 5)))
            Y = rng.standard_normal((theta.n_obs, 5))
            states = filter_pass(Y, theta, missing_target_from=3)
            smoothed = smooth_pass(states, theta)
            for st in states:
                assert np.max(np.abs(st.P - st.P.T)) <= 1e-12
                assert np.linalg.eigvalsh(st.P).min() >= -1e-9
            for k in range(len(smoothed)):
                assert np.max(np.abs(smoothed.P_s[k] - smoothed.P_s[k].T)) <= 1e-12
                assert np.linalg.eigvalsh(smoothed.P_s[k]).min() >= -1e-9


class TestOracleEquivalence:
    def test_filter_and_smoother_match_joint_conditioning(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 5))
            k_total = int(rng.integers(1, 6))
            theta = random_theta(rng, d, n)
            Y = rng.standard_normal((n, k_total))
            states = filter_pass(Y, theta)
            smoothed = smooth_pass(states, theta)
            fm, fc, sm, sc = conditioned_moments(theta, Y)
            for k, st in enumerate(states):
                assert np.max(np.abs(st.m - fm[k])) <= 1e-8
                assert np.max(np.abs(st.P - fc[k])) <= 1e-8
            for k in range(k_total + 1):
                assert np.max(np.abs(smoothed.m_s[k] - sm[k])) <= 1e-8
                assert np.max(np.abs(smoothed.P_s[k] - sc[k])) <= 1e-8

    def test_missing_target_filter_matches_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            d = int(rng.integers(1, 3))
            n = int(rng.integers(2, 5))
            k_total = int(rng.integers(2, 6))
            cut = int(rng.integers(0, k_total))
            theta = random_theta(rng, d, n)
            Y = rng.standard_normal((n, k_total))
            states = filter_pass(Y, theta, missing_target_from=cut)
            smoothed = smooth_pass(states, theta)
            fm, fc, sm, sc = conditioned_moments(theta, Y, missing_target_from=cut)
            for k, st in enumerate(states):
                assert np.max(np.abs(st.m - fm[k])) <= 1e-8
            for k in range(k_total + 1):
                assert np.max(np.abs(smoothed.m_s[k] - sm[k])) <= 1e-8
                assert np.max(np.abs(smoothed.P_s[k] - sc[k])) <= 1e-8

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_random_models_match_joint_gaussian(self, data):
        # Moments and log-likelihood of the collapsed update against direct
        # conditioning of the joint Gaussian, over diagonal and full R.
        d = data.draw(st.integers(1, 3), label="d")
        k_total = data.draw(st.integers(1, 6), label="K")
        cut = data.draw(st.one_of(st.none(), st.integers(0, k_total)), label="cut")
        min_n = 2 if cut is not None and cut < k_total else 1
        n = data.draw(st.integers(min_n, 6), label="N")
        diag_noise = data.draw(st.booleans(), label="diag_noise")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        theta = random_theta(rng, d, n, diag_noise=diag_noise)
        Y = rng.standard_normal((n, k_total))

        states = filter_pass(Y, theta, missing_target_from=cut)
        fm, fc, _, _ = conditioned_moments(theta, Y, missing_target_from=cut)
        for k, state in enumerate(states):
            assert np.max(np.abs(state.m - fm[k])) <= 1e-8
            assert np.max(np.abs(state.P - fc[k])) <= 1e-8
        ll = log_likelihood(Y, theta, missing_target_from=cut)
        ref = observed_log_density(theta, Y, missing_target_from=cut)
        assert abs(ll - ref) <= 1e-9 * max(1.0, abs(ref))

    @pytest.mark.parametrize("cut", [None, 25], ids=["observed", "missing_from_25"])
    @pytest.mark.parametrize("diag_noise", [False, True], ids=["full_R", "diag_R"])
    def test_long_horizon_fixed_point_matches_joint_gaussian(self, diag_noise, cut):
        # K = 50 steps: the covariance recursion reaches its bitwise fixed
        # point in every row-set segment, so most steps take the reuse path.
        rng = np.random.default_rng(0)
        k_total = 50
        theta = random_theta(rng, 2, 4, diag_noise=diag_noise)
        Y = rng.standard_normal((4, k_total))
        states = filter_pass(Y, theta, missing_target_from=cut)
        smoothed = smooth_pass(states, theta)

        # Reuse shows as consecutive states sharing one P array; once it starts,
        # it lasts to the end of the segment.
        reused = [k for k in range(1, k_total) if states[k].P is states[k - 1].P]
        for start, stop in ((0, k_total),) if cut is None else ((0, cut), (cut, k_total)):
            first = min(k for k in reused if start < k < stop)
            assert all(k in reused for k in range(first, stop))
        assert any(np.array_equal(smoothed.P_s[k], smoothed.P_s[k + 1]) for k in range(k_total))

        fm, fc, sm, sc = conditioned_moments(theta, Y, missing_target_from=cut)
        for k, state in enumerate(states):
            assert np.max(np.abs(state.m - fm[k])) <= 1e-8
            assert np.max(np.abs(state.P - fc[k])) <= 1e-8
        for k in range(k_total + 1):
            assert np.max(np.abs(smoothed.m_s[k] - sm[k])) <= 1e-8
            assert np.max(np.abs(smoothed.P_s[k] - sc[k])) <= 1e-8
        ll = log_likelihood(Y, theta, missing_target_from=cut)
        ref = observed_log_density(theta, Y, missing_target_from=cut)
        assert abs(ll - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_smoothing_never_inflates_covariance(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            theta = random_theta(rng, 2, 3)
            Y = rng.standard_normal((3, 5))
            states = filter_pass(Y, theta)
            smoothed = smooth_pass(states, theta)
            for k, st in enumerate(states, start=1):
                gap = st.P - smoothed.P_s[k]
                assert np.linalg.eigvalsh(gap).min() >= -1e-9


class TestLogLikelihood:
    def test_scalar_hand_value(self):
        theta = scalar_theta(A=1.0, H=1.0, Q=0.0, R=1.0, m0=0.0, P0=0.0)
        ll = log_likelihood(np.array([[0.0]]), theta)
        assert np.isclose(ll, -0.5 * np.log(2 * np.pi))

    def test_scale_identity_with_zero_innovation(self):
        # One step, y = H A m0 so v = 0: scaling (Q, R, P0) by c shifts the
        # log-likelihood by exactly -0.5 * N * log(c).
        base = dict(A=1.3, H=0.9, Q=0.4, R=0.8, m0=1.1, P0=0.6)
        y = np.array([[0.9 * 1.3 * 1.1]])
        ll1 = log_likelihood(y, scalar_theta(**base))
        for c in (2.0, 5.0, 17.0):
            scaled = scalar_theta(
                A=base["A"], H=base["H"], Q=c * base["Q"], R=c * base["R"],
                m0=base["m0"], P0=c * base["P0"],
            )
            llc = log_likelihood(y, scaled)
            assert np.isclose(llc, ll1 - 0.5 * np.log(c))

    def test_true_model_beats_inflated_noise_on_average(self):
        rng = np.random.default_rng(15)
        theta = random_theta(rng, 1, 2, diag_noise=True)
        doubled = StateSpaceParams(
            A=theta.A, H=theta.H, Q=theta.Q, R=2.0 * theta.R,
            m0=theta.m0, P0=theta.P0, diag_noise=True,
        )
        diffs = []
        for seed in range(100):
            sim = gen_panel(theta, t_total=15, t0=1, seed=seed)
            Y = sim.panel.values
            diffs.append(log_likelihood(Y, theta) - log_likelihood(Y, doubled))
        assert np.mean(diffs) > 0

    def test_missing_target_counts_donors_only(self):
        rng = np.random.default_rng(16)
        theta = random_theta(rng, 2, 3)
        Y = rng.standard_normal((3, 4))
        reduced = StateSpaceParams(
            A=theta.A, H=theta.H[1:], Q=theta.Q, R=theta.R[1:, 1:],
            m0=theta.m0, P0=theta.P0, diag_noise=False,
        )
        ll_missing = log_likelihood(Y, theta, missing_target_from=0)
        ll_reduced = log_likelihood(Y[1:], reduced)
        assert np.isclose(ll_missing, ll_reduced, atol=1e-10)


class TestSeasonal:
    def test_filter_with_seasonal_equals_shifted_data(self):
        rng = np.random.default_rng(17)
        theta = random_theta(rng, 2, 3)
        Y = rng.standard_normal((3, 6))
        s = rng.standard_normal(6)
        shifted = Y + s
        with_seasonal = filter_pass(shifted, theta, seasonal=s)
        plain = filter_pass(Y, theta)
        for a, b in zip(with_seasonal, plain):
            assert np.allclose(a.m, b.m)
            assert np.allclose(a.P, b.P)

    def test_seasonal_length_checked(self):
        rng = np.random.default_rng(18)
        theta = random_theta(rng, 1, 2)
        with pytest.raises(ConfigError):
            filter_pass(np.zeros((2, 5)), theta, seasonal=np.zeros(3))

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasc import (
    ConfigError,
    accumulate_stats,
    NumericalError,
    SimulationConfig,
    StateSpaceParams,
    filter_pass,
    gen_panel,
    log_likelihood,
    params_from_json,
    params_to_json,
    simulate,
    smooth_pass,
)

from tasc import _numeric
from tasc._numeric import write_json
from tasc.ssm import _params_doc

from oracles import (
    conditioned_moments,
    filter_mean_loop,
    moment_sums,
    observed_log_density,
    random_theta,
    rts_covariance_loop,
    smoother_mean_loop,
)

# An EM fit (d=3, n_iters=100, one restart, seed 0) to the README quick-start
# panel (simulate seed 0, first 50 columns).  Its covariance recursion ends in
# a last-ulp cycle of period 2 instead of a fixed point: P_pred of step k is
# bitwise P_pred of step k - 2 from step 11 on, never that of step k - 1.
_CYCLING_THETA = """
{"d": 3, "n_obs": 12, "diag_noise": true, "A": [[-0.9246228825426848, -0.08285402156529784,
0.11987898272927443], [-0.09494519938132093, 0.4119328800888532, 0.05931327747407319],
[-0.2035749428997732, -0.35589797156052794, 0.13707424915618355]], "H":
[[-0.13378977239352155, -0.08046299646639675, 0.03451210606844791], [0.06050870100476904,
-0.21537340360257792, 0.049410787901187136], [-0.05936357602594098, -0.061772167078472676,
0.0872747439133687], [0.14156142579213946, 0.00500255281302826, -0.06299954085602374],
[-0.0591262364898036, 0.14601615170087096, 0.07559406238689477], [0.2280511037498307,
0.0754772717333489, 0.0587981206581015], [-0.12675674877177923, -0.07901948642498355,
-0.037092551076990124], [-0.04975557272655712, -0.06305814860966207, 0.012905812736112628],
[-0.007046890077294937, 0.029667760987269833, -0.039756064207845956], [-0.19352183124963335,
-0.055397189259476, -0.06770803953551831], [-0.2979326367998749, 0.17714216208480904,
0.07105395597994], [0.12602461911605886, 0.09291684947502189, -0.05162626259352413]], "Q":
[[0.13322165672138342, 0.0, 0.0], [0.0, 0.8250523540676064, 0.0], [0.0, 0.0,
0.3778682804621924]], "R": [0.0061236821050602505, 0.00016569994745510574,
0.0032913218912305215, 0.005929737511807705, 0.004947704433523804, 0.004034893668551885,
0.002559551482320118, 0.004783891034225484, 0.002834498983230462, 0.0022052881707284727,
0.003933630386712725, 0.00470322818290226], "m0": [-3.0485903801430596, 0.47466140711299615,
-14.297603599459384], "P0": [[0.009531488789912756, 0.00409385485409823,
0.05982550840126445], [0.00409385485409823, 0.02719018299980244, 0.05127893755741593],
[0.05982550840126445, 0.05127893755741593, 0.4793193091252995]]}
"""


def scalar_theta(A=1.0, H=1.0, Q=0.0, R=1.0, m0=0.0, P0=1.0):
    return StateSpaceParams(A=[[A]], H=[[H]], Q=[[Q]], R=[R], m0=[m0], P0=[[P0]])


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
                R=np.ones(2), m0=np.zeros(2), P0=np.eye(2),
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"A": [[1.0]]}', "theta document is missing key 'H'"),
            ('{"A": [[0.5]], "H": [[1.0]], "Q": [[1.0]], "m0": [0.0], "P0": [[1.0]]}',
             "theta document is missing key 'R'"),
            ("[1, 2]", "theta document must be a JSON object, got list"),
        ],
        ids=["no_H", "no_R", "list"],
    )
    def test_malformed_json_document_rejected(self, text, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
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
            "R": np.diag(theta.R).tolist(), "m0": theta.m0.tolist(), "P0": theta.P0.tolist(),
            "loglik_trace": [-3.5],
        }
        path = tmp_path / "old.theta.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        back = params_from_json(path)
        for name in ("A", "H", "Q", "R", "m0", "P0"):
            assert np.array_equal(getattr(back, name), getattr(theta, name))
        assert back.diag_noise and back.R.shape == (4,)

    def test_json_with_full_non_diagonal_r_under_diag_noise_rejected(self):
        theta = random_theta(np.random.default_rng(2), 2, 4)
        doc = json.loads(params_to_json(theta))
        doc["diag_noise"] = True
        with pytest.raises(ConfigError, match="diag_noise requires an exactly diagonal R"):
            params_from_json(json.dumps(doc))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        d=st.integers(1, 4), n=st.integers(1, 6), diag_noise=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_json_round_trip_bitwise_over_noise_models(self, d, n, diag_noise, seed):
        theta = random_theta(np.random.default_rng(seed), d, n, diag_noise=diag_noise)
        back = params_from_json(params_to_json(theta))
        for name in ("A", "H", "Q", "R", "m0", "P0"):
            got, ref = getattr(back, name), getattr(theta, name)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), name
        assert back.diag_noise == diag_noise


class TestKalmanStep:
    def test_scalar_conditioning_example(self):
        # Direct Gaussian conditioning: prior N(0,1), obs noise 1, y=1.
        theta = scalar_theta()
        st = filter_pass(np.array([[1.0]]), theta)
        assert np.allclose(st.m[0], 0.5)
        assert np.allclose(st.P[0], 0.5)

    def test_zero_observation_matrix_is_uninformative(self):
        rng = np.random.default_rng(1)
        theta = random_theta(rng, 2, 3)
        theta = StateSpaceParams(
            A=theta.A, H=np.zeros((3, 2)), Q=theta.Q, R=theta.R,
            m0=theta.m0, P0=theta.P0,
        )
        st = filter_pass(rng.standard_normal((3, 1)), theta)
        assert np.allclose(st.m[0], st.m_pred[0])
        assert np.allclose(st.P[0], st.P_pred[0])

    def test_pure_prediction(self):
        theta = scalar_theta(A=2.0, H=0.0, Q=0.0, P0=1.0, m0=0.7)
        st = filter_pass(np.array([[0.0]]), theta)
        assert np.allclose(st.m[0], 1.4)
        assert np.allclose(st.P[0], 4.0)

    def test_singular_innovation_covariance_raises_with_step(self):
        theta = StateSpaceParams(
            A=np.eye(1), H=np.zeros((2, 1)), Q=[[1.0]],
            R=[1e-13, 10.0], m0=[0.0], P0=[[1.0]],
        )
        with pytest.raises(NumericalError) as err:
            filter_pass(np.zeros((2, 1)), theta)
        assert err.value.step == 1

    def test_condition_gate_names_the_first_step_past_the_limit(self):
        # P0 = 0 and Q = 1e-10 keep M = 1 + P_pred / R near 1 for two steps;
        # then A^2 = 1e13 carries M past COND_LIMIT from step 3 on.
        theta = scalar_theta(A=np.sqrt(1e13), Q=1e-10, P0=0.0)
        filter_pass(np.zeros((1, 2)), theta)
        with pytest.raises(NumericalError, match=r"^innovation covariance S condition number exceeds 1e\+12$") as err:
            filter_pass(np.zeros((1, 6)), theta)
        assert err.value.step == 3

    def test_noise_ratio_past_the_float_range_fails_the_condition_gate(self):
        # sqrt(R) spans 1e-150 to 1e5: squaring the ratio 1e155 would overflow.
        theta = StateSpaceParams(
            A=np.eye(1), H=np.ones((2, 1)), Q=[[1.0]], R=[1e-300, 1e10], m0=[0.0], P0=[[1.0]],
        )
        with pytest.raises(NumericalError, match=r"^innovation covariance S condition number exceeds 1e\+12$") as err:
            filter_pass(np.zeros((2, 3)), theta)
        assert err.value.step == 1

    def test_condition_failure_wins_over_a_later_cholesky_failure(self, monkeypatch):
        # M's factor fails the condition gate at step 2; M itself rounds to a
        # matrix with no Cholesky factor at step 3 (under numpy's LAPACK and
        # under scipy's alike).  The gate runs after the loop, but the earlier
        # failure is the one raised.
        theta = StateSpaceParams(
            A=[[0.5, -1.0], [1.0, 1e9]], H=[[0.0, -1.0]], Q=np.diag([1e-8, 1e16]),
            R=[1.0], m0=np.zeros(2), P0=1e-8 * np.eye(2),
        )
        Y = np.zeros((1, 6))
        with pytest.raises(NumericalError, match=r"^innovation covariance S condition number exceeds 1e\+12$") as err:
            filter_pass(Y, theta)
        assert err.value.step == 2
        monkeypatch.setattr(_numeric, "COND_LIMIT", np.inf)  # lift the ratio limit
        with pytest.raises(NumericalError, match="^innovation covariance S is not positive definite$") as err:
            filter_pass(Y, theta)
        assert err.value.step == 3


class TestMissingTargetStep:
    def test_equivalent_to_donor_reduced_model(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(2, 5))
            theta = random_theta(rng, d, n)
            y = rng.standard_normal((n, 1))
            full = filter_pass(y, theta, missing_target_from=0)

            reduced = StateSpaceParams(
                A=theta.A, H=theta.H[1:], Q=theta.Q, R=theta.R[1:, 1:],
                m0=theta.m0, P0=theta.P0,
            )
            red = filter_pass(y[1:], reduced)
            assert np.max(np.abs(full.m - red.m)) <= 1e-12
            assert np.max(np.abs(full.P - red.P)) <= 1e-12

    def test_target_value_is_ignored(self):
        rng = np.random.default_rng(3)
        theta = random_theta(rng, 2, 3)
        y = rng.standard_normal((3, 1))
        y_a, y_b = y.copy(), y.copy()
        y_a[0] = 0.0
        y_b[0] = 1e6
        st_a = filter_pass(y_a, theta, missing_target_from=0)
        st_b = filter_pass(y_b, theta, missing_target_from=0)
        assert np.array_equal(st_a.m, st_b.m)
        assert np.array_equal(st_a.P, st_b.P)

    def test_hand_reduction_two_units(self):
        # H = (1,1)', R = diag(r1, 1), Q=0, A=1, P0=1, m0=0, donor obs 1:
        # matches the scalar model H=1, R=1 exactly.
        theta = StateSpaceParams(
            A=[[1.0]], H=[[1.0], [1.0]], Q=[[0.0]], R=[3.7, 1.0],
            m0=[0.0], P0=[[1.0]],
        )
        st = filter_pass(np.array([[np.nan], [1.0]]), theta, missing_target_from=0)
        assert np.allclose(st.m[0], 0.5)
        assert np.allclose(st.P[0], 0.5)


class TestRtsStep:
    def test_zero_correction(self):
        # An uninformative observation (H = 0) leaves m_s_1 at m_pred_1 and
        # P_s_1 at P_pred_1, so the smoother step back to index 0 corrects
        # nothing: the smoothed initial moments are the prior's.
        rng = np.random.default_rng(4)
        base = random_theta(rng, 2, 3)
        theta = StateSpaceParams(
            A=base.A, H=np.zeros((3, 2)), Q=base.Q, R=base.R,
            m0=base.m0, P0=base.P0,
        )
        filt = filter_pass(rng.standard_normal((3, 1)), theta)
        smoothed = smooth_pass(filt, theta)
        assert np.allclose(smoothed.m_s[0], theta.m0)
        assert np.allclose(smoothed.P_s[0], theta.P0)

    def test_zero_transition_decouples(self):
        rng = np.random.default_rng(5)
        base = random_theta(rng, 2, 3)
        theta = StateSpaceParams(
            A=np.zeros((2, 2)), H=base.H, Q=base.Q, R=base.R,
            m0=base.m0, P0=base.P0,
        )
        Y = rng.standard_normal((3, 5))
        filt = filter_pass(Y, theta)
        smoothed = smooth_pass(filt, theta)
        assert np.allclose(smoothed.G, 0.0)
        for k in range(1, len(filt) + 1):
            assert np.allclose(smoothed.m_s[k], filt.m[k - 1])
            assert np.allclose(smoothed.P_s[k], filt.P[k - 1])

    def test_single_step_base_case(self):
        rng = np.random.default_rng(6)
        theta = random_theta(rng, 2, 2)
        filt = filter_pass(rng.standard_normal((2, 1)), theta)
        smoothed = smooth_pass(filt, theta)
        assert np.array_equal(smoothed.m_s[1], filt.m[0])
        assert np.array_equal(smoothed.P_s[1], filt.P[0])

    def test_singular_prediction_covariance_raises(self):
        theta = StateSpaceParams(
            A=np.zeros((2, 2)), H=np.eye(2), Q=np.diag([1e-13, 1.0]),
            R=np.ones(2), m0=np.zeros(2), P0=np.eye(2),
        )
        filt = filter_pass(np.zeros((2, 2)), theta)
        with pytest.raises(NumericalError):
            smooth_pass(filt, theta)

    def test_semidefinite_prediction_covariance_raises_at_last_step(self):
        # P_pred = Q = diag(0, 1) at every step: the filter takes a PSD square
        # root of it, but the smoother needs its Cholesky factor.
        theta = StateSpaceParams(
            A=np.zeros((2, 2)), H=np.eye(2), Q=np.diag([0.0, 1.0]),
            R=np.ones(2), m0=np.zeros(2), P0=np.eye(2),
        )
        filt = filter_pass(np.zeros((2, 3)), theta)
        assert not filt.chol_e.any()
        with pytest.raises(NumericalError, match="^one-step prediction covariance is not positive definite$") as err:
            smooth_pass(filt, theta)
        assert err.value.step == 2


class TestFilterPass:
    @pytest.mark.parametrize("missing_target_from", [None, 0], ids=["full", "missing_target"])
    def test_single_column_matches_single_step(self, missing_target_from):
        # A one-column pass is the first step of a longer pass.  The covariance
        # half is the same arithmetic, so P agrees bit for bit; the mean half
        # whitens and projects all columns in one product, whose summation order
        # BLAS picks by shape, so m agrees to rounding.
        rng = np.random.default_rng(7)
        theta = random_theta(rng, 2, 3)
        Y = rng.standard_normal((3, 4))
        states = filter_pass(Y[:, :1], theta, missing_target_from=missing_target_from)
        longer = filter_pass(Y, theta, missing_target_from=missing_target_from)
        assert len(states) == 1
        assert np.max(np.abs(states.m[0] - longer.m[0])) <= 4 * np.finfo(float).eps * np.max(np.abs(longer.m[0]))
        assert np.array_equal(states.P[0], longer.P[0])

    def test_output_indices_monotone(self):
        rng = np.random.default_rng(8)
        theta = random_theta(rng, 2, 3)
        Y = rng.standard_normal((3, 6))
        states = filter_pass(Y, theta)
        assert len(states) == 6
        # Row k is time index k + 1: it is the last row of the pass over the
        # first k + 1 columns.
        for k in range(6):
            prefix = filter_pass(Y[:, : k + 1], theta)
            assert np.allclose(prefix.m[-1], states.m[k], rtol=1e-14, atol=0.0)
            assert np.array_equal(prefix.P[-1], states.P[k])

    def test_noiseless_donor_tracking(self):
        # Missing target throughout; tiny Q/R2 make the filter lock onto the
        # true latent path generated by the exact model.
        rng = np.random.default_rng(9)
        d, n = 2, 5
        A = 0.8 * np.eye(d) + 0.05 * rng.standard_normal((d, d))
        H = rng.standard_normal((n, d))
        theta_gen = StateSpaceParams(
            A=A, H=H, Q=1e-18 * np.eye(d), R=np.full(n, 1e-18),
            m0=rng.standard_normal(d), P0=1e-18 * np.eye(d),
        )
        sim = gen_panel(theta_gen, t_total=30, t0=1, seed=10)
        theta_filter = StateSpaceParams(
            A=A, H=H, Q=1e-12 * np.eye(d), R=[1.0] + [1e-10] * (n - 1),
            m0=theta_gen.m0, P0=np.eye(d),
        )
        states = filter_pass(sim.panel.values, theta_filter, missing_target_from=0)
        latent = sim.latent
        err = max(np.max(np.abs(states.m[j] - latent[:, j])) for j in range(3, len(states)))
        assert err < 1e-4

    def test_covariances_symmetric_psd(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            theta = random_theta(rng, int(rng.integers(1, 4)), int(rng.integers(2, 5)))
            Y = rng.standard_normal((theta.n_obs, 5))
            states = filter_pass(Y, theta, missing_target_from=3)
            smoothed = smooth_pass(states, theta)
            for P in states.P:
                assert np.max(np.abs(P - P.T)) <= 1e-12
                assert np.linalg.eigvalsh(P).min() >= -1e-9
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
            for k in range(k_total):
                assert np.max(np.abs(states.m[k] - fm[k])) <= 1e-8
                assert np.max(np.abs(states.P[k] - fc[k])) <= 1e-8
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
            for k in range(k_total):
                assert np.max(np.abs(states.m[k] - fm[k])) <= 1e-8
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
        for k in range(k_total):
            assert np.max(np.abs(states.m[k] - fm[k])) <= 1e-8
            assert np.max(np.abs(states.P[k] - fc[k])) <= 1e-8
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

        # Reuse shows as consecutive rows sharing one covariance entry; once it
        # starts, it lasts to the end of the segment.
        reused = [k for k in range(1, k_total) if states.cov[k] == states.cov[k - 1]]
        for start, stop in ((0, k_total),) if cut is None else ((0, cut), (cut, k_total)):
            first = min(k for k in reused if start < k < stop)
            assert all(k in reused for k in range(first, stop))
        assert any(np.array_equal(smoothed.P_s[k], smoothed.P_s[k + 1]) for k in range(k_total))

        fm, fc, sm, sc = conditioned_moments(theta, Y, missing_target_from=cut)
        for k in range(k_total):
            assert np.max(np.abs(states.m[k] - fm[k])) <= 1e-8
            assert np.max(np.abs(states.P[k] - fc[k])) <= 1e-8
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
            for k in range(1, len(states) + 1):
                gap = states.P[k - 1] - smoothed.P_s[k]
                assert np.linalg.eigvalsh(gap).min() >= -1e-9


class TestAgainstPerStepLoops:
    """The smoother's covariance pass and the moment GEMMs against plain per-step loops."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_gains_covariances_and_moments_match_loops(self, data):
        d = data.draw(st.integers(1, 4), label="d")
        k_total = data.draw(st.integers(1, 40), label="K")
        cut = data.draw(st.one_of(st.none(), st.integers(0, k_total)), label="cut")
        min_n = 2 if cut is not None and cut < k_total else 1
        n = data.draw(st.integers(min_n, 6), label="N")
        diag_noise = data.draw(st.booleans(), label="diag_noise")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        theta = random_theta(rng, d, n, diag_noise=diag_noise)
        Y = rng.standard_normal((n, k_total))
        filtered = filter_pass(Y, theta, missing_target_from=cut)
        smoothed = smooth_pass(filtered, theta)

        def rel(got, ref):
            return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))

        G, P_s = rts_covariance_loop(theta, filtered)
        assert rel(smoothed.G, G) <= 1e-12
        assert rel(smoothed.P_s, P_s) <= 1e-12
        stats = accumulate_stats(smoothed, Y)
        for got, ref in zip((stats.sigma, stats.phi, stats.b, stats.c), moment_sums(smoothed, Y)):
            assert rel(got, ref) <= 1e-12


class TestMeanScan:
    """The scans of the filter and smoother means against the plain per-step loop."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_scan_error_within_loop_error_against_long_double(self, data):
        d = data.draw(st.integers(1, 4), label="d")
        n = data.draw(st.integers(1, 8), label="N")
        k_total = data.draw(st.integers(1, 1000), label="K")
        rho = data.draw(st.floats(0.0, 1.1), label="spectral radius of A")
        cut = None if n == 1 else data.draw(st.one_of(st.none(), st.integers(0, k_total)), label="cut")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        A = rng.standard_normal((d, d))
        A *= rho / np.max(np.abs(np.linalg.eigvals(A)))
        theta = StateSpaceParams(
            A=A, H=rng.standard_normal((n, d)), Q=np.diag(rng.uniform(0.1, 1.0, size=d)),
            R=10.0 ** rng.uniform(-6.0, 5.0, size=n), m0=rng.standard_normal(d),
            P0=np.eye(d),
        )
        Y = rng.standard_normal((n, k_total))
        filtered = filter_pass(Y, theta, missing_target_from=cut)
        smoothed = smooth_pass(filtered, theta)

        _, m_loop, ll_loop = filter_mean_loop(theta, Y, filtered, cut)
        _, m_ref, ll_ref = filter_mean_loop(theta, Y, filtered, cut, dtype=np.longdouble)
        ms_loop = smoother_mean_loop(theta, m_loop, smoothed.G)
        ms_ref = smoother_mean_loop(theta, m_ref, smoothed.G, dtype=np.longdouble)
        for got, loop, ref in ((filtered.m, m_loop, m_ref), (smoothed.m_s, ms_loop, ms_ref)):
            err_loop = float(np.max(np.abs(loop - ref)))
            err_scan = float(np.max(np.abs(got - ref)))
            assert err_scan <= 10.0 * err_loop + 1e-14 * float(np.max(np.abs(ref)))
        # Whitening by an R entry near 1e-6 magnifies the rounding of m in the
        # residuals, for the loop as for the scan, so the loop's own error
        # against the long-double run widens the 1e-12 relative bound.
        ll = log_likelihood(Y, theta, missing_target_from=cut)
        assert abs(ll - ll_loop) <= 1e-12 * abs(ll_loop) + 10.0 * float(abs(ll_loop - ll_ref))

    @pytest.mark.parametrize("cut", [None, 12], ids=["observed", "missing_from_12"])
    def test_last_ulp_cycle_reused_by_phase(self, cut):
        theta = params_from_json(_CYCLING_THETA)
        k_total = 20
        Y = simulate(SimulationConfig(d_true=3, n_units=12, t_total=80, t0=50, seed=0)).panel.values[:, :k_total]
        filtered = filter_pass(Y, theta, missing_target_from=cut)
        smoothed = smooth_pass(filtered, theta)
        assert len(filtered.P_e) < k_total

        fm, fc, sm, sc = conditioned_moments(theta, Y, missing_target_from=cut)
        assert np.max(np.abs(filtered.m - np.array(fm))) <= 1e-8
        assert np.max(np.abs(filtered.P - np.array(fc))) <= 1e-8
        assert np.max(np.abs(smoothed.m_s - np.array(sm))) <= 1e-8
        assert np.max(np.abs(smoothed.P_s - np.array(sc))) <= 1e-8

        _, m_loop, ll_loop = filter_mean_loop(theta, Y, filtered, cut)
        ms_loop = smoother_mean_loop(theta, m_loop, smoothed.G)
        assert np.max(np.abs(filtered.m - m_loop)) <= 1e-12 * np.max(np.abs(m_loop))
        assert np.max(np.abs(smoothed.m_s - ms_loop)) <= 1e-12 * np.max(np.abs(ms_loop))
        assert abs(log_likelihood(Y, theta, missing_target_from=cut) - ll_loop) <= 1e-12 * abs(ll_loop)


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
            m0=theta.m0, P0=theta.P0,
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
            m0=theta.m0, P0=theta.P0,
        )
        ll_missing = log_likelihood(Y, theta, missing_target_from=0)
        ll_reduced = log_likelihood(Y[1:], reduced)
        assert np.isclose(ll_missing, ll_reduced, atol=1e-10)

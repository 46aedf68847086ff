import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from speckleqi import (
    AsymptoticsInvalid,
    DegenerateDiscrimination,
    InvalidParameter,
    RocCurve,
    SystemParams,
    bayes_sweep,
    ci_bayes,
    ci_bayes_asymptotic,
    ci_detection_probability,
    ci_roc,
    ci_snr,
    derived_x,
    opa_default_gain,
    opa_snr_fading,
    opa_snr_known,
    sfg_bayes,
    sfg_bayes_limit,
    sfg_mean_counts,
    sfg_roc,
    sfg_threshold,
    threshold_test_error,
)
from speckleqi._golden import golden_section_min

# Frozen expected values, computed with independent oracles (direct formula
# evaluation, brute-force threshold scans, golden-section minimization) before
# the implementation existed.
X_FIG2 = 15.811388300841898
N0_A = 2.3025850929940455e-4
N0_B = 2.3025850929940455e-2
N1_FIG2 = 15.65327441783348
SFG_VERTEX_A = (2.3020550252356094e-4, 0.9399517491329434)
SFG_VERTEX_B = (2.2507594416123242e-2, 0.9399517491329434)
SFG_PE_A = 0.030139228184790062
SFG_PE_B = 0.0412779226415899
SFG_LIMIT_A = 0.02974174357598774
CI_PD_AT_0497 = 0.8364784022024078
CI_BAYES_FIG2 = (0.049760237466242016, 0.8365386739870957, 0.10661078173957317)
CI_ASYM_FIG2 = 0.08730196256024288
CI_ASYM_1E3 = 0.0034538776394910683
CI_SNR_FIG2 = 0.09967917999913548
OPA_FADING_A = 1.7550250639866717e-10


def params_for_x(x, n_s=1e-3, n_b=20.0, kappa_bar=0.01, epsilon=0.01, pi0=0.5):
    return SystemParams(M=x * n_b / (kappa_bar * n_s), N_S=n_s, N_B=n_b,
                        kappa_bar=kappa_bar, epsilon=epsilon, pi0=pi0)


class TestSfgMeanCounts:
    def test_frozen_values(self, fig2a, fig2b):
        n0, n1 = sfg_mean_counts(fig2a)
        assert n0 == pytest.approx(N0_A, rel=1e-12)
        assert n1 == pytest.approx(N1_FIG2, rel=1e-12)
        n0, n1 = sfg_mean_counts(fig2b)
        assert n0 == pytest.approx(N0_B, rel=1e-12)
        assert n1 == pytest.approx(N1_FIG2, rel=1e-12)

    def test_vanishing_brightness(self):
        p = SystemParams(M=10.0, N_S=1e-300, N_B=1.0, kappa_bar=0.5)
        n0, n1 = sfg_mean_counts(p)
        assert n0 < 1e-290 and n1 < 1e-290


class TestSfgThreshold:
    def test_fig2_points_threshold_zero(self):
        assert sfg_threshold(N0_A, N1_FIG2, 0.5) == 0
        assert sfg_threshold(N0_B, N1_FIG2, 0.5) == 0

    def test_skewed_priors_brute_force_value(self):
        # frozen from a 0..1000 scan of the two crossing inequalities
        assert sfg_threshold(1.0, 100.0, 0.999) == 15

    def test_degenerate(self):
        with pytest.raises(DegenerateDiscrimination):
            sfg_threshold(2.0, 1.0, 0.5)
        with pytest.raises(DegenerateDiscrimination):
            sfg_threshold(1.0, 1.0, 0.5)

    def test_zero_absent_mean(self):
        # a zero count favors "absent" unless pi1/2 > pi0; any positive count is "present"
        assert sfg_threshold(0.0, 1.0, 0.3) == -1
        assert sfg_threshold(0.0, 1.0, 0.9) == 0
        assert threshold_test_error(0.0, 1.0, 0.9) == pytest.approx(0.05, rel=1e-12)

    def test_indistinguishable_means_are_degenerate(self):
        # n1 one ulp above n0: the logarithms tie and no threshold separates them
        n0 = 1e-6
        n1 = math.nextafter(n0, 1.0)
        with pytest.raises(DegenerateDiscrimination):
            sfg_threshold(n0, n1, 0.5)
        assert threshold_test_error(n0, n1, 0.5) == 0.5

    def test_always_declare_corner(self):
        # priors so lopsided that even a zero count favors "present"
        assert sfg_threshold(0.1, 1.0, 0.01) == -1

    @pytest.mark.parametrize("fn", [sfg_threshold, threshold_test_error])
    @pytest.mark.parametrize("n0, n1, field", [(math.nan, 1.0, "n0"), (0.1, math.inf, "n1"),
                                               (0.1, math.nan, "n1"), (-1.0, 1.0, "n0")])
    def test_means_must_be_finite_and_non_negative(self, fn, n0, n1, field):
        # NaN and inf gave an error of 0.5, a negative mean a bare math domain error
        with pytest.raises(InvalidParameter, match=f"^{field}: "):
            fn(n0, n1, 0.5)

    @staticmethod
    def _brute(n0, n1, pi0, n_max=20000):
        def lw(pi, mean, n):
            if mean == 0.0:
                return math.log(pi) if n == 0 else -math.inf
            return math.log(pi) + n * math.log(mean) - (n + 1) * math.log(mean + 1)

        for n in range(n_max):
            if (lw(pi0, n0, n) >= lw(1 - pi0, n1, n)
                    and lw(pi0, n0, n + 1) < lw(1 - pi0, n1, n + 1)):
                return n
        return -1

    @given(n0=st.floats(1e-6, 10.0), ratio=st.floats(1.01, 1e4),
           pi0=st.floats(0.01, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_scan(self, n0, ratio, pi0):
        n1 = n0 * ratio
        got = sfg_threshold(n0, n1, pi0)
        if got >= 0:
            assert got == self._brute(n0, n1, pi0)


class TestSfgRoc:
    def test_fig2a_vertex(self, fig2a):
        curve = sfg_roc(fig2a)
        i = int(np.where(curve.thresholds == 0)[0][0])
        assert curve.points[i, 0] == pytest.approx(SFG_VERTEX_A[0], rel=1e-12)
        assert curve.points[i, 1] == pytest.approx(SFG_VERTEX_A[1], rel=1e-12)

    def test_fig2b_vertex(self, fig2b):
        curve = sfg_roc(fig2b)
        i = int(np.where(curve.thresholds == 0)[0][0])
        assert curve.points[i, 0] == pytest.approx(SFG_VERTEX_B[0], rel=1e-12)
        assert curve.points[i, 1] == pytest.approx(SFG_VERTEX_B[1], rel=1e-12)

    def test_endpoints_and_interpolation_kind(self, fig2a):
        curve = sfg_roc(fig2a)
        assert curve.thresholds is not None
        assert tuple(curve.points[0]) == (0.0, 0.0)
        assert tuple(curve.points[-1]) == (1.0, 1.0)
        assert curve.thresholds[-1] == -1.0

    def test_floor_controls_depth(self, fig2a):
        curve = sfg_roc(fig2a)
        positive = curve.points[curve.points[:, 0] > 0, 0]
        assert positive.min() < 1e-15

    def test_degenerate_means_diagonal(self):
        # x so small that N1 <= N0: no information, envelope is the diagonal
        p = SystemParams(M=1.0, N_S=1e-4, N_B=20.0, kappa_bar=0.01, epsilon=0.01)
        n0, n1 = sfg_mean_counts(p)
        assert n1 <= n0
        curve = sfg_roc(p)
        np.testing.assert_allclose(curve.points, [[0.0, 0.0], [1.0, 1.0]])

    @pytest.mark.parametrize("x", [0.5, 5.0, X_FIG2, 500.0])
    def test_invariants(self, x):
        sfg_roc(params_for_x(x)).validate()

    def test_randomized_interpolation_is_linear(self, fig2a):
        curve = sfg_roc(fig2a)
        p0, p1 = curve.points[-2], curve.points[-1]
        mid = 0.5 * (p0[0] + p1[0])
        expected = p0[1] + (p1[1] - p0[1]) * (mid - p0[0]) / (p1[0] - p0[0])
        assert curve.detection_probability(mid) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p_f", [1.5, -0.5, math.nan, [0.1, 1.5], [0.2, math.nan]])
    def test_false_alarm_outside_unit_interval_rejected(self, fig2a, p_f):
        # 1.5 returned 1.0, -0.5 returned 0.0 and NaN returned NaN
        with pytest.raises(InvalidParameter, match=r"^p_f: must lie in \[0, 1\]"):
            sfg_roc(fig2a).detection_probability(p_f)


@pytest.mark.parametrize("points,thresholds,message", [
    ([[0, 0], [0.5, 1.2], [1, 1]], None, "lie in"),
    ([[0, 0], [-0.1, 0.2], [1, 1]], None, "lie in"),
    ([[0, 0], [0.5, 0.5], [0.5, 0.6], [1, 1]], None, "P_F must be strictly increasing"),
    ([[0, 0], [0.3, 0.6], [0.6, 0.4], [1, 1]], None, "P_D must be nondecreasing"),
    ([[0.1, 0.2], [1, 1]], None, "must contain or limit to"),
    ([[0, 0], [0.5, 0.9], [0.9, 0.95]], None, "must contain or limit to"),
    ([[0, 0], [0.5, 0.2], [1, 1]], [np.inf, 1, -1], "must be concave"),
], ids=["p-detect-above-one", "p-false-alarm-negative", "p-false-alarm-repeats",
        "p-detect-falls", "misses-origin", "misses-corner", "convex-vertices"])
def test_roc_validate_failure_branches(points, thresholds, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        RocCurve(points, thresholds).validate()


def test_roc_validate_smooth_curve_skips_concavity():
    # the concavity rule binds only the vertices of deterministic tests
    RocCurve([[0, 0], [0.5, 0.2], [1, 1]]).validate()


class TestSfgBayes:
    def test_frozen_fig2a(self, fig2a):
        r = sfg_bayes(fig2a)
        assert r.threshold == 0
        assert r.p_error == pytest.approx(SFG_PE_A, rel=1e-12)
        assert r.p_error == pytest.approx(
            fig2a.pi0 * r.p_false_alarm + fig2a.pi1 * (1 - r.p_detect), abs=1e-12)

    def test_frozen_fig2b(self, fig2b):
        assert sfg_bayes(fig2b).p_error == pytest.approx(SFG_PE_B, rel=1e-12)

    def test_degenerate_returns_prior(self):
        p = SystemParams(M=1.0, N_S=1e-4, N_B=20.0, kappa_bar=0.01, epsilon=0.01,
                         pi0=0.7)
        r = sfg_bayes(p)
        assert r.threshold is None
        assert r.p_error == pytest.approx(0.3)

    def test_limit_frozen(self, fig2a):
        assert sfg_bayes_limit(fig2a) == pytest.approx(SFG_LIMIT_A, rel=1e-12)

    def test_limit_edges(self):
        assert sfg_bayes_limit(params_for_x(1.0, pi0=1.0)) == 0.0
        tiny = params_for_x(1e-12, pi0=0.4)
        assert sfg_bayes_limit(tiny) == pytest.approx(0.6, rel=1e-10)

    def test_limit_convergence_as_brightness_vanishes(self):
        p = params_for_x(X_FIG2, n_s=1e-6)
        exact = sfg_bayes(p).p_error
        limit = sfg_bayes_limit(p)
        assert abs(exact - limit) / limit < 0.01

    def test_threshold_error_helper_consistent(self, fig2a):
        n0, n1 = sfg_mean_counts(fig2a)
        assert threshold_test_error(n0, n1, 0.5) == pytest.approx(SFG_PE_A, rel=1e-12)


class TestCiRoc:
    def test_frozen_point(self, fig2a):
        assert ci_detection_probability(fig2a, 0.0497) == \
            pytest.approx(CI_PD_AT_0497, rel=1e-12)

    @pytest.mark.parametrize("p_f", [2.0, -0.5, 1.0 + 1e-15, math.nan, math.inf])
    def test_false_alarm_outside_unit_interval_rejected(self, fig2a, p_f):
        # p_f ** (1/(1+x)) exceeds 1 above 1 and is complex below 0
        with pytest.raises(InvalidParameter, match="p_f"):
            ci_detection_probability(fig2a, p_f)

    def test_false_alarm_endpoints_accepted(self, fig2a):
        assert ci_detection_probability(fig2a, 0.0) == 0.0
        assert ci_detection_probability(fig2a, 1.0) == 1.0

    def test_endpoints(self, fig2a):
        curve = ci_roc(fig2a)
        assert tuple(curve.points[0]) == (0.0, 0.0)
        assert tuple(curve.points[-1]) == (1.0, 1.0)
        assert curve.thresholds is None

    def test_near_zero_x_is_diagonal(self):
        p = params_for_x(1e-14)
        curve = ci_roc(p)
        np.testing.assert_allclose(curve.points[:, 1], curve.points[:, 0], rtol=1e-10)

    @pytest.mark.parametrize("x", [0.1, X_FIG2, 1e4])
    def test_invariants(self, x):
        ci_roc(params_for_x(x)).validate()

    @pytest.mark.parametrize("x", [1e-14, 0.1, X_FIG2, 1e4])
    def test_sampled_points_within_one_ulp_of_the_exact_value(self, x):
        # ci_roc raises P_F to 1/(1+x) with numpy's power, not libm's: 13 to 18 of
        # its 201 points differ from ci_detection_probability by 1 ulp
        p = params_for_x(x)
        curve = ci_roc(p)
        exact = np.array([ci_detection_probability(p, p_f) for p_f in curve.p_false_alarm.tolist()])
        assert np.all(np.abs(curve.p_detect - exact) <= np.spacing(exact))


class TestCiBayes:
    def test_frozen_fig2(self, fig2a):
        r = ci_bayes(fig2a)
        assert r.threshold == pytest.approx(CI_BAYES_FIG2[0], rel=1e-12)
        assert r.p_detect == pytest.approx(CI_BAYES_FIG2[1], rel=1e-12)
        assert r.p_error == pytest.approx(CI_BAYES_FIG2[2], rel=1e-12)

    def test_edge_priors(self):
        assert ci_bayes(params_for_x(10.0, pi0=1.0)).p_error == 0.0
        assert ci_bayes(params_for_x(10.0, pi0=0.0)).p_error == 0.0

    def test_tiny_x_gives_prior_error(self):
        r = ci_bayes(params_for_x(1e-14, pi0=0.6))
        assert r.p_error == pytest.approx(0.4, rel=1e-9)

    def test_always_declare_clamp(self):
        # pi1 > pi0*(1+x): objective decreasing on (0,1], optimum at P_F = 1
        r = ci_bayes(params_for_x(0.5, pi0=0.1))
        assert r.threshold == 1.0
        assert r.p_error == pytest.approx(0.1)

    @given(logx=st.floats(-2, 6), pi0=st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_matches_golden_section(self, logx, pi0):
        x = 10.0 ** logx
        p = params_for_x(x, pi0=pi0)
        closed = ci_bayes(p).p_error

        def objective(p_f):
            return pi0 * p_f + (1 - pi0) * (1 - p_f ** (1 / (1 + x)))

        _, numeric = golden_section_min(objective, 1e-300, 1.0, tol=1e-14)
        assert closed <= numeric + 1e-12
        assert abs(closed - numeric) < 1e-12


def test_golden_section_on_an_interval_within_tol_takes_its_midpoint():
    calls = []
    x, fx = golden_section_min(lambda t: calls.append(t) or t * t, 0.3, 0.2, tol=0.5)
    assert (x, fx, calls) == (0.25, 0.0625, [0.25])


class TestCiAsymptotic:
    def test_frozen_values(self, fig2a):
        assert ci_bayes_asymptotic(fig2a) == pytest.approx(CI_ASYM_FIG2, rel=1e-12)
        assert ci_bayes_asymptotic(params_for_x(1e3)) == \
            pytest.approx(CI_ASYM_1E3, rel=1e-12)

    def test_x_equal_e(self):
        p = params_for_x(math.e, pi0=0.0)
        assert ci_bayes_asymptotic(p) == pytest.approx(1.0 / math.e, rel=1e-12)

    def test_invalid_region(self):
        with pytest.raises(AsymptoticsInvalid):
            ci_bayes_asymptotic(params_for_x(0.9))

    @pytest.mark.parametrize("x", [1e2, 1e3, 1e4])
    def test_log_factor_gap(self, x):
        p = params_for_x(x)
        ratio = ci_bayes(p).p_error / sfg_bayes_limit(p)
        assert abs(ratio / math.log(x) - 1.0) < 0.25


class TestCiSnr:
    def test_frozen_value(self, fig2a):
        assert ci_snr(fig2a) == pytest.approx(CI_SNR_FIG2, rel=1e-12)

    def test_vanishing_x(self):
        assert ci_snr(params_for_x(1e-14)) == pytest.approx(0.0, abs=1e-14)

    def test_maximum_at_y_equal_one(self):
        # y/(1+y)^2 peaks at y = 1, i.e. x = 2 (checked by grid search)
        assert ci_snr(params_for_x(2.0)) == pytest.approx(0.25, rel=1e-12)
        ys = np.linspace(1e-3, 50, 20000)
        assert (ys / (1 + ys) ** 2).max() <= 0.25


class TestOpa:
    def test_default_gain_fig2a(self, fig2a):
        gain_minus_one, in_window = opa_default_gain(fig2a)
        assert gain_minus_one == pytest.approx(5e-4, rel=1e-12)
        assert in_window is True

    def test_default_gain_fig2b(self, fig2b):
        assert opa_default_gain(fig2b)[0] == pytest.approx(5e-3, rel=1e-12)

    def test_window_violation(self):
        p = SystemParams(M=10.0, N_S=1.0, N_B=1.0, kappa_bar=0.5)
        assert opa_default_gain(p) == (1.0, False)

    def test_frozen_fading_snr(self, fig2a):
        got = opa_snr_fading(fig2a, opa_default_gain(fig2a)[0])
        assert got == pytest.approx(OPA_FADING_A, rel=1e-12)

    def test_known_snr(self, fig2a):
        assert opa_snr_known(fig2a, fig2a.kappa_bar) == pytest.approx(X_FIG2, rel=1e-12)
        assert opa_snr_known(fig2a, 0.0) == 0.0

    def test_fading_collapse_ratios(self, fig2a):
        fading = opa_snr_fading(fig2a, opa_default_gain(fig2a)[0])
        assert fading / ci_snr(fig2a) < 1e-8
        assert opa_snr_known(fig2a, fig2a.kappa_bar) / fading > 1e10

    def test_gain_must_be_positive(self, fig2a):
        for gain_minus_one in (0.0, -1.0):
            with pytest.raises(InvalidParameter, match="^gain_minus_one: must be finite and > 0"):
                opa_snr_fading(fig2a, gain_minus_one)

    @pytest.mark.parametrize("gain_minus_one", [math.inf, -math.inf, math.nan])
    def test_gain_must_be_finite(self, fig2a, gain_minus_one):
        # an infinite gain returned an infinite SNR
        with pytest.raises(InvalidParameter, match="^gain_minus_one: must be finite and > 0"):
            opa_snr_fading(fig2a, gain_minus_one)

    @given(logm=st.floats(2, 10), logns=st.floats(-5, -0.5),
           n_b=st.floats(0.5, 50), kb=st.floats(0.001, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_fading_below_known(self, logm, logns, n_b, kb):
        p = SystemParams(M=10 ** logm, N_S=10 ** logns, N_B=n_b, kappa_bar=kb)
        assert opa_snr_fading(p, opa_default_gain(p)[0]) < opa_snr_known(p, kb)


class TestDominance:
    @pytest.mark.parametrize("x", [5.5, 20.0, 300.0, 1e4])
    def test_sfg_envelope_beats_ci_at_low_p_f(self, x):
        p = params_for_x(x, n_s=1e-3)
        curve = sfg_roc(p)
        for p_f, p_d in curve.points:
            if 0.0 < p_f <= 1e-2:
                assert p_d > ci_detection_probability(p, p_f)


# The per-point closed forms as they were before the batched sweep, kept as a
# bit-for-bit reference: every log, exp and pow is one libm call on a float.
def per_point_sfg(params):
    n0 = -params.N_S * math.log(params.epsilon) / 2.0
    n1 = (1.0 - params.epsilon) * derived_x(params)
    pi0, pi1 = params.pi0, params.pi1
    if not 0.0 < pi0 < 1.0 or n1 <= n0:
        return None, min(pi0, pi1)

    def weight(log_pi, mean, n):
        if mean == 0.0:
            return log_pi if n == 0 else -math.inf
        return log_pi + n * math.log(mean) - (n + 1) * math.log(mean + 1.0)

    def margin(n):
        return weight(math.log(pi0), n0, n) - weight(math.log1p(-pi0), n1, n)

    def tail(mean, n_t):
        if mean == 0.0:
            return 0.0 if n_t < 0 else -math.inf
        return (n_t + 1) * (math.log(mean) - math.log(mean + 1.0))

    if margin(0) < 0.0:
        n_t = -1
    elif n0 == 0.0:
        n_t = 0
    else:
        slope = math.log(n0) - math.log(n1) + math.log(n1 + 1.0) - math.log(n0 + 1.0)
        n_t = max(0, math.floor(-margin(0) / slope + 1e-12))
        while margin(n_t + 1) >= 0.0:
            n_t += 1
        while n_t > 0 and margin(n_t) < 0.0:
            n_t -= 1
    p_f, p_d = math.exp(tail(n0, n_t)), math.exp(tail(n1, n_t))
    return n_t, pi0 * p_f + pi1 * (1.0 - p_d)


def per_point_ci(params):
    x = derived_x(params)
    pi0, pi1 = params.pi0, params.pi1
    if pi1 == 0.0 or pi0 == 0.0:
        return 0.0
    if x == 0.0:
        return min(pi0, pi1)
    log_pf = (1.0 + x) / x * (math.log(pi1) - math.log(pi0) - math.log1p(x))
    p_f = math.exp(min(log_pf, 0.0))
    return pi0 * p_f + pi1 * (1.0 - p_f ** (1.0 / (1.0 + x)))


class TestBayesSweep:
    # examples: N1 <= N0 at small M; pi0 = 0 and 1; margin(0) < 0 (always
    # declare, pi0 = 0.02); x <= 1 and x > 1 in one sweep
    @given(log_m=st.lists(st.floats(-3.0, 13.0), min_size=1, max_size=40, unique=True),
           n_s=st.floats(1e-6, 1.0), n_b=st.floats(0.1, 100.0),
           kappa_bar=st.floats(1e-4, 1.0), epsilon=st.floats(1e-4, 0.5),
           pi0=st.one_of(st.sampled_from([0.0, 1.0, 0.02, 0.5]), st.floats(0.0, 1.0)))
    @example(log_m=[0.0, 3.0, 4.0, 5.0], n_s=1e-2, n_b=20.0, kappa_bar=0.01,
             epsilon=0.01, pi0=0.5)
    @example(log_m=[5.0, 6.0, 7.0, 9.0], n_s=1e-2, n_b=20.0, kappa_bar=0.01,
             epsilon=0.01, pi0=0.02)
    @example(log_m=[2.0, 6.0, 10.0], n_s=1e-2, n_b=20.0, kappa_bar=0.01,
             epsilon=0.01, pi0=0.0)
    @example(log_m=[2.0, 6.0, 10.0], n_s=1e-2, n_b=20.0, kappa_bar=0.01,
             epsilon=0.01, pi0=1.0)
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_scalar_entry_points(self, log_m, n_s, n_b, kappa_bar, epsilon, pi0):
        fixed = dict(N_S=n_s, N_B=n_b, kappa_bar=kappa_bar, epsilon=epsilon, pi0=pi0)
        ms = [10.0 ** e for e in sorted(log_m)]
        sweep = bayes_sweep(SystemParams(M=1.0, **fixed), ms)
        for i, m in enumerate(ms):
            p = SystemParams(M=m, **fixed)
            sfg, ci = sfg_bayes(p), ci_bayes(p)
            assert sweep.x[i] == derived_x(p)
            if sfg.threshold is None:
                assert math.isnan(sweep.sfg_threshold[i])
            else:
                assert sweep.sfg_threshold[i] == sfg.threshold
            assert sweep.sfg_p_error[i] == sfg.p_error
            assert sweep.sfg_limit[i] == sfg_bayes_limit(p)
            assert sweep.ci_p_error[i] == ci.p_error
            if derived_x(p) > 1.0:
                assert sweep.ci_asymptotic[i] == ci_bayes_asymptotic(p)
            else:
                assert math.isnan(sweep.ci_asymptotic[i])
                with pytest.raises(AsymptoticsInvalid):
                    ci_bayes_asymptotic(p)
            assert (sfg.threshold, sfg.p_error) == per_point_sfg(p)
            assert ci.p_error == per_point_ci(p)

    def test_corners_are_reached(self):
        fixed = dict(N_S=1e-2, N_B=20.0, kappa_bar=0.01, epsilon=0.01)
        declare = bayes_sweep(SystemParams(M=1.0, pi0=0.02, **fixed), [1e5, 1e6, 1e7])
        assert declare.sfg_threshold.tolist() == [-1.0, -1.0, 0.0]
        degenerate = bayes_sweep(SystemParams(M=1.0, **fixed), [1e3, 1e4])
        assert math.isnan(degenerate.sfg_threshold[0]) and degenerate.sfg_threshold[1] == 0
        assert np.isnan(degenerate.ci_asymptotic).all()
        for pi0 in (0.0, 1.0):
            edge = bayes_sweep(SystemParams(M=1.0, pi0=pi0, **fixed), [1e6])
            assert math.isnan(edge.sfg_threshold[0]) and edge.sfg_p_error[0] == 0.0

    def test_rejects_non_positive_mode_count(self):
        with pytest.raises(InvalidParameter, match="M"):
            bayes_sweep(SystemParams(M=1.0, N_S=1e-2, N_B=20.0, kappa_bar=0.01), [1.0, 0.0])
        with pytest.raises(InvalidParameter, match="M"):
            bayes_sweep(SystemParams(M=1.0, N_S=1e-2, N_B=20.0, kappa_bar=0.01), [1.0, math.inf])

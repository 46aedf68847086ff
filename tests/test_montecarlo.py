import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from speckleqi import (
    FadingModel,
    FloorModel,
    McConfig,
    McEstimate,
    Receiver,
    SystemParams,
    ci_bayes,
    derived_x,
    estimate_bayes_error,
    estimate_operating_point,
    sample_ci_envelopes,
    sample_sfg_counts,
    sfg_bayes,
    sfg_mean_counts,
    wilson_interval,
)
from speckleqi.montecarlo import _sample_kappa, _stream
from speckleqi.params import FIG2A, FIG2B

# analytic values frozen in test_analytic.py
SFG_VERTEX_A = (2.3020550252356094e-4, 0.9399517491329434)
CI_POINT_FIG2 = (0.049760237466242016, 0.8365386739870957)
SFG_PE_A = 0.030139228184790062
CI_PE_FIG2 = 0.10661078173957317


class TestConfigAndIntervals:
    def test_minimum_trials(self):
        with pytest.raises(ValueError):
            McConfig(trials=50)

    @given(successes=st.integers(0, 500), trials=st.integers(100, 500))
    @settings(max_examples=100, deadline=None)
    def test_wilson_interval_properties(self, successes, trials):
        if successes > trials:
            successes = trials
        est = wilson_interval(successes, trials)
        assert 0.0 <= est.ci_low <= est.value <= est.ci_high <= 1.0

    def test_wilson_known_value(self):
        # 50/100 at z = 1.96: the textbook interval (0.404, 0.596)
        est = wilson_interval(50, 100)
        assert est.ci_low == pytest.approx(0.40383, abs=1e-4)
        assert est.ci_high == pytest.approx(0.59617, abs=1e-4)


class TestFadingSampler:
    def test_deterministic_passthrough(self, fig2a, rng):
        # a known target passes its kappa through unchanged, so its SFG counts
        # are Poisson with a fixed mean and carry no fading spread
        model = FadingModel.deterministic(0.36, 1.25)
        assert np.all(_sample_kappa(model, rng, 1000) == 0.36)
        counts = sample_sfg_counts(fig2a, True, model, McConfig(trials=100), rng, 20000)
        mean = (1 - fig2a.epsilon) * fig2a.M * 0.36 * fig2a.N_S / fig2a.N_B
        assert abs(counts.mean() - mean) < 3 * math.sqrt(mean / 20000)
        assert counts.var() < 1.1 * mean

    def test_rayleigh_moment(self):
        rng = np.random.default_rng(11)
        kappa = _sample_kappa(FadingModel.rayleigh(0.01), rng, 10 ** 6)
        # kappa ~ Exponential(0.01): var = kappa_bar^2
        assert abs(kappa.mean() - 0.01) < 3 * 0.01 / 1e3

    def test_rayleigh_ks_test(self):
        rng = np.random.default_rng(12)
        kappa = _sample_kappa(FadingModel.rayleigh(0.01), rng, 10 ** 6)
        assert sps.kstest(kappa, "expon", args=(0, 0.01)).pvalue > 0.01

    def test_truncated_support_and_law(self):
        rng = np.random.default_rng(13)
        kappa = _sample_kappa(FadingModel.truncated_rayleigh(0.5), rng, 10 ** 5)
        assert kappa.max() <= 1.0
        # truncated-exponential cdf on [0, 1]
        cdf = lambda t: -np.expm1(-t / 0.5) / -math.expm1(-1 / 0.5)
        assert sps.kstest(kappa, cdf).pvalue > 0.01

    def test_deterministic_envelope_is_noncentral_chi2(self, fig2a):
        # known amplitude a, a^2 = kappa*x/kappa_bar: 2R ~ ncx2(2, 2a^2)
        rng = np.random.default_rng(14)
        r = sample_ci_envelopes(fig2a, True, FadingModel.deterministic(0.01, 1.25), rng,
                                20000)
        a2 = 0.01 * derived_x(fig2a) / fig2a.kappa_bar
        assert sps.kstest(2 * r, "ncx2", args=(2, 2 * a2)).pvalue > 0.01


class TestSfgCounts:
    def test_vanishing_brightness_gives_zero(self, rng):
        p = SystemParams(M=1e4, N_S=1e-12, N_B=20.0, kappa_bar=0.01)
        cfg = McConfig(trials=100, seed=1)
        for present in (False, True):
            counts = sample_sfg_counts(p, present, FadingModel.rayleigh(0.01), cfg, rng, 200)
            assert np.all(counts == 0)

    def test_h1_counts_are_bose_einstein(self, fig2a):
        # the load-bearing reduction: Rayleigh-mixed Poisson = thermal counts
        cfg = McConfig(trials=100_000, seed=20260810)
        rng = _stream(cfg.seed, Receiver.SFG, 1)
        counts = sample_sfg_counts(fig2a, True, FadingModel.rayleigh(0.01), cfg, rng,
                                   100_000)
        _, n1 = sfg_mean_counts(fig2a)
        kmax = 120
        k = np.arange(kmax)
        pmf = np.exp(k * math.log(n1) - (k + 1) * math.log(n1 + 1))
        observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1).astype(float)
        expected = np.append(pmf, 1 - pmf.sum()) * len(counts)
        while expected[-1] < 5:
            expected[-2] += expected[-1]
            observed[-2] += observed[-1]
            expected, observed = expected[:-1], observed[:-1]
        chi2 = ((observed - expected) ** 2 / expected).sum()
        assert sps.chi2.sf(chi2, len(expected) - 1) > 0.01

    def test_count_model_agreement_at_large_m(self):
        # the sampler's sum of 1e6 geometrics vs numpy's Poisson limit, via
        # empirical pmfs
        p = SystemParams(M=1e6, N_S=1e-4, N_B=20.0, kappa_bar=0.01, epsilon=0.01)
        n0, _ = sfg_mean_counts(p)
        draws = 10 ** 6
        nb = sample_sfg_counts(p, False, None, McConfig(trials=100, seed=3),
                               np.random.default_rng(3), draws)
        po = np.random.default_rng(4).poisson(n0, draws)
        top = max(nb.max(), po.max()) + 1
        pmf_nb = np.bincount(nb, minlength=top) / draws
        pmf_po = np.bincount(po, minlength=top) / draws
        assert 0.5 * np.abs(pmf_nb - pmf_po).sum() < 1e-3

    def test_thermal_floor_adds_noise(self):
        # large-floor point so the N0 offset dominates sampling noise
        p = SystemParams(M=1e3, N_S=0.5, N_B=20.0, kappa_bar=0.01, epsilon=0.01)
        n0, _ = sfg_mean_counts(p)
        model = FadingModel.deterministic(0.01, 0.0)
        cfg_on = McConfig(trials=100, seed=5, floor_model=FloorModel.WITH_THERMAL_FLOOR)
        cfg_off = McConfig(trials=100, seed=5, floor_model=FloorModel.IDEAL)
        on = sample_sfg_counts(p, True, model, cfg_on, np.random.default_rng(6), 5000)
        off = sample_sfg_counts(p, True, model, cfg_off, np.random.default_rng(6), 5000)
        assert np.mean(on) - np.mean(off) == pytest.approx(n0, abs=0.15)


class TestCiEnvelope:
    def test_null_hypothesis_unit_mean(self, fig2a):
        rng = np.random.default_rng(21)
        r = sample_ci_envelopes(fig2a, False, None, rng, 20000)
        assert abs(r.mean() - 1.0) < 3 / math.sqrt(20000)

    def test_marginal_mean_under_target(self, fig2a):
        rng = np.random.default_rng(22)
        r = sample_ci_envelopes(fig2a, True, FadingModel.rayleigh(0.01), rng, 20000)
        x = derived_x(fig2a)
        assert abs(r.mean() - (1 + x)) < 3 * (1 + x) / math.sqrt(20000)

    def test_marginal_is_exponential(self, fig2a):
        rng = np.random.default_rng(23)
        r = sample_ci_envelopes(fig2a, True, FadingModel.rayleigh(0.01), rng, 20000)
        x = derived_x(fig2a)
        assert sps.kstest(r, "expon", args=(0, 1 + x)).pvalue > 0.01


class TestOperatingPointEstimates:
    def test_sfg_covers_analytic_vertex(self, fig2a):
        cfg = McConfig(trials=100_000, seed=20260810)
        p_f, p_d = estimate_operating_point(Receiver.SFG, fig2a, 0, cfg)
        assert p_f.covers(SFG_VERTEX_A[0])
        assert p_d.covers(SFG_VERTEX_A[1])

    def test_ci_covers_analytic_optimum(self, fig2a):
        cfg = McConfig(trials=100_000, seed=20260810)
        threshold = -math.log(ci_bayes(fig2a).threshold)
        p_f, p_d = estimate_operating_point(Receiver.CI, fig2a, threshold, cfg)
        assert p_f.covers(CI_POINT_FIG2[0])
        assert p_d.covers(CI_POINT_FIG2[1])

    def test_minimum_trials_interval_sanity(self, fig2a):
        cfg = McConfig(trials=100, seed=7)
        p_f, p_d = estimate_operating_point(Receiver.SFG, fig2a, 0, cfg)
        for est in (p_f, p_d):
            assert 0.0 <= est.ci_low <= est.value <= est.ci_high <= 1.0
            assert est.trials == 100

    def test_bayes_error_covers_analytic(self, fig2a):
        cfg = McConfig(trials=100_000, seed=20260810)
        assert estimate_bayes_error(Receiver.SFG, fig2a, cfg).covers(SFG_PE_A)
        assert estimate_bayes_error(Receiver.CI, fig2a, cfg).covers(CI_PE_FIG2)

    def test_bayes_error_degenerate_returns_prior(self):
        p = SystemParams(M=1.0, N_S=1e-4, N_B=20.0, kappa_bar=0.01, epsilon=0.01,
                         pi0=0.7)
        est = estimate_bayes_error(Receiver.SFG, p, McConfig(trials=100, seed=1))
        assert est.value == pytest.approx(0.3)

    def test_reseeding_is_bit_identical(self, fig2a):
        cfg = McConfig(trials=5000, seed=99)
        a = estimate_bayes_error(Receiver.SFG, fig2a, cfg)
        b = estimate_bayes_error(Receiver.SFG, fig2a, cfg)
        assert a == b
        c = estimate_bayes_error(Receiver.SFG, fig2a, McConfig(trials=5000, seed=100))
        assert c != a

    def test_wilson_coverage_rate(self, fig2b):
        # interval calibration: each CI covers its analytic value in >= 93 of
        # 100 independent repetitions
        target = sfg_bayes(fig2b)
        hits_f = hits_d = 0
        for rep in range(100):
            cfg = McConfig(trials=2000, seed=1000 + rep)
            p_f, p_d = estimate_operating_point(Receiver.SFG, fig2b, target.threshold, cfg)
            hits_f += p_f.covers(target.p_false_alarm)
            hits_d += p_d.covers(target.p_detect)
        assert hits_f >= 93
        assert hits_d >= 93


# Frozen McEstimate (value, ci_low, ci_high) of P_F, P_D and the Bayes error at
# seed 20261018, 1e4 trials, per (preset, receiver, floor model): any change to
# the random streams or to the order of draws shows here. fig2a's SFG noise
# counts come from the Poisson limit (M > 1e7), fig2b's from the exact
# negative binomial.
PINNED_ESTIMATES = {
    ("fig2a", Receiver.SFG, FloorModel.IDEAL): (
        (0.0002, 5.484892732085772e-05, 0.0007289958440074673),
        (0.9368, 0.9318612058051992, 0.9414033332181777),
        (0.03170000000000002, 0.02914593141758373, 0.03425406858241631),
    ),
    ("fig2a", Receiver.SFG, FloorModel.WITH_THERMAL_FLOOR): (
        (0.0002, 5.484892732085772e-05, 0.0007289958440074673),
        (0.9369, 0.9319646833316131, 0.9414997788920896),
        (0.031650000000000025, 0.029097689380709252, 0.0342023106192908),
    ),
    ("fig2a", Receiver.CI, FloorModel.IDEAL): (
        (0.0514, 0.04724182497055032, 0.05590269836762071),
        (0.8335, 0.8260707838854023, 0.8406730892013564),
        (0.10894999999999999, 0.10313420532174387, 0.11476579467825611),
    ),
    ("fig2b", Receiver.SFG, FloorModel.IDEAL): (
        (0.0228, 0.020052523375582592, 0.025913964669391148),
        (0.9368, 0.9318612058051992, 0.9414033332181777),
        (0.04300000000000002, 0.03914910782330324, 0.046850892176696794),
    ),
    ("fig2b", Receiver.SFG, FloorModel.WITH_THERMAL_FLOOR): (
        (0.0228, 0.020052523375582592, 0.025913964669391148),
        (0.9386, 0.9337243278086323, 0.9431388288206101),
        (0.042100000000000005, 0.03828101442355344, 0.045918985576446573),
    ),
    ("fig2b", Receiver.CI, FloorModel.IDEAL): (
        (0.0514, 0.04724182497055032, 0.05590269836762071),
        (0.8335, 0.8260707838854023, 0.8406730892013564),
        (0.10894999999999999, 0.10313420532174387, 0.11476579467825611),
    ),
}


class TestPinnedEstimates:
    @pytest.mark.parametrize("key", list(PINNED_ESTIMATES), ids=lambda k: "-".join(
        getattr(part, "value", part) for part in k))
    def test_estimates_are_bit_identical(self, key):
        preset, receiver, floor_model = key
        params = SystemParams(**{"fig2a": FIG2A, "fig2b": FIG2B}[preset])
        cfg = McConfig(trials=10_000, seed=20261018, floor_model=floor_model)
        if receiver is Receiver.SFG:
            threshold = sfg_bayes(params).threshold
        else:
            threshold = -math.log(ci_bayes(params).threshold)
        got = (*estimate_operating_point(receiver, params, threshold, cfg),
               estimate_bayes_error(receiver, params, cfg))
        assert got == tuple(McEstimate(*e, trials=10_000) for e in PINNED_ESTIMATES[key])

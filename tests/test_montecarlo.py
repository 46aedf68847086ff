import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from speckleqi import (
    InvalidParameter,
    McConfig,
    McEstimate,
    Receiver,
    SystemParams,
    bayes_threshold,
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
from speckleqi import montecarlo
from speckleqi.montecarlo import (
    _BLOCK,
    _phase_streams,
    _sample,
    _sample_kappa,
    _skip_normals,
    _stream,
)
from speckleqi.params import FIG2A, FIG2B


def reference_sample_kappa(kappa_bar, rng, size):
    """Reference Rayleigh fading draws: the allocating expression the in-place
    sampler replaced."""
    return -kappa_bar * np.log1p(-rng.random(size))


def reference_sfg_counts(params, present, rng, size):
    if not present:
        n0, _ = sfg_mean_counts(params)
        if params.M <= 1e7:
            return rng.negative_binomial(params.M, 1.0 / (1.0 + n0 / params.M), size)
        return rng.poisson(n0, size)
    kappa = reference_sample_kappa(params.kappa_bar, rng, size)
    return rng.poisson((1.0 - params.epsilon) * params.M * kappa * params.N_S / params.N_B)


def reference_ci_envelopes(params, present, rng, size):
    if not present:
        return rng.exponential(1.0, size)
    kappa = reference_sample_kappa(params.kappa_bar, rng, size)
    phase = 2.0 * np.pi * rng.random(size)
    a = np.sqrt(kappa * derived_x(params) / params.kappa_bar)
    g1 = rng.normal(0.0, math.sqrt(0.5), size)
    g2 = rng.normal(0.0, math.sqrt(0.5), size)
    return (g1 + a * np.cos(phase)) ** 2 + (g2 + a * np.sin(phase)) ** 2


class TestInPlaceSamplers:
    @pytest.mark.parametrize("kappa_bar", [0.01, 0.5])
    def test_kappa_matches_reference(self, kappa_bar):
        got = _sample_kappa(kappa_bar, np.random.default_rng(31), 10_007)
        assert np.array_equal(got, reference_sample_kappa(kappa_bar, np.random.default_rng(31),
                                                          10_007))

    # fig2a's SFG noise counts are Poisson (M > 1e7), fig2b's negative binomial
    @pytest.mark.parametrize("preset", ["fig2a", "fig2b"])
    @pytest.mark.parametrize("present", [False, True], ids=["h0", "h1"])
    @pytest.mark.parametrize("receiver, sampler, reference", [
        (Receiver.SFG, sample_sfg_counts, reference_sfg_counts),
        (Receiver.CI, sample_ci_envelopes, reference_ci_envelopes)], ids=["sfg", "ci"])
    def test_sampler_matches_reference(self, receiver, sampler, reference, present, preset):
        params = SystemParams(**{"fig2a": FIG2A, "fig2b": FIG2B}[preset])
        got, want = (f(params, present, _stream(20261018, receiver, int(present)), 10_007)
                     for f in (sampler, reference))
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("trials", [200_000, 2_000_000])
    @pytest.mark.parametrize("preset", ["fig2a", "fig2b"])
    @pytest.mark.parametrize("receiver", list(Receiver), ids=lambda r: r.value)
    def test_operating_point_working_memory(self, receiver, preset, trials):
        # the whole-array samplers peaked at 16 (SFG) and 24 (CI) B per trial,
        # 30.5 and 45.8 MiB at 2e6 trials; the streamed estimator holds a few blocks
        params = SystemParams(**{"fig2a": FIG2A, "fig2b": FIG2B}[preset])
        tracemalloc.start()
        try:
            estimate_operating_point(receiver, params, 0, McConfig(trials=trials))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20


def consumed(seed, receiver, hypothesis, uniforms, normals=0):
    """The hypothesis's stream after drawing uniforms uniforms, then normals normals."""
    rng = _stream(seed, receiver, hypothesis)
    rng.random(uniforms)
    rng.standard_normal(normals)
    return rng


class TestStreamedEstimator:
    @pytest.mark.parametrize("trials", [*range(10), _BLOCK - 1, _BLOCK + 1, 2 * _BLOCK - 1,
                                        2 * _BLOCK + 1, 2 * 10_007])
    def test_phase_streams_start_where_the_phase_starts(self, trials):
        sfg = _phase_streams(5, Receiver.SFG, 1, trials)
        ci = _phase_streams(5, Receiver.CI, 1, trials)
        _skip_normals(ci[3], trials)  # g2 starts where g1's normals end
        want = [consumed(5, Receiver.SFG, 1, 0), consumed(5, Receiver.SFG, 1, trials),
                consumed(5, Receiver.CI, 1, 0), consumed(5, Receiver.CI, 1, trials),
                consumed(5, Receiver.CI, 1, 2 * trials),
                consumed(5, Receiver.CI, 1, 2 * trials, trials)]
        assert len(sfg) == 2 and len(ci) == 4
        for got, ref in zip(sfg + ci, want):
            assert np.array_equal(got.random(9), ref.random(9))
        for receiver in Receiver:
            (h0,) = _phase_streams(5, receiver, 0, trials)
            assert np.array_equal(h0.random(9), consumed(5, receiver, 0, 0).random(9))

    @pytest.mark.parametrize("preset", ["fig2a", "fig2b"])
    @pytest.mark.parametrize("receiver, reference", [
        (Receiver.SFG, reference_sfg_counts), (Receiver.CI, reference_ci_envelopes)],
        ids=["sfg", "ci"])
    def test_blocked_counts_match_one_shot_arrays(self, receiver, reference, preset):
        # three whole blocks and a partial one, against one array per hypothesis
        params = SystemParams(**{"fig2a": FIG2A, "fig2b": FIG2B}[preset])
        trials = 3 * _BLOCK + 5
        threshold = bayes_threshold(receiver, params)
        got = estimate_operating_point(receiver, params, threshold, McConfig(trials, seed=8))
        for hypothesis, estimate in enumerate(got):
            draws = reference(params, hypothesis == 1, _stream(8, receiver, hypothesis), trials)
            assert estimate == wilson_interval(int(np.count_nonzero(draws > threshold)), trials)


def serial_estimates(receiver, params, threshold, seed, trials):
    """(P_F, P_D) on one thread: each hypothesis's phase generators drawn in order,
    10,007 trials at a time."""
    estimates = []
    for hypothesis in (0, 1):
        rngs = _phase_streams(seed, receiver, hypothesis, trials)
        if receiver is Receiver.CI and hypothesis == 1:
            _skip_normals(rngs[3], trials)
        declared = sum(int(np.count_nonzero(
            _sample(receiver, params, hypothesis == 1, rngs, min(10_007, trials - start))
            > threshold))
            for start in range(0, trials, 10_007))
        estimates.append(wilson_interval(declared, trials))
    return tuple(estimates)


class Planted(Exception):
    pass


def fail_on_call(fn, n):
    """fn, raising Planted on its n-th call."""
    calls = []

    def wrapper(*args):
        calls.append(None)
        if len(calls) == n:
            raise Planted(f"planted fault in {fn.__name__}")
        return fn(*args)
    return wrapper


def within(timeout, fn):
    """fn() run on a thread joined within timeout seconds: its result or exception."""
    box = {}

    def run():
        try:
            box["result"] = fn()
        except BaseException as exc:  # handed to the test
            box["error"] = exc
    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"no result within {timeout} s"
    if "error" in box:
        raise box["error"]
    return box["result"]


class TestHelperThreads:
    # _BLOCK is the last count run in the caller alone, 2 * _BLOCK the first with no speckle
    # block left to submit after the first two
    @pytest.mark.parametrize("trials", [100, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK,
                                        3 * _BLOCK + 5, 200_003])
    @pytest.mark.parametrize("preset", ["fig2a", "fig2b"])
    @pytest.mark.parametrize("receiver", list(Receiver), ids=lambda r: r.value)
    def test_estimates_match_a_single_thread_reference(self, receiver, preset, trials):
        params = SystemParams(**{"fig2a": FIG2A, "fig2b": FIG2B}[preset])
        threshold = bayes_threshold(receiver, params)
        got = estimate_operating_point(receiver, params, threshold, McConfig(trials, seed=21))
        assert got == serial_estimates(receiver, params, threshold, 21, trials)

    @pytest.mark.parametrize("stage", ["speckle", "absent", "conditional"])
    @pytest.mark.parametrize("receiver", list(Receiver), ids=lambda r: r.value)
    def test_fault_on_any_stage_raises_in_the_caller(self, monkeypatch, receiver, stage):
        law, speckle, given, split = montecarlo._STAGES[receiver]
        if stage == "speckle":
            speckle = fail_on_call(speckle, 3)
        elif stage == "conditional":
            given = fail_on_call(given, 2)
        else:
            absent_law = law

            def law(params):  # the estimate's h=0 sampler, failing on its second block
                return fail_on_call(absent_law(params), 2)
        monkeypatch.setitem(montecarlo._STAGES, receiver, (law, speckle, given, split))
        params = SystemParams(**FIG2B)
        before = threading.active_count()
        with pytest.raises(Planted):
            within(60, lambda: estimate_operating_point(receiver, params, 0,
                                                        McConfig(8 * _BLOCK, seed=3)))
        assert threading.active_count() == before

    def test_a_fault_stops_the_absent_count_promptly(self, monkeypatch):
        # the absent count stops within a few blocks of the fault (3 to 9 of 400 seen). CI
        # cannot show this: its g2-start pass runs before its first conditional stage, long
        # enough for the absent count to finish all 400 blocks
        law, speckle, given, split = montecarlo._STAGES[Receiver.SFG]
        blocks = []

        def counted_law(params):
            sample = law(params)

            def counted(rng, size):
                blocks.append(size)
                return sample(rng, size)
            return counted
        monkeypatch.setitem(montecarlo._STAGES, Receiver.SFG,
                            (counted_law, speckle, fail_on_call(given, 2), split))
        before = threading.active_count()
        with pytest.raises(Planted):
            within(60, lambda: estimate_operating_point(Receiver.SFG, SystemParams(**FIG2B), 0,
                                                        McConfig(400 * _BLOCK, seed=3)))
        assert threading.active_count() == before
        assert len(blocks) < 200

    def test_sfg_absent_law_is_computed_once_per_estimate(self, monkeypatch):
        # it was computed once per block: analytic.calls tracked the block size
        calls = []

        def counted(params):
            calls.append(None)
            return sfg_mean_counts(params)
        monkeypatch.setattr(montecarlo.analytic, "sfg_mean_counts", counted)
        estimate_operating_point(Receiver.SFG, SystemParams(**FIG2B), 0,
                                 McConfig(4 * _BLOCK, seed=3))
        assert len(calls) == 1

    def test_concurrent_callers_get_the_serial_estimates(self):
        # three callers with two helpers each, on two cores and a short switch interval
        cases = [(receiver, SystemParams(**preset)) for receiver in Receiver
                 for preset in (FIG2A, FIG2B)]
        trials = 3 * _BLOCK + 5
        want = [serial_estimates(r, p, bayes_threshold(r, p), 5, trials) for r, p in cases]
        got = [None] * 3
        start = threading.Barrier(len(got), timeout=60)

        def estimate_all(caller):
            start.wait()
            order = [(caller + i) % len(cases) for i in range(len(cases))]
            estimates = {i: estimate_operating_point(cases[i][0], cases[i][1],
                                                     bayes_threshold(*cases[i]),
                                                     McConfig(trials, seed=5)) for i in order}
            got[caller] = [estimates[i] for i in range(len(cases))]
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=estimate_all, args=(k,)) for k in range(len(got))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert threading.active_count() == before
        assert got == [want] * len(got)


class TestConfigAndIntervals:
    def test_minimum_trials(self):
        with pytest.raises(ValueError):
            McConfig(trials=50)

    @pytest.mark.parametrize("trials, seed, field", [
        (1000.5, 0, "trials"), (math.nan, 0, "trials"), (1000, -1, "seed"), (1000, 1.5, "seed"),
        (True, 0, "trials"), (1000, True, "seed"), (1000, False, "seed")])
    def test_fields_rejected_by_name(self, trials, seed, field):
        with pytest.raises(InvalidParameter, match=f"^{field}: "):
            McConfig(trials=trials, seed=seed)

    def test_numpy_integers_accepted(self):
        assert McConfig(trials=np.int64(1000), seed=np.uint32(3)) == McConfig(1000, 3)

    @given(successes=st.integers(0, 500), trials=st.integers(1, 500))
    @settings(max_examples=100, deadline=None)
    def test_wilson_interval_properties(self, successes, trials):
        est = wilson_interval(min(successes, trials), trials)
        assert 0.0 <= est.ci_low <= est.value <= est.ci_high <= 1.0 and est.trials == trials

    @pytest.mark.parametrize("successes, trials, field", [
        (5, 0, "trials"), (3, 10.0, "trials"), (-1, 10, "successes"), (11, 10, "successes"),
        (3.5, 10, "successes"), (True, 10, "successes")])
    def test_wilson_rejects_bad_counts_by_name(self, successes, trials, field):
        # (5, 0) raised a bare ZeroDivisionError, (-1, 10) and (11, 10) a math domain
        # error, and (3.5, 10) returned an estimate of 0.35
        with pytest.raises(InvalidParameter, match=f"^{field}: "):
            wilson_interval(successes, trials)

    def test_wilson_known_value(self):
        # 50/100 at z = 1.96: the textbook interval (0.404, 0.596)
        est = wilson_interval(50, 100)
        assert est.ci_low == pytest.approx(0.40383, abs=1e-4)
        assert est.ci_high == pytest.approx(0.59617, abs=1e-4)


class TestFadingSampler:
    def test_rayleigh_moment(self):
        rng = np.random.default_rng(11)
        kappa = _sample_kappa(0.01, rng, 10 ** 6)
        # kappa ~ Exponential(0.01): var = kappa_bar^2
        assert abs(kappa.mean() - 0.01) < 3 * 0.01 / 1e3

    def test_rayleigh_ks_test(self):
        rng = np.random.default_rng(12)
        kappa = _sample_kappa(0.01, rng, 10 ** 6)
        assert sps.kstest(kappa, "expon", args=(0, 0.01)).pvalue > 0.01

    @pytest.mark.parametrize("kappa_bar", [0.5, 0.01])
    def test_sfg_kappa_bar_comes_from_params(self, kappa_bar):
        # the Rayleigh-mixed Poisson counts are geometric with mean N1, so
        # their mean's standard error is sqrt(N1 (N1 + 1) / draws)
        params = SystemParams(**{**FIG2A, "kappa_bar": kappa_bar})
        draws = 20_000
        counts = sample_sfg_counts(params, True, np.random.default_rng(15), draws)
        _, n1 = sfg_mean_counts(params)
        assert abs(counts.mean() - n1) < 5 * math.sqrt(n1 * (n1 + 1) / draws)


class TestSfgCounts:
    def test_vanishing_brightness_gives_zero(self, rng):
        p = SystemParams(M=1e4, N_S=1e-12, N_B=20.0, kappa_bar=0.01)
        for present in (False, True):
            counts = sample_sfg_counts(p, present, rng, 200)
            assert np.all(counts == 0)

    def test_h1_counts_are_bose_einstein(self, fig2a):
        # the load-bearing reduction: Rayleigh-mixed Poisson = thermal counts
        cfg = McConfig(trials=100_000, seed=20260810)
        rng = _stream(cfg.seed, Receiver.SFG, 1)
        counts = sample_sfg_counts(fig2a, True, rng, 100_000)
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
        nb = sample_sfg_counts(p, False, np.random.default_rng(3), draws)
        po = np.random.default_rng(4).poisson(n0, draws)
        top = max(nb.max(), po.max()) + 1
        pmf_nb = np.bincount(nb, minlength=top) / draws
        pmf_po = np.bincount(po, minlength=top) / draws
        assert 0.5 * np.abs(pmf_nb - pmf_po).sum() < 1e-3


class TestCiEnvelope:
    def test_null_hypothesis_unit_mean(self, fig2a):
        rng = np.random.default_rng(21)
        r = sample_ci_envelopes(fig2a, False, rng, 20000)
        assert abs(r.mean() - 1.0) < 3 / math.sqrt(20000)

    def test_marginal_mean_under_target(self, fig2a):
        rng = np.random.default_rng(22)
        r = sample_ci_envelopes(fig2a, True, rng, 20000)
        x = derived_x(fig2a)
        assert abs(r.mean() - (1 + x)) < 3 * (1 + x) / math.sqrt(20000)

    def test_marginal_is_exponential(self, fig2a):
        rng = np.random.default_rng(23)
        r = sample_ci_envelopes(fig2a, True, rng, 20000)
        x = derived_x(fig2a)
        assert sps.kstest(r, "expon", args=(0, 1 + x)).pvalue > 0.01


class TestOperatingPointEstimates:
    @pytest.mark.parametrize("receiver", list(Receiver))
    def test_nan_threshold_rejected(self, fig2a, receiver):
        with pytest.raises(InvalidParameter, match="^threshold: "):
            estimate_operating_point(receiver, fig2a, math.nan, McConfig(trials=100))

    @pytest.mark.parametrize("receiver", list(Receiver))
    @pytest.mark.parametrize("threshold", ["3", None, 1 + 0j, True, False, np.True_])
    def test_non_real_threshold_rejected(self, fig2a, receiver, threshold):
        # '3' failed in math.isnan with a bare TypeError; True acted as 1 and False as 0
        with pytest.raises(InvalidParameter, match="^threshold: "):
            estimate_operating_point(receiver, fig2a, threshold, McConfig(trials=100))

    @pytest.mark.parametrize("receiver", list(Receiver))
    @pytest.mark.parametrize("threshold", [10 ** 400, -10 ** 400])
    def test_threshold_beyond_float_range_rejected(self, fig2a, receiver, threshold):
        # math.isnan raised a bare OverflowError
        with pytest.raises(InvalidParameter, match="^threshold: must lie in the float range"):
            estimate_operating_point(receiver, fig2a, threshold, McConfig(trials=100))

    @pytest.mark.parametrize("threshold", [0.5, -0.5, 2.25, np.float64(1e-9)])
    def test_fractional_sfg_threshold_rejected(self, fig2a, threshold):
        # 0.5 was floored and acted as 0
        with pytest.raises(InvalidParameter, match="^threshold: "):
            estimate_operating_point(Receiver.SFG, fig2a, threshold, McConfig(trials=100))

    @pytest.mark.parametrize("threshold", [-1, 3.0, np.int64(2), -math.inf])
    def test_integer_or_infinite_sfg_threshold_accepted(self, fig2a, threshold):
        cfg = McConfig(trials=1000, seed=4)
        p_f, p_d = estimate_operating_point(Receiver.SFG, fig2a, threshold, cfg)
        counts = [sample_sfg_counts(fig2a, h == 1, _stream(4, Receiver.SFG, h), 1000)
                  for h in (0, 1)]
        assert (p_f.value, p_d.value) == tuple(np.count_nonzero(c > threshold) / 1000
                                               for c in counts)

    @pytest.mark.parametrize("receiver", list(Receiver))
    def test_infinite_threshold_never_declares(self, fig2a, receiver):
        p_f, p_d = estimate_operating_point(receiver, fig2a, math.inf, McConfig(trials=100))
        assert p_f.value == p_d.value == 0.0

    @pytest.mark.parametrize("preset", [FIG2A, FIG2B], ids=["fig2a", "fig2b"])
    def test_bayes_threshold_is_the_closed_form_test(self, preset):
        # the rule by hand: SFG's count threshold as it is, CI's envelope threshold -ln P_F*
        params = SystemParams(**preset)
        assert bayes_threshold(Receiver.SFG, params) == sfg_bayes(params).threshold
        assert bayes_threshold(Receiver.CI, params) == -math.log(ci_bayes(params).threshold)

    @pytest.mark.parametrize("pi0", [0.6, 1.0])
    def test_bayes_threshold_where_the_priors_decide(self, pi0):
        # x = 5e-6: P_F* is 0.0 and the SFG test is degenerate (N1 < N0); -math.log(P_F*)
        # raised a math domain error here. Never declaring leaves the error pi1 on both
        params = SystemParams(M=100.0, N_S=1e-4, N_B=20.0, kappa_bar=0.01, pi0=pi0)
        assert ci_bayes(params).threshold == 0.0
        assert bayes_threshold(Receiver.SFG, params) is None
        assert bayes_threshold(Receiver.CI, params) == math.inf
        for receiver in Receiver:
            assert estimate_bayes_error(receiver, params, McConfig(100, seed=1)).value == params.pi1

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
# seed 20261018, 1e4 trials, per (preset, receiver): any change to the random
# streams or to the order of draws shows here. fig2a's SFG noise counts come
# from the Poisson limit (M > 1e7), fig2b's from the exact negative binomial.
# The ids end in "ideal": the samplers simulate the idealized reduction, which
# neglects the thermal floor under h=1.
PINNED_ESTIMATES = {
    ("fig2a", Receiver.SFG): (
        (0.0002, 5.484892732085772e-05, 0.0007289958440074673),
        (0.9368, 0.9318612058051992, 0.9414033332181777),
        (0.03170000000000002, 0.02914593141758373, 0.03425406858241631),
    ),
    ("fig2a", Receiver.CI): (
        (0.0514, 0.04724182497055032, 0.05590269836762071),
        (0.8335, 0.8260707838854023, 0.8406730892013564),
        (0.10894999999999999, 0.10313420532174387, 0.11476579467825611),
    ),
    ("fig2b", Receiver.SFG): (
        (0.0228, 0.020052523375582592, 0.025913964669391148),
        (0.9368, 0.9318612058051992, 0.9414033332181777),
        (0.04300000000000002, 0.03914910782330324, 0.046850892176696794),
    ),
    ("fig2b", Receiver.CI): (
        (0.0514, 0.04724182497055032, 0.05590269836762071),
        (0.8335, 0.8260707838854023, 0.8406730892013564),
        (0.10894999999999999, 0.10313420532174387, 0.11476579467825611),
    ),
}


class TestPinnedEstimates:
    @pytest.mark.parametrize("key", list(PINNED_ESTIMATES),
                             ids=lambda k: f"{k[0]}-{k[1].value}-ideal")
    def test_estimates_are_bit_identical(self, key):
        preset, receiver = key
        params = SystemParams(**{"fig2a": FIG2A, "fig2b": FIG2B}[preset])
        cfg = McConfig(trials=10_000, seed=20261018)
        got = (*estimate_operating_point(receiver, params, bayes_threshold(receiver, params), cfg),
               estimate_bayes_error(receiver, params, cfg))
        assert got == tuple(McEstimate(*e, trials=10_000) for e in PINNED_ESTIMATES[key])

"""Acceptance suite: the library's exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s or -rA to see
them) and enforces the criterion's runtime budget. Expected constants are
frozen from independent oracles; see the module tests for their derivations.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats as sps

from speckleqi import (
    McConfig,
    Receiver,
    SystemParams,
    check_helstrom_concavity,
    ci_bayes,
    ci_detection_probability,
    ci_snr,
    derived_x,
    dim_for_tail,
    estimate_bayes_error,
    estimate_operating_point,
    fading_exponent_trend,
    helstrom,
    hypothesis_state,
    opa_default_gain,
    opa_snr_fading,
    opa_snr_known,
    qcb_exponent_at_zero_return,
    return_idler_covariance,
    sample_sfg_counts,
    sfg_bayes,
    sfg_bayes_limit,
    sfg_mean_counts,
    sfg_roc,
    thermal_state,
    threshold_test_error,
    wigner_covariance,
)
from speckleqi.cli import main as cli_main
from speckleqi.montecarlo import _stream
from speckleqi.params import FIG2A, FIG2B

SURROGATE = dict(M=100.0, N_S=0.1, N_B=0.3, kappa_bar=0.5)


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s > {budget_s}s"
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.1f}s)")


def test_criterion_1_roc_dominance_and_vertices():
    with criterion(1, "SFG ROC dominates CI at low P_F with the stated vertices", 1.0):
        for preset, vertex in ((FIG2A, (2.30e-4, 0.9400)), (FIG2B, (2.25e-2, 0.9400))):
            params = SystemParams(**preset)
            curve = sfg_roc(params)
            i = int(np.where(curve.thresholds == 0)[0][0])
            assert abs(curve.points[i, 0] / vertex[0] - 1.0) <= 1e-3
            assert abs(curve.points[i, 1] / vertex[1] - 1.0) <= 1e-3
            # strict dominance on the vertex grid and on a dense envelope grid
            for p_f, p_d in curve.points:
                if 0.0 < p_f <= 1e-2:
                    assert p_d > ci_detection_probability(params, p_f)
            grid = np.logspace(-10, -2, 200)
            envelope = curve.detection_probability(grid)
            ci = grid ** (1.0 / (1.0 + derived_x(params)))
            assert np.all(envelope > ci)


def test_criterion_2_log_factor_gap():
    with criterion(2, "CI/SFG error ratio within 25% of ln(x) for x in {1e2,1e3,1e4}", 1.0):
        for x in (1e2, 1e3, 1e4):
            params = SystemParams(M=x * 20.0 / (0.01 * 1e-3), N_S=1e-3, N_B=20.0,
                                  kappa_bar=0.01, epsilon=0.01)
            ratio = ci_bayes(params).p_error / sfg_bayes_limit(params)
            assert abs(ratio / math.log(x) - 1.0) <= 0.25


def test_criterion_3_opa_collapse():
    with criterion(3, "OPA SNR collapses under fading at the first preset", 1.0):
        params = SystemParams(**FIG2A)
        opa = opa_default_gain(params)
        fading = opa_snr_fading(params, opa)
        assert fading / ci_snr(params) < 1e-8
        assert opa_snr_known(params, params.kappa_bar) / fading > 1e10


def test_criterion_4_oracle_weld():
    with criterion(4, "Fock-space Helstrom equals the analytic threshold error", 30.0):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n1 = rng.uniform(0.5, 5.0)
            n0 = rng.uniform(0.0, 0.9 * n1)
            dim = dim_for_tail(max(n0, n1), 1e-12)
            rho0 = thermal_state(n0, dim, trace_deficit_tol=1e-11)
            rho1 = thermal_state(n1, dim, trace_deficit_tol=1e-11)
            exact = helstrom(rho0, rho1, 0.5)
            assert abs(exact - threshold_test_error(n0, n1, 0.5)) <= 1e-8


def test_criterion_5_covariance_consistency():
    with criterion(5, "return-channel moments match the covariance model to 1e-6", 60.0):
        params = SystemParams(M=1e6, N_S=0.1, N_B=0.5, kappa_bar=0.01)
        for kappa, phi in ((0.3, math.pi / 4), (0.0, 0.0)):  # target present, absent
            state = hypothesis_state(params, kappa, phi, 12)
            means, cov = wigner_covariance(state)
            ref = return_idler_covariance(params.N_S, params.N_B, kappa, phi)
            assert np.abs(means).max() <= 1e-6
            assert np.abs(cov - ref).max() <= 1e-6


def test_criterion_6_helstrom_concavity_trials():
    with criterion(6, "1000 random mixture trials show no concavity violation", 60.0):
        # no violation: every trial's slack is >= -1e-9
        worst = min(check_helstrom_concavity(trials=trials, dim=dim, mixture_size=4, seed=seed)
                    for dim, trials, seed in ((2, 300, 1), (3, 300, 2), (4, 400, 3)))
        assert worst >= -1e-9


def test_criterion_7_fading_exponent_phenomenon():
    with criterion(7, "per-copy exponents fall under fading, stay flat without", 30.0):
        params = SystemParams(**SURROGATE)
        fading = fading_exponent_trend(params, [1, 2, 3], dim=4, nodes=(16, 33))
        estimates = [p.helstrom_exponent for p in fading]
        assert estimates[0] > estimates[1] > estimates[2]
        contrast = fading_exponent_trend(params, [1, 2, 3], dim=4, nodes=None)
        rates = [p.chernoff_exponent for p in contrast]
        assert (max(rates) - min(rates)) / max(rates) < 0.10
        assert qcb_exponent_at_zero_return(params, 4) < 1e-8


def test_criterion_8_monte_carlo_coverage():
    with criterion(8, "1e5-trial Wilson intervals cover the analytic values", 120.0):
        config = McConfig(trials=100_000, seed=20260810)
        for preset in (FIG2A, FIG2B):
            params = SystemParams(**preset)
            sfg = sfg_bayes(params)
            p_f, p_d = estimate_operating_point(Receiver.SFG, params, sfg.threshold,
                                                config)
            assert p_f.covers(sfg.p_false_alarm) and p_d.covers(sfg.p_detect)
            assert estimate_bayes_error(Receiver.SFG, params, config).covers(sfg.p_error)
            ci = ci_bayes(params)
            p_f, p_d = estimate_operating_point(Receiver.CI, params,
                                                -math.log(ci.threshold), config)
            assert p_f.covers(ci.p_false_alarm) and p_d.covers(ci.p_detect)
            assert estimate_bayes_error(Receiver.CI, params, config).covers(ci.p_error)
            # target-present counts are Bose-Einstein(N1) at the 1% level
            rng = _stream(config.seed, Receiver.SFG, 1)
            counts = sample_sfg_counts(params, True, rng, config.trials)
            _, n1 = sfg_mean_counts(params)
            k = np.arange(120)
            pmf = np.exp(k * math.log(n1) - (k + 1) * math.log(n1 + 1))
            observed = np.bincount(np.minimum(counts, 120), minlength=121).astype(float)
            expected = np.append(pmf, 1.0 - pmf.sum()) * config.trials
            while expected[-1] < 5:
                expected[-2] += expected[-1]
                observed[-2] += observed[-1]
                expected, observed = expected[:-1], observed[:-1]
            chi2 = ((observed - expected) ** 2 / expected).sum()
            assert sps.chi2.sf(chi2, len(expected) - 1) > 0.01


def test_criterion_9_sweep_determinism(tmp_path):
    with criterion(9, "bayes-sweep emits byte-identical CSV across reruns", 5.0):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(["bayes-sweep", "--preset", "fig3a", "--out", str(a)]) == 0
        assert cli_main(["bayes-sweep", "--preset", "fig3a", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

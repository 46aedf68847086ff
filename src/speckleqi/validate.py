"""Cross-validation check suite welding the closed forms, the Fock-space
oracle, and the Monte Carlo estimators together.

Each check runs at desk scale and returns (measured, tolerance, passed);
the CLI `validate` subcommand serializes the collection as JSON and exits
nonzero when anything fails. The checks look up `fading_pdf` and
`sfg_mean_counts` in this module, so a test can plant a fault in either and
see the checks built on it fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import analytic, montecarlo, oracle
from ._golden import golden_section_min
from .analytic import sfg_mean_counts
from .params import (FIG2A, FIG2B, InvalidParameter, SystemParams, _require_integer, derived_x,
                     fading_pdf)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    description: str
    trials: int = None  # the trial count a randomized check ran

    def as_dict(self) -> dict:
        return asdict(self)


def _result(name: str, measured: float, tolerance: float, description: str,
            trials: int = None) -> CheckResult:
    return CheckResult(name=name, passed=bool(measured <= tolerance), measured=float(measured),
                       tolerance=float(tolerance), description=description, trials=trials)


# =============================================================================
# Individual checks
# =============================================================================

# Gauss-Legendre nodes for the pdf checks; a Rayleigh amplitude's support is
# cut at sqrt(40*kappa_bar), beyond which its tail weight is e^-40
_PDF_NODES = 96
_RAYLEIGH_CUT = 40.0


def _pdf_quadrature(kappa_bar: float, hi: float | None, weight) -> float:
    """Integral of weight(t) * fading_pdf(kappa_bar, t) over [0, hi]; hi=None
    is the Rayleigh support, cut where the tail is e^-_RAYLEIGH_CUT."""
    if hi is None:
        hi = math.sqrt(_RAYLEIGH_CUT * kappa_bar)
    ts, ws = (a.tolist() for a in oracle._gauss_legendre(_PDF_NODES, hi))
    return math.fsum(w * weight(t) * fading_pdf(kappa_bar, t) for t, w in zip(ts, ws))


def check_pdf_normalization() -> CheckResult:
    # mass 1 on the whole support, 1 - e^(-1/kappa_bar) on the oracle's range [0, 1]
    cases = [(0.01, None, 1.0), (0.3, None, 1.0),
             (0.01, 1.0, -math.expm1(-1.0 / 0.01)), (0.7, 1.0, -math.expm1(-1.0 / 0.7))]
    worst = max(abs(_pdf_quadrature(kb, hi, lambda t: 1.0) - mass) for kb, hi, mass in cases)
    return _result("fading-pdf-normalization", worst, 1e-10,
                   f"{_PDF_NODES}-node Gauss-Legendre integral of the Rayleigh amplitude pdf "
                   f"over its support (cut where the tail is e^-{_RAYLEIGH_CUT:g}) vs 1, and "
                   f"over the oracle's amplitude range [0, 1] vs 1 - e^(-1/kappa_bar)")


def check_mean_intensity() -> CheckResult:
    worst = 0.0
    for kb in (0.01, 0.2, 0.9):
        mean = _pdf_quadrature(kb, None, lambda t: t * t)
        worst = max(worst, abs(mean - kb))
    return _result("fading-mean-intensity", worst, 1e-10,
                   f"{_PDF_NODES}-node Gauss-Legendre mean of kappa = t^2 under Rayleigh "
                   f"fading (cut where the tail is e^-{_RAYLEIGH_CUT:g}) vs kappa_bar")


def check_derived_x_scaling(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        m, n_s, n_b = rng.uniform(1, 1e6), rng.uniform(1e-4, 1), rng.uniform(0.1, 50)
        c = rng.uniform(0.5, 3)
        base = derived_x(SystemParams(M=m, N_S=n_s, N_B=n_b, kappa_bar=0.5))
        up_m = derived_x(SystemParams(M=c * m, N_S=n_s, N_B=n_b, kappa_bar=0.5))
        up_s = derived_x(SystemParams(M=m, N_S=c * n_s, N_B=n_b, kappa_bar=0.5))
        dn_b = derived_x(SystemParams(M=m, N_S=n_s, N_B=c * n_b, kappa_bar=0.5))
        worst = max(worst,
                    abs(up_m / base - c) / c,
                    abs(up_s / base - c) / c,
                    abs(dn_b * c / base - 1.0))
    return _result("derived-x-scaling", worst, 1e-12,
                   "x linear in M and N_S, inverse-linear in N_B")


def check_sfg_limit_convergence() -> CheckResult:
    x = derived_x(SystemParams(**FIG2A))
    n_s = 1e-6
    params = SystemParams(M=x * 20.0 / (0.01 * n_s), N_S=n_s, N_B=20.0,
                          kappa_bar=0.01, epsilon=0.01)
    exact = analytic.sfg_bayes(params).p_error
    limit = analytic.sfg_bayes_limit(params)
    return _result("sfg-limit-convergence", abs(exact - limit) / limit, 1e-2,
                   "SFG error approaches its vanishing-brightness limit as N_S -> 0")


def _log_sweep(xs, **fixed) -> tuple[SystemParams, analytic.BayesSweep]:
    """Closed forms at the mode counts M = x * N_B / (kappa_bar * N_S) that put
    N_S = 1e-3, N_B = 20, kappa_bar = 0.01 at each x in xs."""
    ms = [x * 20.0 / (0.01 * 1e-3) for x in xs]
    params = SystemParams(M=ms[0], N_S=1e-3, N_B=20.0, kappa_bar=0.01, **fixed)
    return params, analytic.bayes_sweep(params, ms)


def check_ci_bayes_minimizer() -> CheckResult:
    xs = (0.5, 15.811388300841898, 1e2, 1e4)
    params, sweep = _log_sweep(xs)
    worst = 0.0
    for x, closed in zip(xs, sweep.ci_p_error.tolist()):

        def objective(p_f):
            return params.pi0 * p_f + params.pi1 * (1.0 - p_f ** (1.0 / (1.0 + x)))

        _, numeric = golden_section_min(objective, 1e-300, 1.0, tol=1e-14)
        worst = max(worst, abs(closed - numeric))
    return _result("ci-bayes-minimizer", worst, 1e-12,
                   "closed-form CI minimizer vs golden-section search")


def check_ci_vs_sfg_log_factor() -> CheckResult:
    xs = (1e2, 1e3, 1e4)
    _, sweep = _log_sweep(xs, epsilon=0.01)
    ratios = (sweep.ci_p_error / sweep.sfg_limit).tolist()
    worst = max(abs(ratio / math.log(x) - 1.0) for x, ratio in zip(xs, ratios))
    return _result("ci-vs-sfg-log-factor", worst, 0.25,
                   "CI/SFG error ratio tracks ln(x) at large x")


def check_sfg_dominates_ci(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    cases = [SystemParams(**FIG2A), SystemParams(**FIG2B)]
    for _ in range(20):
        x = 10 ** rng.uniform(math.log10(5.001), 4)
        n_s = 10 ** rng.uniform(-5, -1.3)
        n_b = rng.uniform(1.0, 50.0)
        eps = 10 ** rng.uniform(-3, -1.3)
        cases.append(SystemParams(M=x * n_b / (0.01 * n_s), N_S=n_s, N_B=n_b,
                                  kappa_bar=0.01, epsilon=eps))
    worst = -math.inf  # max (CI - SFG) P_D gap over vertices; negative means SFG wins
    for params in cases:
        curve = analytic.sfg_roc(params)
        for p_f, p_d in curve.points:
            if 0.0 < p_f <= 1e-2:
                worst = max(worst, analytic.ci_detection_probability(params, p_f) - p_d)
    return _result("sfg-dominates-ci", worst, 0.0,
                   "SFG envelope detection probability beats CI for P_F <= 1e-2, x > 5")


def check_opa_ordering(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = -math.inf  # max fading/known SNR ratio; must stay < 1
    for _ in range(50):
        params = SystemParams(M=10 ** rng.uniform(2, 10), N_S=10 ** rng.uniform(-5, -0.5),
                              N_B=rng.uniform(0.5, 50), kappa_bar=rng.uniform(0.001, 1.0))
        opa = analytic.opa_default_gain(params)
        ratio = (analytic.opa_snr_fading(params, opa)
                 / analytic.opa_snr_known(params, params.kappa_bar))
        worst = max(worst, ratio)
    return _result("opa-snr-ordering", worst, 1.0 - 1e-12,
                   "fading OPA SNR strictly below the known-target OPA SNR")


def check_roc_invariants() -> CheckResult:
    bad = 0
    for params in (SystemParams(**FIG2A), SystemParams(**FIG2B),
                   SystemParams(M=100.0, N_S=0.01, N_B=1.0, kappa_bar=0.5)):
        for curve in (analytic.sfg_roc(params), analytic.ci_roc(params)):
            try:
                curve.validate()
            except ValueError:
                bad += 1
    return _result("roc-invariants", bad, 0.0,
                   "ROC curves are monotone, bounded, properly terminated, concave")


def check_thermal_weld(seed: int) -> CheckResult:
    """helstrom of the two count distributions vs the analytic threshold test,
    at 6 random parameter points.

    Commuting (diagonal) states make photon counting optimal, so the two
    routes must agree. States are built from this module's sfg_mean_counts;
    the reference error is analytic.sfg_bayes, which a fault planted in that
    binding does not reach.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(6):
        n_s = 10 ** rng.uniform(-3, -0.8)
        n_b = rng.uniform(0.3, 1.0)
        x_target = rng.uniform(0.5, 4.5 / 0.99)
        params = SystemParams(M=x_target * n_b / (0.3 * n_s), N_S=n_s, N_B=n_b,
                              kappa_bar=0.3, epsilon=0.01)
        n0, n1 = sfg_mean_counts(params)
        dim = oracle.dim_for_tail(max(n0, n1), 1e-12)
        rho0 = oracle.thermal_state(n0, dim, trace_deficit_tol=1e-11)
        rho1 = oracle.thermal_state(n1, dim, trace_deficit_tol=1e-11)
        reference = analytic.sfg_bayes(params).p_error
        worst = max(worst, abs(oracle.helstrom(rho0, rho1, params.pi0) - reference))
    return _result("thermal-weld", worst, 1e-8,
                   "eigendecomposition Helstrom error vs analytic SFG threshold test")


def check_qcb_single_copy_bound(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = -math.inf  # max helstrom - bound over 30 random pairs; must be <= slack
    for _ in range(30):
        dim = int(rng.integers(2, 7))
        rep = oracle.qcb(oracle.random_density_matrix(dim, rng),
                         oracle.random_density_matrix(dim, rng))
        worst = max(worst, rep.helstrom_error - 0.5 * math.exp(-rep.qcb_exponent))
    return _result("qcb-single-copy-bound", worst, 1e-10,
                   "helstrom error <= (1/2) exp(-chernoff exponent), single copy")


def check_return_channel_covariance() -> CheckResult:
    params = SystemParams(M=1e6, N_S=0.1, N_B=0.5, kappa_bar=0.01)
    worst = 0.0
    for kappa, phi in [(0.3, math.pi / 4), (0.0, 0.0)]:  # target present, absent
        state = oracle.hypothesis_state(params, kappa, phi, 12)
        means, cov = oracle.wigner_covariance(state)
        ref = oracle.return_idler_covariance(params.N_S, params.N_B, kappa, phi)
        worst = max(worst, np.abs(cov - ref).max(), np.abs(means).max())
    return _result("return-channel-covariance", worst, 1e-6,
                   "beam-splitter output moments vs the Gaussian-state covariance")


def check_sfg_fading_average_thermal() -> CheckResult:
    """Rayleigh-plus-uniform-phase mixture of the conditional coherent states
    is thermal: the load-bearing reduction behind the SFG count statistics."""
    params = SystemParams(M=100.0, N_S=0.01, N_B=0.5, kappa_bar=0.05, epsilon=0.01)
    n0, n1 = sfg_mean_counts(params)
    dim = 30
    scale = (1.0 - params.epsilon) * params.M * params.N_S / params.N_B

    def builder(amplitude):
        return oracle.coherent_thermal_state(math.sqrt(scale) * amplitude, n0, dim)

    averaged = oracle.fading_average(builder, params.kappa_bar, (64, 64))
    target = oracle.thermal_state(n1 + n0, dim).renormalized()
    dist = 0.5 * np.abs(np.linalg.eigvalsh(averaged.data - target.data)).sum()
    return _result("sfg-fading-average-thermal", dist, 1e-4,
                   "fading average of conditional coherent states vs thermal(N1 + N0)")


def check_helstrom_concavity(trials: int, seed: int) -> CheckResult:
    slack = oracle.check_helstrom_concavity(trials=trials, dim=4, mixture_size=4, seed=seed)
    return _result("helstrom-concavity", -slack, 1e-9,
                   f"mixing never lowered the Helstrom error in {trials} random trials",
                   trials)


def check_chernoff_at_zero_return() -> CheckResult:
    params = SystemParams(M=100.0, N_S=0.1, N_B=0.3, kappa_bar=0.5)
    return _result("chernoff-at-zero-return", oracle.qcb_exponent_at_zero_return(params, 4),
                   1e-8, "zero-return channel output vs thermal(N_B) (x) idler marginal")


def check_mc_determinism(trials: int, seed: int) -> CheckResult:
    config = montecarlo.McConfig(trials=max(100, trials), seed=seed)
    params = SystemParams(**FIG2A)
    a = montecarlo.estimate_bayes_error(montecarlo.Receiver.SFG, params, config)
    b = montecarlo.estimate_bayes_error(montecarlo.Receiver.SFG, params, config)
    return _result("mc-determinism", 0.0 if a == b else 1.0, 0.0,
                   "re-running with the same seed reproduces estimates bit for bit",
                   config.trials)


def check_mc_coverage(trials: int, seed: int) -> CheckResult:
    params = SystemParams(**FIG2A)
    config = montecarlo.McConfig(trials=max(10_000, trials), seed=seed)
    misses = 0
    sfg = analytic.sfg_bayes(params)
    p_f, p_d = montecarlo.estimate_operating_point(montecarlo.Receiver.SFG, params,
                                                   sfg.threshold, config)
    misses += (not p_f.covers(sfg.p_false_alarm)) + (not p_d.covers(sfg.p_detect))
    ci = analytic.ci_bayes(params)
    p_f, p_d = montecarlo.estimate_operating_point(montecarlo.Receiver.CI, params,
                                                   -math.log(ci.threshold), config)
    misses += (not p_f.covers(ci.p_false_alarm)) + (not p_d.covers(ci.p_detect))
    return _result("mc-coverage", misses, 0.0,
                   "Wilson intervals cover the analytic operating points", config.trials)


# =============================================================================
# Suite driver
# =============================================================================

def run_validation(trials: int = 200, seed: int = 0, only=None) -> dict:
    """Run the named checks (all when only is None); returns a JSON-ready report."""
    _require_integer("trials", trials, 1)
    _require_integer("seed", seed, 0)
    registry = {
        "fading-pdf-normalization": lambda: check_pdf_normalization(),
        "fading-mean-intensity": lambda: check_mean_intensity(),
        "derived-x-scaling": lambda: check_derived_x_scaling(seed),
        "sfg-limit-convergence": lambda: check_sfg_limit_convergence(),
        "ci-bayes-minimizer": lambda: check_ci_bayes_minimizer(),
        "ci-vs-sfg-log-factor": lambda: check_ci_vs_sfg_log_factor(),
        "sfg-dominates-ci": lambda: check_sfg_dominates_ci(seed),
        "opa-snr-ordering": lambda: check_opa_ordering(seed),
        "roc-invariants": lambda: check_roc_invariants(),
        "thermal-weld": lambda: check_thermal_weld(seed),
        "qcb-single-copy-bound": lambda: check_qcb_single_copy_bound(seed),
        "return-channel-covariance": lambda: check_return_channel_covariance(),
        "sfg-fading-average-thermal": lambda: check_sfg_fading_average_thermal(),
        "helstrom-concavity": lambda: check_helstrom_concavity(trials, seed),
        "chernoff-at-zero-return": lambda: check_chernoff_at_zero_return(),
        "mc-determinism": lambda: check_mc_determinism(trials, seed),
        "mc-coverage": lambda: check_mc_coverage(trials, seed),
    }
    names = list(registry) if only is None else list(only)
    if not names:
        raise InvalidParameter("only", "selects no checks")
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise InvalidParameter("only", f"unknown checks: {unknown}; "
                                       f"available: {sorted(registry)}")
    checks = [registry[name]() for name in names]
    return {
        "seed": seed,
        "trials": trials,
        "checks": [c.as_dict() for c in checks],
        "all_pass": all(c.passed for c in checks),
    }

"""Closed-form receiver performance under Rayleigh fading.

Three receivers are covered:

- CI: classical illumination, coherent-state transmitter with heterodyne
  detection, matched filtering, and square-law envelope detection. Its
  envelope statistic is exponential under both hypotheses, giving the ROC
  P_D = P_F^(1/(1+x)) with x = M*kappa_bar*N_S/N_B.
- QI-OPA: entangled transmitter with an optical parametric amplifier
  receiver. The uniform return phase zeroes only the mean of its
  cross-correlation signature (fading SNR 1.8e-10 at fig2a); the signature
  survives in the count's spread. Only SNRs are exposed (ROADMAP item 6).
- QI-SFG: entangled transmitter with a sum-frequency-generation receiver.
  Under fading it reduces target detection to discriminating two thermal
  photon-count distributions with means N0 (absent) and N1 (present), decided
  by an integer photon-count threshold.

All probability products are evaluated in log space so thresholds in the
hundreds and false-alarm probabilities near 1e-15 stay representable.

The Bayes-error closed forms are written once, for an array of operating
points (``bayes_sweep``); the scalar entry points are one-point uses of the
same code. Their logarithms, exponentials and powers go through ``math``
element by element, because numpy's vectorised versions may differ from libm
in the last ulp, and a sweep must print the same bytes as its points.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .params import InvalidParameter, SystemParams, derived_x


class DegenerateDiscrimination(ValueError):
    """The two hypotheses have identical statistics (N1 <= N0); only the priors decide."""


class AsymptoticsInvalid(ValueError):
    """An asymptotic formula was requested outside its validity region."""


@dataclass(frozen=True)
class RocCurve:
    """Ordered operating points (P_F, P_D), sorted by strictly increasing P_F.

    points: array of shape (n, 2).
    thresholds: per-point decision thresholds (np.inf for the never-declare
        endpoint, -1 for always-declare) when the points are the vertices of
        deterministic tests, between which randomized tests realize the
        joining segments; None for a densely sampled smooth curve.
    """

    points: np.ndarray
    thresholds: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        if self.thresholds is not None:
            object.__setattr__(self, "thresholds", np.asarray(self.thresholds, dtype=float))

    @property
    def p_false_alarm(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def p_detect(self) -> np.ndarray:
        return self.points[:, 1]

    def detection_probability(self, p_f) -> np.ndarray:
        """P_D at the given false-alarm probabilities, interpolating linearly.

        Linear interpolation is exact between test vertices (it realizes the
        randomized test between neighbors) and a sampling approximation for
        a smooth curve.
        """
        return np.interp(np.asarray(p_f, dtype=float), self.p_false_alarm, self.p_detect)

    def validate(self) -> None:
        atol = 1e-12
        pf, pd = self.p_false_alarm, self.p_detect
        if np.any(pf < -atol) or np.any(pf > 1 + atol) or np.any(pd < -atol) or np.any(pd > 1 + atol):
            raise ValueError("operating points must lie in [0,1]^2")
        if np.any(np.diff(pf) <= 0):
            raise ValueError("P_F must be strictly increasing")
        if np.any(np.diff(pd) < -atol):
            raise ValueError("P_D must be nondecreasing")
        if pf[0] > 1e-10 or pd[0] > 1e-10 or pf[-1] < 1 - 1e-12 or pd[-1] < 1 - 1e-12:
            raise ValueError("curve must contain or limit to (0,0) and (1,1)")
        if self.thresholds is not None:
            slopes = np.diff(pd) / np.diff(pf)
            if np.any(np.diff(slopes) > atol + 1e-9 * np.abs(slopes[:-1])):
                raise ValueError("randomized envelope must be concave")


@dataclass(frozen=True)
class BayesResult:
    """Minimum-error-probability operating point for given priors.

    threshold is receiver dependent: the integer photon-count threshold for
    SFG (None when discrimination is degenerate), the optimal false-alarm
    probability for CI.
    """

    threshold: float
    p_false_alarm: float
    p_detect: float
    p_error: float


@dataclass(frozen=True)
class BayesSweep:
    """Minimum error probabilities over an array of mode counts M, the other
    parameters fixed; one entry per M.

    sfg_threshold is the integer photon-count threshold (-1: always declare),
    NaN where the SFG test is degenerate (N1 <= N0, or pi0 in {0, 1});
    ci_asymptotic is NaN where x <= 1, outside its validity region.
    """

    M: np.ndarray
    x: np.ndarray
    sfg_threshold: np.ndarray
    sfg_p_error: np.ndarray
    sfg_limit: np.ndarray
    ci_p_error: np.ndarray
    ci_asymptotic: np.ndarray


@dataclass(frozen=True)
class OpaConfig:
    """OPA receiver gain setting G = 1 + gain_minus_one.

    in_window records whether the gain sits well inside its design window
    max(N_S/N_B, N_S/(kappa_bar*N_B^2)) << G-1 << 1, with "<<" read as a
    factor-of-10 separation (evaluated at kappa = kappa_bar). The flag is
    informational and never gates computation.
    """

    gain_minus_one: float
    in_window: bool = None

    def __post_init__(self):
        if not (self.gain_minus_one > 0 and math.isfinite(self.gain_minus_one)):
            raise InvalidParameter("gain_minus_one", "must be finite and > 0")


def _libm(fn, *arrays) -> np.ndarray:
    # fn (math.log, math.exp, ...) element by element on the arrays' floats
    return np.fromiter(map(fn, *(a.tolist() for a in arrays)), float, len(arrays[0]))


# =============================================================================
# SFG receiver
# =============================================================================

def sfg_mean_counts(params: SystemParams, M=None) -> tuple:
    """Mean total photon counts (N0, N1) of the SFG receiver under h=0 / h=1.

    N0 = -N_S*ln(epsilon)/2 is the count from the unconverted-signal taps;
    N1 = (1-epsilon)*M*kappa_bar*N_S/N_B is the fading-averaged converted
    signal, which is thermal (Bose-Einstein) because the Rayleigh-fading
    mixture of coherent states is a thermal state. M, when given, replaces
    params.M; an array gives N1 element-wise.
    """
    n0 = -params.N_S * math.log(params.epsilon) / 2.0
    n1 = (1.0 - params.epsilon) * derived_x(params, M)
    return n0, n1


def _mean_logs(mean):
    # (log mean, log(mean+1)) of a Bose-Einstein mean, None for a zero mean
    if isinstance(mean, np.ndarray):
        return _libm(math.log, mean), _libm(math.log, mean + 1.0)
    if mean == 0.0:
        return None
    return math.log(mean), math.log(mean + 1.0)


def _log_weight(log_pi, logs, n):
    # log[ pi * mean^n / (mean+1)^(n+1) ]; a zero mean (logs None) has 0^0 = 1
    if logs is None:
        return np.where(n == 0, log_pi, -np.inf)
    return log_pi + n * logs[0] - (n + 1) * logs[1]


def _log_tail(logs, n_t):
    # log P(count > n_t) = (n_t+1) * log(mean/(mean+1))
    if logs is None:
        return np.where(n_t < 0, 0.0, -np.inf)
    return (n_t + 1) * (logs[0] - logs[1])


def _sfg_thresholds(logs0, logs1, pi0: float) -> np.ndarray:
    """Minimum-error thresholds n_t (float, integer valued) from the _mean_logs of
    a scalar n0 and of an array n1 > n0, for 0 < pi0 < 1.

    margin(n) is affine and strictly decreasing in n; each threshold is solved
    for, then any floating-point off-by-one is repaired against the exact
    inequalities, the repair loops running over the rows still moving.
    """
    log_pi0, log_pi1 = math.log(pi0), math.log1p(-pi0)
    l1, l1p = logs1

    def margin(n, rows):
        return _log_weight(log_pi0, logs0, n) - _log_weight(log_pi1, (l1[rows], l1p[rows]), n)

    m0 = margin(0, slice(None))
    declare = m0 < 0.0
    if logs0 is None:
        return np.where(declare, -1.0, 0.0)
    # where n1 is so close to n0 that the logarithms tie, margin(n) is flat
    # and no threshold separates the hypotheses: NaN
    slope = logs0[0] - l1 + l1p - logs0[1]
    n_t = np.where(declare, -1.0, np.where(slope < 0.0, 0.0, np.nan))
    rows = np.flatnonzero(~declare & (slope < 0.0))
    cand = np.maximum(np.floor(-m0[rows] / slope[rows] + 1e-12), 0.0)
    moving = np.arange(rows.size)
    while moving.size:
        moving = moving[margin(cand[moving] + 1, rows[moving]) >= 0.0]
        cand[moving] += 1
    moving = np.flatnonzero(cand > 0)
    while moving.size:
        moving = moving[margin(cand[moving], rows[moving]) < 0.0]
        cand[moving] -= 1
        moving = moving[cand[moving] > 0]
    n_t[rows] = cand
    return n_t


def _sfg_test(n0: float, n1: np.ndarray, pi0: float) -> tuple:
    """(threshold, P_F, P_D, P_error) of the minimum-error SFG test for each entry
    of n1. Where the test is degenerate (N1 <= N0 or indistinguishable from it,
    or pi0 in {0, 1}) the fixed prior decision leaves P_error = min(pi0, pi1)
    and the rest NaN."""
    threshold = np.full(n1.shape, np.nan)
    p_f, p_d = threshold.copy(), threshold.copy()
    if 0.0 < pi0 < 1.0:
        live = n1 > n0
        logs0, logs1 = _mean_logs(n0), _mean_logs(n1[live])
        threshold[live] = n_t = _sfg_thresholds(logs0, logs1, pi0)
        p_f[live] = _libm(math.exp, _log_tail(logs0, n_t))
        p_d[live] = _libm(math.exp, _log_tail(logs1, n_t))
    p_error = pi0 * p_f + (1.0 - pi0) * (1.0 - p_d)
    p_error[np.isnan(threshold)] = min(pi0, 1.0 - pi0)
    return threshold, p_f, p_d, p_error


def _require_test(n0: float, n1: float, pi0: float) -> None:
    for name, mean in (("n0", n0), ("n1", n1)):
        if not 0.0 <= mean < math.inf:
            raise InvalidParameter(name, f"must be finite and >= 0, got {mean}")
    if not 0.0 < pi0 < 1.0:
        raise InvalidParameter("pi0", "must lie in (0, 1)")
    if n1 <= n0:
        raise DegenerateDiscrimination(f"N1 = {n1} must exceed N0 = {n0}")


def sfg_threshold(n0: float, n1: float, pi0: float) -> int:
    """Integer photon-count threshold n_t of the minimum-error SFG test.

    Declare "present" iff the count exceeds n_t; n_t is the unique integer
    where the weighted Bose-Einstein likelihoods cross, a tie deciding
    "absent". Returns -1 in the always-declare corner (possible only for
    strongly skewed priors). Raises DegenerateDiscrimination when n1 <= n0.
    """
    _require_test(n0, n1, pi0)
    n_t = _sfg_thresholds(_mean_logs(n0), _mean_logs(np.array([n1], dtype=float)), pi0).item()
    if math.isnan(n_t):
        raise DegenerateDiscrimination(f"N1 = {n1} and N0 = {n0} are not distinguishable "
                                       "in floating point")
    return int(n_t)


def sfg_roc(params: SystemParams) -> RocCurve:
    """SFG receiver ROC: deterministic-threshold vertices joined by randomized tests.

    Vertices sit at integer thresholds n_t = 0, 1, ..., n_max with n_max the
    first threshold pushing P_F below 1e-15; the endpoints (0,0)
    (never declare) and (1,1) (always declare) are included explicitly.
    """
    n0, n1 = sfg_mean_counts(params)
    if n1 <= n0:
        pts = [(0.0, 0.0), (1.0, 1.0)]
        th = [np.inf, -1.0]
        return RocCurve(np.array(pts), np.array(th))
    logs0, logs1 = _mean_logs(n0), _mean_logs(n1)
    log_floor = math.log(1e-15)
    n_max = 0
    while _log_tail(logs0, n_max) >= log_floor:
        n_max += 1
    n_t = np.arange(n_max, -1, -1)
    points = np.column_stack([_libm(math.exp, _log_tail(logs0, n_t)),
                              _libm(math.exp, _log_tail(logs1, n_t))])
    points = np.vstack([[0.0, 0.0], points, [1.0, 1.0]])
    thresholds = np.concatenate([[np.inf], n_t, [-1.0]])
    return RocCurve(points, thresholds)


def sfg_bayes(params: SystemParams) -> BayesResult:
    """Minimum error probability of the SFG threshold test for the stored priors.

    Degenerate discrimination (N1 <= N0) and degenerate priors leave the fixed
    decision by the larger prior: threshold None, error min(pi0, pi1)."""
    n0, n1 = sfg_mean_counts(params, np.array([params.M]))
    n_t, p_f, p_d, p_error = (c.item() for c in _sfg_test(n0, n1, params.pi0))
    if n_t != n_t:  # NaN: no test applies
        return BayesResult(threshold=None, p_false_alarm=None, p_detect=None, p_error=p_error)
    return BayesResult(threshold=int(n_t), p_false_alarm=p_f, p_detect=p_d, p_error=p_error)


def _sfg_limit(pi1: float, x):
    return pi1 / (1.0 + x)


def sfg_bayes_limit(params: SystemParams) -> float:
    """Vanishing-brightness limit of the SFG error probability, pi1/(1 + x)."""
    return _sfg_limit(params.pi1, derived_x(params))


def threshold_test_error(n0: float, n1: float, pi0: float) -> float:
    """Minimum error of the photon-count threshold test between two
    Bose-Einstein count distributions with means n0 < n1."""
    _require_test(n0, n1, pi0)
    return _sfg_test(n0, np.array([n1], dtype=float), pi0)[3].item()


# =============================================================================
# CI receiver
# =============================================================================

def ci_roc(params: SystemParams) -> RocCurve:
    """Heterodyne-plus-envelope-detection ROC, P_D = P_F^(1/(1+x)).

    Sampled at 200 log-spaced P_F from 1e-12 to 1, plus the exact (0, 0) endpoint."""
    x = derived_x(params)
    p_f = np.logspace(-12.0, 0.0, 200)
    p_f[-1] = 1.0
    p_d = p_f ** (1.0 / (1.0 + x))
    points = np.vstack([[0.0, 0.0], np.column_stack([p_f, p_d])])
    return RocCurve(points)


def ci_detection_probability(params: SystemParams, p_f: float) -> float:
    """Exact CI ROC value at one false-alarm probability."""
    if not 0.0 <= p_f <= 1.0:
        raise InvalidParameter("p_f", f"must lie in [0, 1], got {p_f}")
    return p_f ** (1.0 / (1.0 + derived_x(params)))


def _ci_test(x: np.ndarray, pi0: float) -> tuple:
    """(P_F, P_D, P_error) of the minimum-error CI test for each entry of x.

    The objective pi0*P_F + pi1*(1 - P_F^(1/(1+x))) is convex in P_F; its
    stationary point P_F* = [pi1/(pi0*(1+x))]^((1+x)/x), clamped to [0, 1],
    is the exact minimizer. At x = 0 the larger prior decides.
    """
    pi1 = 1.0 - pi0
    if pi1 == 0.0:
        return np.zeros(x.shape), np.zeros(x.shape), np.zeros(x.shape)
    if pi0 == 0.0:
        return np.ones(x.shape), np.ones(x.shape), np.zeros(x.shape)
    p_f = np.full(x.shape, 0.0 if pi0 >= pi1 else 1.0)
    p_d = p_f.copy()
    p_error = np.full(x.shape, min(pi0, pi1))
    live = x != 0.0
    xl = x[live]
    log_pf = (1.0 + xl) / xl * (math.log(pi1) - math.log(pi0) - _libm(math.log1p, xl))
    pf = _libm(math.exp, np.minimum(log_pf, 0.0))
    pd = _libm(operator.pow, pf, 1.0 / (1.0 + xl))
    p_f[live], p_d[live] = pf, pd
    p_error[live] = pi0 * pf + pi1 * (1.0 - pd)
    return p_f, p_d, p_error


def ci_bayes(params: SystemParams) -> BayesResult:
    """Minimum error probability of the CI receiver; threshold holds the optimal P_F."""
    p_f, p_d, p_error = (c.item() for c in _ci_test(np.array([derived_x(params)]), params.pi0))
    return BayesResult(threshold=p_f, p_false_alarm=p_f, p_detect=p_d, p_error=p_error)


def _ci_asymptotic(pi1: float, x: np.ndarray) -> np.ndarray:
    # pi1*ln(x)/x where x > 1, NaN elsewhere
    out = np.full(x.shape, np.nan)
    valid = x > 1.0
    xv = x[valid]
    out[valid] = pi1 * _libm(math.log, xv) / xv
    return out


def ci_bayes_asymptotic(params: SystemParams) -> float:
    """Leading large-x term of the CI error probability, pi1*ln(x)/x."""
    x = derived_x(params)
    if x <= 1.0:
        raise AsymptoticsInvalid(f"requires x > 1, got x = {x}")
    return _ci_asymptotic(params.pi1, np.array([x])).item()


def bayes_sweep(params: SystemParams, M) -> BayesSweep:
    """SFG and CI minimum error probabilities, the SFG low-brightness limit and
    the CI asymptote at every mode count in M, in one array pass.

    params supplies N_S, N_B, kappa_bar, epsilon and the priors; its own M is
    not used. Every entry equals the scalar sfg_bayes / ci_bayes /
    sfg_bayes_limit / ci_bayes_asymptotic at that M, bit for bit.
    """
    M = np.asarray(M, dtype=float)
    if not np.all((M > 0) & (M < np.inf)):
        raise InvalidParameter("M", "must be finite and > 0")
    x = derived_x(params, M)
    n0, n1 = sfg_mean_counts(params, M)
    threshold, _, _, sfg_error = _sfg_test(n0, n1, params.pi0)
    return BayesSweep(M=M, x=x, sfg_threshold=threshold, sfg_p_error=sfg_error,
                      sfg_limit=_sfg_limit(params.pi1, x),
                      ci_p_error=_ci_test(x, params.pi0)[2],
                      ci_asymptotic=_ci_asymptotic(params.pi1, x))


def ci_snr(params: SystemParams) -> float:
    """Deflection SNR of the CI envelope statistic: y/(1+y)^2 with y = x/2."""
    y = derived_x(params) / 2.0
    return y / (1.0 + y) ** 2


# =============================================================================
# OPA receiver
# =============================================================================

def opa_snr_fading(params: SystemParams, opa: OpaConfig) -> float:
    """OPA receiver SNR against a Rayleigh-fading return.

    The random phase destroys the cross-correlation mean signature and the
    fading randomizes the remaining intensity signature, leaving
    M*(G-1)*(kappa_bar*N_S)^2/N_B / (1 + sqrt(1 + 2x))^2.
    """
    x = derived_x(params)
    num = params.M * opa.gain_minus_one * (params.kappa_bar * params.N_S) ** 2 / params.N_B
    return num / (1.0 + math.sqrt(1.0 + 2.0 * x)) ** 2


def opa_snr_known(params: SystemParams, kappa: float) -> float:
    """OPA receiver SNR for a known return (kappa known, phase zero): M*kappa*N_S/N_B."""
    if not 0.0 <= kappa <= 1.0:
        raise InvalidParameter("kappa", "must lie in [0, 1]")
    return params.M * kappa * params.N_S / params.N_B


def opa_default_gain(params: SystemParams) -> OpaConfig:
    """Design-point OPA gain G - 1 = sqrt(N_S)/N_B, with its window flag."""
    g1 = math.sqrt(params.N_S) / params.N_B
    lower = max(params.N_S / params.N_B,
                params.N_S / (params.kappa_bar * params.N_B ** 2))
    in_window = (g1 >= 10.0 * lower) and (g1 <= 0.1)
    return OpaConfig(gain_minus_one=g1, in_window=in_window)

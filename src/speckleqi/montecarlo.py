"""Stochastic simulation of receiver outputs under both hypotheses.

Validates the closed-form module empirically: every trial draws its own
fading realization, pushes it through the receiver's reduced output statistic
(photon count for SFG, envelope power for CI), and thresholds it. Estimates
come with 95% Wilson confidence intervals.

Determinism: each (seed, receiver, hypothesis) triple owns a Philox stream
(derived via numpy SeedSequence spawn keys) and trials are drawn as fixed-order
vectorized arrays from it, so a given seed reproduces estimates bit for bit.
The estimators give each phase of a stream's draws its own generator at the
phase's start and count exceedances _BLOCK trials at a time: the draws do not
depend on the block size, and working memory is a few blocks at any trial count.

M enters only through the products N0/M and |alpha|^2, so mode counts up to
1e12 are fine. The absent SFG count is NB(M, N0/M), Poisson above M = 1e7
(total-variation gap < 1e-6); it agrees with the closed forms' single
Bose-Einstein count only at threshold 0 (fig2b, M = 10^8.5: P_F 5.07e-4
closed-form vs 2.68e-4 sampled; ROADMAP item 1).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it on first use; load it with the package)

from . import analytic
from .params import InvalidParameter, SystemParams, _require_integer, derived_x

_NEG_BINOMIAL_M_CAP = 1e7
_BLOCK = 2 ** 15  # trials drawn and counted at a time


class Receiver(Enum):
    SFG = "sfg"
    CI = "ci"


@dataclass(frozen=True)
class McConfig:
    trials: int
    seed: int = 0

    def __post_init__(self):
        _require_integer("trials", self.trials, 100)
        _require_integer("seed", self.seed, 0)


@dataclass(frozen=True)
class McEstimate:
    """Proportion estimate with a 95% Wilson interval."""

    value: float
    ci_low: float
    ci_high: float
    trials: int

    def covers(self, target: float) -> bool:
        return self.ci_low <= target <= self.ci_high


def wilson_interval(successes: int, trials: int) -> McEstimate:
    z = 1.959963984540054  # two-sided 95%
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
    # the Wilson interval always contains p_hat; enforce it against roundoff
    return McEstimate(value=p_hat, ci_low=min(p_hat, max(0.0, center - half)),
                      ci_high=max(p_hat, min(1.0, center + half)), trials=trials)


def _stream(seed: int, receiver: Receiver, hypothesis: int) -> np.random.Generator:
    tag = {Receiver.SFG: 1, Receiver.CI: 2}[receiver]
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(tag, hypothesis))
    return np.random.Generator(np.random.Philox(ss))


# =============================================================================
# Fading draws
# =============================================================================

def _sample_kappa(kappa_bar: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Inverse-CDF draws of the Rayleigh return intensity kappa, mean kappa_bar."""
    kappa = rng.random(size)
    np.log1p(np.negative(kappa, out=kappa), out=kappa)  # rounding is sign-symmetric
    kappa *= -kappa_bar
    return kappa


# =============================================================================
# Receiver output statistics
# =============================================================================

def sample_sfg_counts(params: SystemParams, present: bool, rng: np.random.Generator,
                      size: int) -> np.ndarray:
    """size SFG total photon counts under one hypothesis, one fading draw each.

    Target absent: noise-only counts with mean N0, a sum of M iid geometric
    (Bose-Einstein) counts, so negative binomial. Target present: direct
    detection of the conditional coherent state, Poisson with mean
    (1-epsilon)*M*kappa*N_S/N_B, kappa ~ Rayleigh(params.kappa_bar); like the
    closed forms, this idealized reduction neglects the noise floor under h=1.
    """
    return _sfg_counts(params, present, (rng, rng), size)  # per phase: kappa, counts


def _sfg_counts(params, present, rngs, size):
    if not present:
        n0, _ = analytic.sfg_mean_counts(params)
        if params.M > _NEG_BINOMIAL_M_CAP:
            return rngs[0].poisson(n0, size)
        return rngs[0].negative_binomial(params.M, 1.0 / (1.0 + n0 / params.M), size)
    mean = _sample_kappa(params.kappa_bar, rngs[0], size)
    mean *= (1.0 - params.epsilon) * params.M
    mean *= params.N_S
    mean /= params.N_B
    return rngs[1].poisson(mean)


def sample_ci_envelopes(params: SystemParams, present: bool, rng: np.random.Generator,
                        size: int) -> np.ndarray:
    """size CI matched-filter envelope powers R under one hypothesis.

    Target absent: R ~ Exponential(1). Target present, given each
    Rayleigh(params.kappa_bar) draw of kappa: R = |G + a e^{i phi}|^2 with G
    unit complex Gaussian noise, a^2 = kappa*x/kappa_bar and phi uniform (G is
    circular, so the phase is unobservable), whose marginal is exactly
    Exponential(1 + x), matching the closed-form ROC exponent.
    """
    return _ci_envelopes(params, present, (rng,) * 4, size)  # kappa, phi, g1, g2


def _ci_envelopes(params, present, rngs, size):
    if not present:
        return rngs[0].exponential(1.0, size)
    a = _sample_kappa(params.kappa_bar, rngs[0], size)
    a *= derived_x(params)
    a /= params.kappa_bar
    np.sqrt(a, out=a)
    re = rngs[1].random(size)
    re *= 2.0 * np.pi
    im = np.sin(re)
    im *= a
    np.cos(re, out=re)
    re *= a
    del a  # freed before the normal draws
    for part, rng in zip((re, im), rngs[2:]):  # g1, then g2, each added as soon as it is drawn
        part += rng.normal(0.0, math.sqrt(0.5), size)
        np.square(part, out=part)
    return np.add(re, im, out=re)


_SAMPLERS = {Receiver.SFG: _sfg_counts, Receiver.CI: _ci_envelopes}


# =============================================================================
# Estimators
# =============================================================================

def _phase_streams(seed, receiver, hypothesis, trials):
    """One generator per draw phase of the stream, at the phase's start: kappa, then
    counts (SFG) or phi, g1 and g2 (CI) under h=1. A uniform is one 64-bit output and
    a Philox counter step yields four; g2 starts where g1's ziggurat draws end."""
    phases = 1 if hypothesis == 0 else {Receiver.SFG: 2, Receiver.CI: 4}[receiver]
    rngs = [_stream(seed, receiver, hypothesis) for _ in range(phases)]
    for rng, k in zip(rngs, (0, trials, 2 * trials, 2 * trials)):
        rng.bit_generator.advance(k // 4)
        rng.bit_generator.random_raw(k % 4)
    if phases == 4:
        discard = np.empty(min(_BLOCK, trials))
        for start in range(0, trials, _BLOCK):
            rngs[3].standard_normal(out=discard[:min(_BLOCK, trials - start)])
    return rngs


def estimate_operating_point(receiver: Receiver, params: SystemParams, threshold,
                             config: McConfig) -> tuple[McEstimate, McEstimate]:
    """Empirical (P_F, P_D) of 'declare present iff statistic > threshold'.

    threshold is the integer count threshold for SFG and the real envelope
    threshold for CI (inf: never declare). Each trial draws an independent
    Rayleigh(params.kappa_bar) fading realization, the law the closed forms
    assume.
    """
    try:
        bad = not isinstance(threshold, numbers.Real) or math.isnan(threshold)
    except OverflowError:  # an integer beyond the float range
        raise InvalidParameter("threshold", "must lie in the float range") from None
    if bad:
        raise InvalidParameter("threshold", f"must be a real number, not NaN, got {threshold!r}")
    if receiver is Receiver.SFG and math.isfinite(threshold) and threshold % 1:
        raise InvalidParameter("threshold", f"must be an integer or infinite, got {threshold!r}")
    estimates = []
    for hypothesis in (0, 1):
        rngs = _phase_streams(config.seed, receiver, hypothesis, config.trials)
        declared = sum(int(np.count_nonzero(_SAMPLERS[receiver](
            params, hypothesis == 1, rngs, min(_BLOCK, config.trials - start)) > threshold))
            for start in range(0, config.trials, _BLOCK))
        estimates.append(wilson_interval(declared, config.trials))
    return estimates[0], estimates[1]


def estimate_bayes_error(receiver: Receiver, params: SystemParams, config: McConfig) -> McEstimate:
    """Empirical pi0*P_F + pi1*(1 - P_D) at the analytic minimum-error threshold.

    The interval is conservative: the prior-weighted sum of the component
    interval half-widths.
    """
    if receiver is Receiver.SFG:
        threshold = analytic.sfg_bayes(params).threshold
        if threshold is None:
            v = min(params.pi0, params.pi1)
            return McEstimate(value=v, ci_low=v, ci_high=v, trials=config.trials)
    else:
        p_f_star = analytic.ci_bayes(params).threshold
        threshold = math.inf if p_f_star == 0.0 else -math.log(p_f_star)
    p_f, p_d = estimate_operating_point(receiver, params, threshold, config)
    value = params.pi0 * p_f.value + params.pi1 * (1.0 - p_d.value)
    half = (params.pi0 * (p_f.ci_high - p_f.ci_low) / 2.0
            + params.pi1 * (p_d.ci_high - p_d.ci_low) / 2.0)
    return McEstimate(value=value, ci_low=max(0.0, value - half),
                      ci_high=min(1.0, value + half), trials=config.trials)

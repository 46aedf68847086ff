"""Stochastic simulation of receiver outputs under both hypotheses.

Validates the closed-form module empirically: every trial draws its own
fading realization, pushes it through the receiver's reduced output statistic
(photon count for SFG, envelope power for CI), and thresholds it. Estimates
come with 95% Wilson confidence intervals.

Determinism: each (seed, receiver, hypothesis) triple owns a Philox stream
(derived via numpy SeedSequence spawn keys) and trials are drawn as fixed-order
vectorized arrays from it, so a given seed reproduces estimates bit for bit.
Aggregation is by order-independent counting.

M enters only through the products N0/M and |alpha|^2, so mode counts up to
1e12 are fine; the exact negative-binomial count sampler switches to its
Poisson limit above M = 1e7, where the total-variation gap is < 1e-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import analytic
from .params import FadingKind, FadingModel, SystemParams, derived_x

_WILSON_Z = 1.959963984540054  # two-sided 95%
_NEG_BINOMIAL_M_CAP = 1e7


class FloorModel(Enum):
    IDEAL = "ideal"                          # h=1 thermal floor neglected
    WITH_THERMAL_FLOOR = "with_thermal_floor"


class Receiver(Enum):
    SFG = "sfg"
    CI = "ci"


@dataclass(frozen=True)
class McConfig:
    trials: int
    seed: int = 0
    floor_model: FloorModel = FloorModel.IDEAL

    def __post_init__(self):
        if self.trials < 100:
            raise ValueError("trials must be >= 100")


@dataclass(frozen=True)
class McEstimate:
    """Proportion estimate with a 95% Wilson interval."""

    value: float
    ci_low: float
    ci_high: float
    trials: int

    def covers(self, target: float) -> bool:
        return self.ci_low <= target <= self.ci_high


def wilson_interval(successes: int, trials: int, z: float = _WILSON_Z) -> McEstimate:
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

def _sample_kappa(model: FadingModel, rng: np.random.Generator, size: int) -> np.ndarray:
    """Inverse-CDF draws of the return intensity kappa = amplitude^2."""
    u = rng.random(size)
    if model.kind is FadingKind.RAYLEIGH:
        return -model.kappa_bar * np.log1p(-u)
    if model.kind is FadingKind.TRUNCATED_RAYLEIGH:
        mass = -math.expm1(-1.0 / model.kappa_bar)  # P(kappa <= 1) untruncated
        return -model.kappa_bar * np.log1p(-u * mass)
    return np.full(size, model.kappa)


# =============================================================================
# Receiver output statistics
# =============================================================================

def _sfg_noise_counts(params: SystemParams, rng: np.random.Generator, size: int) -> np.ndarray:
    """Total counts with mean N0: a sum of M iid Bose-Einstein variables."""
    n0, _ = analytic.sfg_mean_counts(params)
    if params.M <= _NEG_BINOMIAL_M_CAP:
        # sum of M geometrics of mean n0/M, i.e. negative binomial
        p = 1.0 / (1.0 + n0 / params.M)
        return rng.negative_binomial(params.M, p, size)
    return rng.poisson(n0, size)


def sample_sfg_counts(params: SystemParams, present: bool, model: FadingModel,
                      config: McConfig, rng: np.random.Generator, size: int) -> np.ndarray:
    """size SFG total photon counts under one hypothesis, one fading draw each.

    Target absent: noise-only counts with mean N0 (model is unused). Target
    present: direct detection of the conditional coherent state, Poisson with
    mean (1-epsilon)*M*kappa*N_S/N_B, plus the noise floor when the config
    says to keep it (the idealized reduction neglects it).
    """
    if not present:
        return _sfg_noise_counts(params, rng, size)
    kappa = _sample_kappa(model, rng, size)
    counts = rng.poisson((1.0 - params.epsilon) * params.M * kappa * params.N_S / params.N_B)
    if config.floor_model is FloorModel.WITH_THERMAL_FLOOR:
        counts = counts + _sfg_noise_counts(params, rng, size)
    return counts


def sample_ci_envelopes(params: SystemParams, present: bool, model: FadingModel,
                        rng: np.random.Generator, size: int) -> np.ndarray:
    """size CI matched-filter envelope powers R under one hypothesis.

    Target absent: R ~ Exponential(1) (model is unused). Target present, given
    each fading draw: R = |G + a e^{i phi}|^2 with G unit complex Gaussian
    noise, a^2 = kappa*x/kappa_bar and phi uniform (G is circular, so the
    phase is unobservable), whose Rayleigh-fading marginal is exactly
    Exponential(1 + x), matching the closed-form ROC exponent.
    """
    if not present:
        return rng.exponential(1.0, size)
    kappa = _sample_kappa(model, rng, size)
    phase = 2.0 * np.pi * rng.random(size)
    a = np.sqrt(kappa * derived_x(params) / params.kappa_bar)
    g1 = rng.normal(0.0, math.sqrt(0.5), size)
    g2 = rng.normal(0.0, math.sqrt(0.5), size)
    return (g1 + a * np.cos(phase)) ** 2 + (g2 + a * np.sin(phase)) ** 2


# =============================================================================
# Estimators
# =============================================================================

def estimate_operating_point(receiver: Receiver, params: SystemParams, threshold,
                             config: McConfig,
                             model: FadingModel = None) -> tuple[McEstimate, McEstimate]:
    """Empirical (P_F, P_D) of 'declare present iff statistic > threshold'.

    threshold is the integer count threshold for SFG and the real envelope
    threshold for CI. Each trial draws an independent fading realization.
    """
    if model is None:
        model = FadingModel.rayleigh(params.kappa_bar)
    estimates = []
    for hypothesis in (0, 1):
        rng = _stream(config.seed, receiver, hypothesis)
        present = hypothesis == 1
        if receiver is Receiver.SFG:
            stats = sample_sfg_counts(params, present, model, config, rng, config.trials)
        else:
            stats = sample_ci_envelopes(params, present, model, rng, config.trials)
        estimates.append(wilson_interval(int(np.count_nonzero(stats > threshold)),
                                         config.trials))
    return estimates[0], estimates[1]


def estimate_bayes_error(receiver: Receiver, params: SystemParams, config: McConfig,
                         model: FadingModel = None) -> McEstimate:
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
    p_f, p_d = estimate_operating_point(receiver, params, threshold, config, model)
    value = params.pi0 * p_f.value + params.pi1 * (1.0 - p_d.value)
    half = (params.pi0 * (p_f.ci_high - p_f.ci_low) / 2.0
            + params.pi1 * (p_d.ci_high - p_d.ci_low) / 2.0)
    return McEstimate(value=value, ci_low=max(0.0, value - half),
                      ci_high=min(1.0, value + half), trials=config.trials)

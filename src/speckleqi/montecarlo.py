"""Stochastic simulation of receiver outputs under both hypotheses.

Validates the closed-form module empirically: every trial draws its own
fading realization, pushes it through the receiver's reduced output statistic
(photon count for SFG, envelope power for CI), and thresholds it. Estimates
come with 95% Wilson confidence intervals. bayes_threshold is the statistic
threshold of the closed-form minimum-error test: SFG's count threshold (None
where the test is degenerate and the priors decide) and CI's envelope threshold
-ln P_F* (inf where P_F* = 0: never declare).

Determinism: each (seed, receiver, hypothesis) triple owns a Philox stream
(derived via numpy SeedSequence spawn keys) and trials are drawn as fixed-order
vectorized arrays from it, so a given seed reproduces estimates bit for bit.
The estimators give each phase of a stream's draws its own generator at the
phase's start and count exceedances _BLOCK trials at a time: the draws do not
depend on the block size, and working memory is a few blocks at any trial count.
Above one block, two single-worker executors run beside the caller: one counts
the h=0 blocks, the other runs the h=1 speckle stage (kappa; for CI also phi,
a cos phi and a sin phi) up to two blocks ahead of the caller's conditional
stage (SFG's counts; CI's g1, g2, squares and sum) and threshold count. One
block runs in the caller alone. A worker's fault is raised in the caller, which
then drops the blocks not yet started and joins both workers. No generator is
drawn on two threads and the counts are integer sums, so the bits do not depend
on the schedule. SFG's serial h=1 Poisson phase is the floor of its time.

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
_BLOCK = 2 ** 14  # trials drawn and counted at a time


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
    _require_integer("trials", trials, 1)
    _require_integer("successes", successes, 0)
    if successes > trials:
        raise InvalidParameter("successes", f"must be <= trials = {trials}, got {successes!r}")
    z = 1.959963984540054  # two-sided 95%
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
    # the Wilson interval always contains p_hat; enforce it against roundoff
    return McEstimate(value=p_hat, ci_low=min(p_hat, max(0.0, center - half)),
                      ci_high=max(p_hat, min(1.0, center + half)), trials=trials)


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
# Receiver output statistics. Under h=1 each is two stages on their own draw
# phases: the speckle stage (kappa, and phi for CI) and the conditional stage
# (the statistic given the speckle).
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
    return _sample(Receiver.SFG, params, present, (rng, rng), size)  # per phase: kappa, counts


def _sfg_absent(params):
    """The h=0 count law as a sampler (rng, size): NB(M, N0/M), Poisson(N0) above M = 1e7."""
    n0, _ = analytic.sfg_mean_counts(params)
    if params.M > _NEG_BINOMIAL_M_CAP:
        return lambda rng, size: rng.poisson(n0, size)
    p = 1.0 / (1.0 + n0 / params.M)
    return lambda rng, size: rng.negative_binomial(params.M, p, size)


def _sfg_speckle(params, rngs, size):
    """The Poisson means (1-epsilon)*M*kappa*N_S/N_B; phase: kappa."""
    (rng,) = rngs
    mean = _sample_kappa(params.kappa_bar, rng, size)
    mean *= (1.0 - params.epsilon) * params.M
    mean *= params.N_S
    mean /= params.N_B
    return mean


def _sfg_given(mean, rngs):
    """The counts given their means; phase: counts."""
    (rng,) = rngs
    return rng.poisson(mean)


def sample_ci_envelopes(params: SystemParams, present: bool, rng: np.random.Generator,
                        size: int) -> np.ndarray:
    """size CI matched-filter envelope powers R under one hypothesis.

    Target absent: R ~ Exponential(1). Target present, given each
    Rayleigh(params.kappa_bar) draw of kappa: R = |G + a e^{i phi}|^2 with G
    unit complex Gaussian noise, a^2 = kappa*x/kappa_bar and phi uniform (G is
    circular, so the phase is unobservable), whose marginal is exactly
    Exponential(1 + x), matching the closed-form ROC exponent.
    """
    return _sample(Receiver.CI, params, present, (rng,) * 4, size)  # kappa, phi, g1, g2


def _ci_absent(params):
    return lambda rng, size: rng.exponential(1.0, size)  # the h=0 envelope law, Exponential(1)


def _ci_speckle(params, rngs, size):
    """The signal's quadratures a cos phi and a sin phi; phases: kappa, phi."""
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
    return re, im


def _ci_given(parts, rngs):
    """R = (g1 + a cos phi)^2 + (g2 + a sin phi)^2 in place of the parts; phases: g1, g2."""
    for part, rng in zip(parts, rngs):  # g1, then g2, each added as soon as it is drawn
        part += rng.normal(0.0, math.sqrt(0.5), part.size)
        np.square(part, out=part)
    re, im = parts
    return np.add(re, im, out=re)


# per receiver: the h=0 law, the speckle stage, the conditional stage, the speckle phases
_STAGES = {Receiver.SFG: (_sfg_absent, _sfg_speckle, _sfg_given, 1),
           Receiver.CI: (_ci_absent, _ci_speckle, _ci_given, 2)}


def _sample(receiver, params, present, rngs, size):
    """size draws of the receiver's statistic, one generator per draw phase in rngs."""
    law, speckle, given, split = _STAGES[receiver]
    if not present:
        return law(params)(rngs[0], size)
    return given(speckle(params, rngs[:split], size), rngs[split:])


# =============================================================================
# Estimators
# =============================================================================

def _phase_streams(seed, receiver, hypothesis, trials):
    """One generator per draw phase of the stream, at the phase's start: kappa, then
    counts (SFG) or phi, g1 and g2 (CI) under h=1. The stream's SeedSequence is built
    once and keys every phase's Philox. A uniform is one 64-bit output and a counter
    step yields four; g2 starts where g1's ziggurat draws end, which only drawing
    them finds: _skip_normals(rngs[3], trials)."""
    tag = {Receiver.SFG: 1, Receiver.CI: 2}[receiver]
    seeds = np.random.SeedSequence(entropy=seed, spawn_key=(tag, hypothesis))
    phases = 1 if hypothesis == 0 else {Receiver.SFG: 2, Receiver.CI: 4}[receiver]
    rngs = []
    for start in (0, trials, 2 * trials, 2 * trials)[:phases]:
        rngs.append(np.random.Generator(np.random.Philox(seeds, counter=start // 4)))
        rngs[-1].bit_generator.random_raw(start % 4)
    return rngs


def _stream(seed: int, receiver: Receiver, hypothesis: int) -> np.random.Generator:
    return _phase_streams(seed, receiver, hypothesis, 0)[0]


def _sizes(trials):
    return (min(_BLOCK, trials - start) for start in range(0, trials, _BLOCK))


def _skip_normals(rng, count):
    """Advance rng past count standard normals, _BLOCK at a time."""
    discard = np.empty(min(_BLOCK, count))
    for size in _sizes(count):
        rng.standard_normal(out=discard[:size])


def _declared_counts(receiver, params, threshold, seed, trials):
    """Trials declared present under h=0 and under h=1. Above one block, the h=0
    count and the h=1 speckle stage run on single-worker pools (module docstring)."""
    def declared(stage, *args):  # trials whose statistic stage(*args) exceeds threshold
        return int(np.count_nonzero(stage(*args) > threshold))

    law, speckle, given, split = _STAGES[receiver]
    sample = law(params)  # once per estimate
    (absent_rng,) = _phase_streams(seed, receiver, 0, trials)
    rngs = _phase_streams(seed, receiver, 1, trials)
    sizes = list(_sizes(trials))
    if len(sizes) == 1:
        if receiver is Receiver.CI:
            _skip_normals(rngs[3], trials)
        return (declared(sample, absent_rng, trials),
                declared(given, speckle(params, rngs[:split], trials), rngs[split:]))
    # not at module level: concurrent.futures.thread loads logging, queue, heapq and traceback
    from concurrent.futures import ThreadPoolExecutor

    # one worker each, so each pool draws its generators in stream order
    absent_pool, speckle_pool = ThreadPoolExecutor(1), ThreadPoolExecutor(1)
    try:
        absents = [absent_pool.submit(declared, sample, absent_rng, size) for size in sizes]
        fades = [speckle_pool.submit(speckle, params, rngs[:split], size) for size in sizes[:2]]
        if receiver is Receiver.CI:
            _skip_normals(rngs[3], trials)  # while the speckle stage draws its first blocks
        count = 0
        for size in sizes[2:]:  # the speckle stage stays at most two blocks ahead
            taken = fades.pop(0).result()
            fades.append(speckle_pool.submit(speckle, params, rngs[:split], size))
            count += declared(given, taken, rngs[split:])
        count += sum(declared(given, ahead.result(), rngs[split:]) for ahead in fades)
        return sum(block.result() for block in absents), count
    finally:  # drop the blocks not yet started and join both threads
        absent_pool.shutdown(cancel_futures=True)
        speckle_pool.shutdown(cancel_futures=True)


def estimate_operating_point(receiver: Receiver, params: SystemParams, threshold,
                             config: McConfig) -> tuple[McEstimate, McEstimate]:
    """Empirical (P_F, P_D) of 'declare present iff statistic > threshold'.

    threshold is the integer count threshold for SFG and the real envelope
    threshold for CI (inf: never declare). Each trial draws an independent
    Rayleigh(params.kappa_bar) fading realization, the law the closed forms
    assume.
    """
    try:  # a bool is not a number here
        bad = (isinstance(threshold, bool) or not isinstance(threshold, numbers.Real)
               or math.isnan(threshold))
    except OverflowError:  # an integer beyond the float range
        raise InvalidParameter("threshold", "must lie in the float range") from None
    if bad:
        raise InvalidParameter("threshold",
                               f"must be a real number, not a bool or NaN, got {threshold!r}")
    if receiver is Receiver.SFG and math.isfinite(threshold) and threshold % 1:
        raise InvalidParameter("threshold", f"must be an integer or infinite, got {threshold!r}")
    counts = _declared_counts(receiver, params, threshold, config.seed, config.trials)
    p_f, p_d = (wilson_interval(declared, config.trials) for declared in counts)
    return p_f, p_d


def bayes_threshold(receiver: Receiver, params: SystemParams):
    """The statistic threshold at which estimate_operating_point carries out the
    closed-form minimum-error test (module docstring)."""
    if receiver is Receiver.SFG:
        return analytic.sfg_bayes(params).threshold
    p_f_star = analytic.ci_bayes(params).threshold
    return math.inf if p_f_star == 0.0 else -math.log(p_f_star)


def estimate_bayes_error(receiver: Receiver, params: SystemParams, config: McConfig) -> McEstimate:
    """Empirical pi0*P_F + pi1*(1 - P_D) at bayes_threshold; a fixed decision is exact,
    with no draw: min(pi0, pi1) at SFG's None, pi1 at CI's inf (never declare).

    The interval is conservative: the prior-weighted sum of the component
    interval half-widths.
    """
    threshold = bayes_threshold(receiver, params)
    if threshold is None or threshold == math.inf:
        v = min(params.pi0, params.pi1) if threshold is None else params.pi1
        return McEstimate(value=v, ci_low=v, ci_high=v, trials=config.trials)
    p_f, p_d = estimate_operating_point(receiver, params, threshold, config)
    value = params.pi0 * p_f.value + params.pi1 * (1.0 - p_d.value)
    half = (params.pi0 * (p_f.ci_high - p_f.ci_low) / 2.0
            + params.pi1 * (p_d.ci_high - p_d.ci_low) / 2.0)
    return McEstimate(value=value, ci_low=max(0.0, value - half),
                      ci_high=min(1.0, value + half), trials=config.trials)

"""Experiment parameters and target-fading models.

Conventions:
- M is the number of signal-idler mode pairs (time-bandwidth product). It is
  stored as a float because it only enters the closed-form expressions through
  products and may be as large as 1e12; the Monte Carlo module takes an
  integer view where it needs one.
- N_S, N_B are mean photon numbers per mode of the signal and the background.
- kappa_bar is the mean target-return intensity E[kappa]; the return amplitude
  sqrt(kappa) is Rayleigh distributed with that mean intensity, the return
  phase is uniform on [0, 2pi).
- pi0 is the prior probability of target absence; the presence prior pi1 is
  derived as 1 - pi0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from types import MappingProxyType


class InvalidParameter(ValueError):
    """A constructor argument is outside its allowed range. Carries the field name."""

    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        super().__init__(f"{field_name}: {message}")


@dataclass(frozen=True)
class SystemParams:
    """Scalar knobs of one detection experiment."""

    M: float
    N_S: float
    N_B: float
    kappa_bar: float
    epsilon: float = 0.01
    pi0: float = 0.5

    def __post_init__(self):
        for name in ("M", "N_S", "N_B"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise InvalidParameter(name, "must be finite and > 0")
        if not 0.0 < self.kappa_bar <= 1.0:
            raise InvalidParameter("kappa_bar", "must lie in (0, 1]")
        if not 0.0 < self.epsilon < 1.0:
            raise InvalidParameter("epsilon", "must lie in (0, 1)")
        if not 0.0 <= self.pi0 <= 1.0:
            raise InvalidParameter("pi0", "must lie in [0, 1]")

    @property
    def pi1(self) -> float:
        """Prior of target presence, 1 - pi0."""
        return 1.0 - self.pi0


# The paper's two comparison points: shared caption values kappa_bar = 0.01,
# N_B = 20, epsilon = 0.01 and equal priors, with the same x (see derived_x).
FIG2A = MappingProxyType(dict(M=10 ** 8.5, N_S=1e-4, N_B=20.0, kappa_bar=0.01,
                              epsilon=0.01, pi0=0.5))
FIG2B = MappingProxyType(dict(M=10 ** 6.5, N_S=1e-2, N_B=20.0, kappa_bar=0.01,
                              epsilon=0.01, pi0=0.5))


def derived_x(params: SystemParams, M=None):
    """The recurring dimensionless group x = M * kappa_bar * N_S / N_B.

    M, when given, replaces params.M; an array gives x element-wise.
    """
    m = params.M if M is None else M
    return m * params.kappa_bar * params.N_S / params.N_B


class FadingKind(Enum):
    RAYLEIGH = "rayleigh"
    TRUNCATED_RAYLEIGH = "truncated_rayleigh"
    DETERMINISTIC = "deterministic"


class NoDensity(ValueError):
    """Raised when a pdf is requested for a deterministic (point-mass) model."""


@dataclass(frozen=True)
class FadingModel:
    """Distribution of the target return's amplitude sqrt(kappa) and phase phi.

    RAYLEIGH: amplitude pdf 2x exp(-x^2/kappa_bar)/kappa_bar on [0, inf),
    i.e. intensity kappa = x^2 exponential with mean kappa_bar.
    TRUNCATED_RAYLEIGH: same shape restricted to x in [0, 1] and renormalized
    by 1/(1 - exp(-1/kappa_bar)), the passive-target form.
    DETERMINISTIC: point mass at (sqrt(kappa), phi), the known-target baseline.

    Phase is uniform on [0, 2pi) for both random kinds.
    """

    kind: FadingKind
    kappa_bar: float = None
    kappa: float = None
    phi: float = None

    @classmethod
    def rayleigh(cls, kappa_bar: float) -> "FadingModel":
        if not 0.0 < kappa_bar <= 1.0:
            raise InvalidParameter("kappa_bar", "must lie in (0, 1]")
        return cls(kind=FadingKind.RAYLEIGH, kappa_bar=kappa_bar)

    @classmethod
    def truncated_rayleigh(cls, kappa_bar: float) -> "FadingModel":
        if not 0.0 < kappa_bar <= 1.0:
            raise InvalidParameter("kappa_bar", "must lie in (0, 1]")
        return cls(kind=FadingKind.TRUNCATED_RAYLEIGH, kappa_bar=kappa_bar)

    @classmethod
    def deterministic(cls, kappa: float, phi: float = 0.0) -> "FadingModel":
        if not 0.0 <= kappa <= 1.0:
            raise InvalidParameter("kappa", "must lie in [0, 1]")
        if not math.isfinite(phi):
            raise InvalidParameter("phi", "must be finite")
        return cls(kind=FadingKind.DETERMINISTIC, kappa=kappa, phi=phi % (2 * math.pi))

    @property
    def is_random(self) -> bool:
        return self.kind is not FadingKind.DETERMINISTIC


def fading_pdf(model: FadingModel, amplitude: float) -> float:
    """Amplitude pdf of a random fading model; 0 outside the support."""
    if model.kind is FadingKind.DETERMINISTIC:
        raise NoDensity("deterministic fading has no amplitude density")
    if amplitude <= 0.0:
        return 0.0
    kb = model.kappa_bar
    base = 2.0 * amplitude * math.exp(-amplitude * amplitude / kb) / kb
    if model.kind is FadingKind.RAYLEIGH:
        return base
    if amplitude > 1.0:
        return 0.0
    return base / (1.0 - math.exp(-1.0 / kb))


# =============================================================================
# Configuration files
# =============================================================================
#
# Accepted formats (auto-detected):
#   JSON   -- nested: {"M": 1e8, ..., "fading": {"kind": "rayleigh"}}
#             or flat with dotted keys: {"fading.kind": "rayleigh"}
#   text   -- one "key = value" per line, '#' starts a comment, dotted keys
#             address the fading block.
#
# Keys: M, N_S, N_B, kappa_bar, epsilon, pi0,
#       fading.kind   in {rayleigh, truncated_rayleigh, deterministic}
#       fading.kappa, fading.phi   (deterministic kind only)
# Omitted fading block defaults to rayleigh(kappa_bar).

_PARAM_KEYS = {"M", "N_S", "N_B", "kappa_bar", "epsilon", "pi0"}


class ConfigError(ValueError):
    """Unreadable or malformed configuration file."""


def _flatten(obj: dict, prefix: str = "") -> dict:
    out = {}
    for k, v in obj.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, prefix=f"{key}."))
        else:
            out[key] = v
    return out


def _parse_text_config(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


def load_config(path) -> tuple[SystemParams, FadingModel]:
    """Read a configuration file and build (SystemParams, FadingModel)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        flat = _flatten(json.loads(text))
    except json.JSONDecodeError:
        flat = _parse_text_config(text)

    unknown = set(flat) - _PARAM_KEYS - {"fading.kind", "fading.kappa", "fading.phi"}
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")

    def number(key: str) -> float:
        try:
            return float(flat[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"key {key}: not a number: {flat[key]!r}") from exc

    kwargs = {key: number(key) for key in _PARAM_KEYS if key in flat}
    missing = {"M", "N_S", "N_B", "kappa_bar"} - set(kwargs)
    if missing:
        raise ConfigError(f"missing required keys: {sorted(missing)}")
    params = SystemParams(**kwargs)

    kind = str(flat.get("fading.kind", "rayleigh")).lower()
    if kind == "rayleigh":
        model = FadingModel.rayleigh(params.kappa_bar)
    elif kind == "truncated_rayleigh":
        model = FadingModel.truncated_rayleigh(params.kappa_bar)
    elif kind == "deterministic":
        if "fading.kappa" not in flat:
            raise ConfigError("deterministic fading requires fading.kappa")
        model = FadingModel.deterministic(
            number("fading.kappa"), number("fading.phi") if "fading.phi" in flat else 0.0
        )
    else:
        raise ConfigError(f"unknown fading.kind: {kind!r}")
    for key in ("fading.kappa", "fading.phi"):
        if model.is_random and key in flat:
            raise ConfigError(f"{key} applies only to fading.kind = deterministic, not {kind!r}")
    return params, model

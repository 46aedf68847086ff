"""Experiment parameters, the Rayleigh fading pdf and configuration files.

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
import numbers
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType


class InvalidParameter(ValueError):
    """A constructor argument is outside its allowed range. Carries the field name."""

    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        super().__init__(f"{field_name}: {message}")


def _require_integer(name: str, value, low: int) -> None:
    """Raise InvalidParameter(name) unless value is an integer >= low; a bool is not one."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= low):
        raise InvalidParameter(name, f"must be an integer >= {low}, got {value!r}")


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


def fading_pdf(kappa_bar: float, amplitude: float) -> float:
    """Rayleigh pdf 2x exp(-x^2/kappa_bar)/kappa_bar of the return amplitude
    x = sqrt(kappa), so that the intensity kappa is exponential with mean
    kappa_bar; 0 for x <= 0."""
    if amplitude <= 0.0:
        return 0.0
    return 2.0 * amplitude * math.exp(-amplitude * amplitude / kappa_bar) / kappa_bar


# =============================================================================
# Configuration files
# =============================================================================
#
# Accepted formats (auto-detected):
#   JSON   -- nested: {"M": 1e8, ..., "fading": {"kind": "rayleigh"}}
#             or flat with dotted keys: {"fading.kind": "rayleigh"}
#   text   -- one "key = value" per line, '#' starts a comment, dotted keys
#             address the fading block.
# A key given twice (including a nested key and its dotted form) is an error.
#
# Keys: M, N_S, N_B, kappa_bar, epsilon, pi0, and fading.kind, which may only
# be rayleigh (the default), the law the closed forms and samplers assume.

_PARAM_KEYS = {"M", "N_S", "N_B", "kappa_bar", "epsilon", "pi0"}


class ConfigError(ValueError):
    """Unreadable or malformed configuration file."""


def _unique_keys(pairs) -> dict:
    """dict of (key, value) pairs; a key given twice is an error, never a
    silent override."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"key {key}: given more than once")
        out[key] = value
    return out


def _flat_pairs(obj: dict, prefix: str = ""):
    for k, v in obj.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            yield from _flat_pairs(v, prefix=f"{key}.")
        else:
            yield key, v


def _text_pairs(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        yield key, value


def load_config(path) -> SystemParams:
    """Read a configuration file and build its SystemParams."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError:
        flat = _unique_keys(_text_pairs(text))
    else:
        if not isinstance(obj, dict):
            raise ConfigError(f"a JSON config is one object, not {type(obj).__name__}")
        flat = _unique_keys(_flat_pairs(obj))

    kind = str(flat.get("fading.kind", "rayleigh")).lower()
    if kind != "rayleigh":
        raise InvalidParameter("fading.kind", f"only 'rayleigh' is modelled, not {kind!r}")
    unknown = set(flat) - _PARAM_KEYS - {"fading.kind"}
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
    return SystemParams(**kwargs)

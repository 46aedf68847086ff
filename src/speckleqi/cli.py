"""Command-line front end: ROC tables, error-probability sweeps, SNR tables,
cross-validation runs, and small-state discrimination reports.

Output is CSV (fixed 17-significant-digit scientific notation, so identical
configurations diff clean) or JSON. Exit codes: 0 success, 1 a validation
check failed, 2 unreadable input, 3 invalid parameters (the message names the
offending field).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analytic, oracle
from .params import (FIG2A, FIG2B, ConfigError, FadingKind, InvalidParameter, SystemParams,
                     derived_x, load_config)
from .validate import run_validation


@dataclass(frozen=True)
class SweepSpec:
    """One swept axis: explicit values or a log10 range over a named parameter."""

    axis: str
    values: tuple
    fixed: dict

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("sweep values must be nonempty")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("sweep values must be strictly increasing")

    @classmethod
    def log_range(cls, axis: str, start_exp: float, stop_exp: float, points: int,
                  fixed: dict) -> "SweepSpec":
        if points < 1:
            raise ValueError("points must be >= 1")
        if points == 1:
            values = (10.0 ** start_exp,)
        else:
            values = tuple(np.logspace(start_exp, stop_exp, points))
        return cls(axis=axis, values=values, fixed=fixed)


@dataclass(frozen=True)
class CurveRecord:
    """One (receiver, parameter point, metric) value, with optional CI bounds."""

    receiver: str
    point: float
    metric: str
    value: float
    ci_low: float = None
    ci_high: float = None


@dataclass(frozen=True)
class Preset:
    params: Mapping
    sweep_log10_m: tuple  # (start exponent, stop exponent, points)


PRESETS = {
    "fig2a": Preset(params=FIG2A, sweep_log10_m=(7.0, 11.0, 41)),
    "fig2b": Preset(params=FIG2B, sweep_log10_m=(5.0, 9.0, 41)),
}
PRESETS["fig3a"] = PRESETS["fig2a"]
PRESETS["fig3b"] = PRESETS["fig2b"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    v = float(value)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if math.isnan(v):
        return "nan"
    return f"{v:.16e}"


def _emit(text: str, out_path) -> None:
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text)


def _csv(header: list, rows: list) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _load_rayleigh_config(path) -> SystemParams:
    """Parameters of a config file whose fading model the closed forms cover."""
    params, model = load_config(path)
    if model.kind is not FadingKind.RAYLEIGH:
        raise InvalidParameter("fading.kind", f"{model.kind.value!r} has no closed form; "
                                              "the analytic receivers assume 'rayleigh'")
    return params


def _resolve_params(args) -> SystemParams:
    if args.config:
        return _load_rayleigh_config(args.config)
    preset = PRESETS.get(args.preset or "fig2a")
    if preset is None:
        raise ConfigError(f"unknown preset {args.preset!r}; choose from {sorted(PRESETS)}")
    return SystemParams(**preset.params)


def _resolve_sweep(args) -> SweepSpec:
    preset = PRESETS.get(args.preset or "fig3a")
    if args.config:
        params = _load_rayleigh_config(args.config)
        fixed = dict(N_S=params.N_S, N_B=params.N_B, kappa_bar=params.kappa_bar,
                     epsilon=params.epsilon, pi0=params.pi0)
        default_range = (7.0, 11.0, 41)
    elif preset is not None:
        fixed = {k: v for k, v in preset.params.items() if k != "M"}
        default_range = preset.sweep_log10_m
    else:
        raise ConfigError(f"unknown preset {args.preset!r}; choose from {sorted(PRESETS)}")
    start = args.log10_start if args.log10_start is not None else default_range[0]
    stop = args.log10_stop if args.log10_stop is not None else default_range[1]
    points = args.points if args.points is not None else default_range[2]
    return SweepSpec.log_range("M", start, stop, points, fixed)


# =============================================================================
# Subcommands
# =============================================================================

def cmd_roc(args) -> int:
    params = _resolve_params(args)
    receivers = [r.strip().lower() for r in (args.receivers or "sfg,ci").split(",") if r.strip()]
    unknown = set(receivers) - {"sfg", "ci"}
    if unknown:
        raise InvalidParameter("receivers", f"no ROC for {sorted(unknown)}")
    rows = []
    if "sfg" in receivers:
        curve = analytic.sfg_roc(params)
        pts, th = curve.points, curve.thresholds
        for (p_f, p_d), t in zip(pts, th):
            rows.append(("sfg", "vertex", int(t) if math.isfinite(t) else t, p_f, p_d))
        for i in range(len(pts) - 1):
            mid = 0.5 * (pts[i, 0] + pts[i + 1, 0])
            rows.append(("sfg", "randomized", None, mid,
                         float(curve.detection_probability(mid))))
    if "ci" in receivers:
        for p_f, p_d in analytic.ci_roc(params).points:
            rows.append(("ci", "continuous", None, p_f, p_d))
    rows.sort(key=lambda r: (r[0], r[3], r[1]))
    header = ["receiver", "point_kind", "threshold", "p_false_alarm", "p_detect"]
    if args.format == "json":
        payload = [dict(zip(header, r)) for r in rows]
        _emit(json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n", args.out)
    else:
        _emit(_csv(header, rows), args.out)
    return 0


def cmd_bayes_sweep(args) -> int:
    spec = _resolve_sweep(args)
    rows = []
    records = []
    previous_nt = None
    for m in spec.values:
        params = SystemParams(M=float(m), **spec.fixed)
        x = derived_x(params)
        sfg = analytic.sfg_bayes(params)
        ci = analytic.ci_bayes(params)
        limit = analytic.sfg_bayes_limit(params)
        try:
            ci_asym = analytic.ci_bayes_asymptotic(params)
        except analytic.AsymptoticsInvalid:
            ci_asym = None
        n_t = sfg.threshold
        jump = previous_nt is not None and n_t is not None and n_t > previous_nt
        previous_nt = n_t
        rows.append((math.log10(m), m, x, n_t, sfg.p_error, limit, ci.p_error,
                     ci_asym, jump))
        records.extend([
            CurveRecord("sfg", float(m), "p_error", sfg.p_error),
            CurveRecord("sfg", float(m), "p_error_low_brightness_limit", limit),
            CurveRecord("ci", float(m), "p_error", ci.p_error),
            CurveRecord("ci", float(m), "p_error_asymptotic",
                        ci_asym if ci_asym is not None else math.nan),
        ])
    header = ["log10_M", "M", "x", "sfg_threshold", "p_error_sfg",
              "p_error_sfg_limit", "p_error_ci", "p_error_ci_asymptotic",
              "threshold_jump"]
    if args.format == "json":
        payload = [r.__dict__ for r in records]
        _emit(json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n", args.out)
    else:
        _emit(_csv(header, rows), args.out)
    return 0


def cmd_snr(args) -> int:
    params = _resolve_params(args)
    opa = analytic.opa_default_gain(params)
    fading = analytic.opa_snr_fading(params, opa)
    known = analytic.opa_snr_known(params, params.kappa_bar)
    ci = analytic.ci_snr(params)
    rows = [(opa.gain_minus_one, opa.in_window, fading, known, ci,
             known / fading if fading > 0 else math.inf,
             fading / ci if ci > 0 else math.nan)]
    header = ["opa_gain_minus_one", "opa_in_window", "opa_snr_fading",
              "opa_snr_known", "ci_snr", "ratio_known_to_fading",
              "ratio_fading_to_ci"]
    if args.format == "json":
        _emit(json.dumps(dict(zip(header, rows[0])), indent=2, sort_keys=True,
                         default=float) + "\n", args.out)
    else:
        _emit(_csv(header, rows), args.out)
    return 0


def _broken_mean_counts(params: SystemParams):
    n0, n1 = analytic.sfg_mean_counts(params)
    return 2.0 * n0 + 0.01, n1


def cmd_validate(args) -> int:
    only = None
    if args.only:
        only = [name for chunk in args.only for name in chunk.split(",") if name]
    report = run_validation(
        trials=args.trials if args.trials is not None else 200,
        seed=args.seed,
        only=only,
        mean_counts_fn=_broken_mean_counts if args.inject_bad_n0 else None,
    )
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return 0 if report["all_pass"] else 1


def _load_state(path) -> oracle.DensityMatrix:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"state file not found: {path}")
    if p.suffix == ".npy":
        data = np.load(p)
    elif p.suffix == ".json":
        obj = json.loads(p.read_text())
        data = np.asarray(obj["re"], dtype=float)
        if "im" in obj:
            data = data + 1j * np.asarray(obj["im"], dtype=float)
    else:
        raise ConfigError(f"unsupported state file type: {p.suffix} (use .npy or .json)")
    data = np.asarray(data, dtype=complex)
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise InvalidParameter("state", f"expected a square matrix, got {data.shape}")
    if np.abs(data - data.conj().T).max() > 1e-10:
        raise InvalidParameter("state", "matrix is not Hermitian")
    dm = oracle.DensityMatrix(data, (data.shape[0],))
    return dm.renormalized().psd_clamped()


def cmd_oracle(args) -> int:
    rho0 = _load_state(args.rho0)
    rho1 = _load_state(args.rho1)
    report = oracle.qcb(rho0, rho1, pi0=args.pi0)
    payload = {
        "pi0": args.pi0,
        "helstrom_error": report.helstrom_error,
        "qcb_exponent": report.qcb_exponent,
        "optimal_s": report.optimal_s,
        "single_copy_bound": 0.5 * math.exp(-report.qcb_exponent),
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


# =============================================================================
# Argument parsing
# =============================================================================

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speckleqi",
        description="Quantum vs classical illumination performance for "
                    "Rayleigh-fading target detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sweep=False):
        p.add_argument("--config", help="parameter file (JSON or key=value text)")
        p.add_argument("--preset", help=f"named parameter set: {', '.join(sorted(PRESETS))}")
        p.add_argument("--out", default="-", help="output path ('-' for stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if sweep:
            p.add_argument("--log10-start", type=float, help="sweep start exponent of M")
            p.add_argument("--log10-stop", type=float, help="sweep stop exponent of M")
            p.add_argument("--points", type=int, help="number of sweep points")

    p = sub.add_parser("roc", help="receiver operating characteristics")
    common(p)
    p.add_argument("--receivers", default="sfg,ci", help="comma list from {sfg, ci}")
    p.set_defaults(func=cmd_roc)

    p = sub.add_parser("bayes-sweep", help="error probabilities vs log10(M)")
    common(p, sweep=True)
    p.set_defaults(func=cmd_bayes_sweep)

    p = sub.add_parser("snr", help="OPA and CI signal-to-noise ratios")
    common(p)
    p.set_defaults(func=cmd_snr)

    p = sub.add_parser("validate", help="run the cross-validation check suite")
    p.add_argument("--out", default="-")
    p.add_argument("--trials", type=int, help="trial count for randomized checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--only", action="append",
                   help="run only the named checks (comma list, repeatable)")
    p.add_argument("--inject-bad-n0", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("oracle", help="Helstrom/Chernoff report for two state files")
    p.add_argument("--rho0", required=True, help=".npy or .json density matrix")
    p.add_argument("--rho1", required=True, help=".npy or .json density matrix")
    p.add_argument("--pi0", type=float, default=0.5)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidParameter as exc:
        print(f"invalid parameter {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid parameter: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

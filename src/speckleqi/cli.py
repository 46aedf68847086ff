"""Command-line front end: ROC tables, error-probability sweeps, SNR tables,
cross-validation runs, and small-state discrimination reports.

Output is CSV (fixed 17-significant-digit scientific notation, so identical
configurations diff clean) or JSON (null for non-finite values). Exit codes: 0 success, 1 a validation
check failed, 2 unreadable input or a usage error (such as --config with
--preset), 3 invalid parameters (the message names the offending field).
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
                     load_config)
from .validate import run_validation


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


# The one CSV float rule: 17 significant digits, so identical configurations
# diff clean; it also prints inf, -inf and nan.
_FLOAT = "%.16e"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return _FLOAT % value


def _emit(text: str, out_path) -> None:
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text)


def _json_safe(obj):
    # non-finite floats become null (the CSV's empty field); strict JSON has no NaN
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _emit_json(payload, out_path) -> None:
    text = json.dumps(_json_safe(payload), indent=2, sort_keys=True, allow_nan=False,
                      default=lambda v: _json_safe(float(v)))
    _emit(text + "\n", out_path)


def _csv(header: list, rows: list) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _resolve(args) -> tuple[SystemParams, tuple]:
    """Parameters of --config or --preset (default fig2a), and the default
    log10(M) sweep range: the preset's own, or fig2a's for a config file."""
    if args.config is not None:
        params, model = load_config(args.config)
        if model.kind is not FadingKind.RAYLEIGH:
            raise InvalidParameter("fading.kind", f"{model.kind.value!r} has no closed form; "
                                                  "the analytic receivers assume 'rayleigh'")
        return params, PRESETS["fig2a"].sweep_log10_m
    preset = PRESETS.get("fig2a" if args.preset is None else args.preset)
    if preset is None:
        raise ConfigError(f"unknown preset {args.preset!r}; choose from {sorted(PRESETS)}")
    return SystemParams(**preset.params), preset.sweep_log10_m


# =============================================================================
# Subcommands
# =============================================================================

def cmd_roc(args) -> int:
    params, _ = _resolve(args)
    receivers = [r.strip().lower() for r in args.receivers.split(",") if r.strip()]
    unknown = set(receivers) - {"sfg", "ci"}
    if unknown or not receivers:
        raise InvalidParameter("receivers",
                               f"choose one or more of sfg, ci, not {args.receivers!r}")
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
        _emit_json([dict(zip(header, r)) for r in rows], args.out)
    else:
        _emit(_csv(header, rows), args.out)
    return 0


_SWEEP_HEADER = ["log10_M", "M", "x", "sfg_threshold", "p_error_sfg", "p_error_sfg_limit",
                 "p_error_ci", "p_error_ci_asymptotic", "threshold_jump"]


def _sweep_template(has_threshold: bool, has_asymptotic: bool) -> str:
    # "%.0s" consumes a blank field's value and prints nothing
    blank = "%.0s"
    return ",".join([_FLOAT] * 3 + ["%d" if has_threshold else blank] + [_FLOAT] * 3
                    + [_FLOAT if has_asymptotic else blank, "%d"])


def _sweep_csv(sweep: analytic.BayesSweep) -> str:
    """CSV text of a sweep, one %-template per row shape (a threshold and an
    asymptotic value present or blank)."""
    templates = [_sweep_template(t, a) for t in (False, True) for a in (False, True)]
    n_t = sweep.sfg_threshold
    jump = np.zeros(n_t.shape, dtype=bool)
    jump[1:] = n_t[1:] > n_t[:-1]  # NaN (no threshold) never jumps nor is jumped from
    shape = 2 * ~np.isnan(n_t) + ~np.isnan(sweep.ci_asymptotic)
    m = sweep.M.tolist()
    columns = (sweep.x, n_t, sweep.sfg_p_error, sweep.sfg_limit, sweep.ci_p_error,
               sweep.ci_asymptotic, jump)
    rows = zip(map(math.log10, m), m, *(c.tolist() for c in columns))
    lines = [",".join(_SWEEP_HEADER)]
    lines.extend(templates[k] % row for k, row in zip(shape.tolist(), rows))
    return "\n".join(lines) + "\n"


def _sweep_records(sweep: analytic.BayesSweep) -> list:
    """One JSON record per (mode count, receiver, metric), without intervals."""
    columns = [("sfg", "p_error", sweep.sfg_p_error.tolist()),
               ("sfg", "p_error_low_brightness_limit", sweep.sfg_limit.tolist()),
               ("ci", "p_error", sweep.ci_p_error.tolist()),
               ("ci", "p_error_asymptotic", sweep.ci_asymptotic.tolist())]
    return [dict(receiver=receiver, point=m, metric=metric, value=values[i],
                 ci_low=None, ci_high=None)
            for i, m in enumerate(sweep.M.tolist()) for receiver, metric, values in columns]


def cmd_bayes_sweep(args) -> int:
    params, default_range = _resolve(args)
    given = (args.log10_start, args.log10_stop, args.points)
    start, stop, points = (d if g is None else g for g, d in zip(given, default_range))
    if points < 1:
        raise InvalidParameter("points", "must be >= 1")
    m = np.logspace(start, stop, points)
    if np.any(m[1:] <= m[:-1]):
        raise InvalidParameter("log10-stop", "M must be strictly increasing: log10-stop must "
                                             "exceed log10-start, and no two M may overflow")
    sweep = analytic.bayes_sweep(params, m)
    if args.format == "json":
        _emit_json(_sweep_records(sweep), args.out)
    else:
        _emit(_sweep_csv(sweep), args.out)
    return 0


def cmd_snr(args) -> int:
    params, _ = _resolve(args)
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
        _emit_json(dict(zip(header, rows[0])), args.out)
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
        trials=args.trials,
        seed=args.seed,
        only=only,
        mean_counts_fn=_broken_mean_counts if args.inject_bad_n0 else None,
    )
    _emit_json(report, args.out)
    return 0 if report["all_pass"] else 1


def _load_state(path, name: str) -> oracle.DensityMatrix:
    """The state in a .npy or .json file; errors about its matrix name it (rho0, rho1)."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"state file not found: {path}")
    if p.suffix not in (".npy", ".json"):
        raise ConfigError(f"unsupported state file type: {p.suffix} (use .npy or .json)")
    try:
        if p.suffix == ".npy":
            data = np.asarray(np.load(p), dtype=complex)
        else:
            obj = json.loads(p.read_text())
            data = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj.get("im", 0.0),
                                                                         dtype=float)
    except (EOFError, LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: not a state matrix ({type(exc).__name__}: {exc})") from exc
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise InvalidParameter(name, f"expected a square matrix, got {data.shape}")
    if not np.isfinite(data).all():
        raise InvalidParameter(name, "matrix has non-finite entries")
    if np.abs(data - data.conj().T).max() > 1e-10:
        raise InvalidParameter(name, "matrix is not Hermitian")
    if not np.trace(data).real > 0.0:
        raise InvalidParameter(name, f"trace {np.trace(data).real:g} is not positive")
    try:
        return oracle.DensityMatrix(data, (data.shape[0],)).renormalized().psd_clamped()
    except ValueError as exc:
        raise InvalidParameter(name, str(exc)) from exc


def cmd_oracle(args) -> int:
    rho0 = _load_state(args.rho0, "rho0")
    rho1 = _load_state(args.rho1, "rho1")
    report = oracle.qcb(rho0, rho1, pi0=args.pi0)
    payload = {
        "pi0": args.pi0,
        "helstrom_error": report.helstrom_error,
        "qcb_exponent": report.qcb_exponent,
        "optimal_s": report.optimal_s,
        "single_copy_bound": 0.5 * math.exp(-report.qcb_exponent),
    }
    _emit_json(payload, args.out)
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
        source = p.add_mutually_exclusive_group()
        source.add_argument("--config", help="parameter file (JSON or key=value text)")
        source.add_argument("--preset",
                            help=f"named parameter set: {', '.join(sorted(PRESETS))}")
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
    p.add_argument("--trials", type=int, default=200,
                   help="trial count for randomized checks (>= 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--only", action="append",
                   help="run only the named checks (comma list, repeatable)")
    p.add_argument("--inject-bad-n0", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("oracle", help="Helstrom/Chernoff report for two state files")
    state_help = '.npy or .json ({"re": [[...]], "im": [[...]]}, im optional) density matrix'
    p.add_argument("--rho0", required=True, help=state_help)
    p.add_argument("--rho1", required=True, help=state_help)
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

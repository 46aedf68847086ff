"""Command-line front end: ROC tables, error-probability sweeps, SNR tables,
cross-validation runs, and small-state discrimination reports.

Output is CSV (fixed 17-significant-digit scientific notation, so identical
configurations diff clean; a sweep's is rendered column-wise from exact digits,
falling back to "%.16e" % value per value) or JSON (null for non-finite values).
Exit codes: 0 success, 1 a validation check failed, 2 unreadable input or a usage
error (such as --config with --preset), 3 invalid parameters (the message names
the offending field).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analytic, oracle
from .params import FIG2A, FIG2B, ConfigError, InvalidParameter, SystemParams, load_config
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
# diff clean; it also prints inf and -inf. _fmt writes a NaN as an empty field.
_FLOAT = "%.16e"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None or value != value:
        return ""
    if isinstance(value, str):
        return value
    return _FLOAT % value


def _emit(chunks, out_path) -> None:
    if out_path in (None, "-"):
        sys.stdout.buffer.writelines(chunks)
    else:
        with open(out_path, "wb") as out:
            out.writelines(chunks)


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
    _emit([text.encode(), b"\n"], out_path)


def _csv(header: list, rows: list) -> list:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return [("\n".join(lines) + "\n").encode()]


def _resolve(args) -> tuple[SystemParams, tuple]:
    """Parameters of --config or --preset (default fig2a), and the default
    log10(M) sweep range: the preset's own, or fig2a's for a config file."""
    if args.config is not None:
        return load_config(args.config), PRESETS["fig2a"].sweep_log10_m
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


# rows per uint8 block of a sweep's CSV, each written before the next is rendered
_SWEEP_BLOCK = 8192


@functools.cache
def _float_tables() -> tuple:
    """_FLOAT's pieces as uint32 words padded with 0 bytes (sign, lead digit and
    point; 0000..9999; e-280..e+280), and 10**e, e in [-264, 296], as hi + lo."""
    text = ([b"%s%d." % (s, i) for s in (b"", b"-") for i in range(10)],
            [b"%04d" % i for i in range(10_000)], [b"e%+03d" % k for k in range(-280, 281)])
    exact = [(10 ** max(e, 0), 10 ** max(-e, 0)) for e in range(-264, 297)]
    hi = [n / d for n, d in exact]
    lo = [(n * b - a * d) / (d * b)
          for (n, d), (a, b) in zip(exact, map(float.as_integer_ratio, hi))]
    return (*(np.array(t, dtype=f"S{w}").view(np.uint32).reshape(len(t), -1).squeeze()
              for t, w in zip(text, (4, 4, 8))), np.array(hi), np.array(lo))


def _split(x):
    c = x * 134217729.0  # Veltkamp: x == hi + lo, each of at most 26 significant bits
    hi = c - (c - x)
    return hi, x - hi


def _float_text(v: np.ndarray) -> np.ndarray:
    """_FLOAT % value per entry of v as 28 trailing uint8 (0: no byte): the digits
    round |v| 10**(16-k), a double-double within 1e-14 of exact; zero, non-finite,
    |v| outside [1e-280, 1e280], not 17 digits or within 1e-6 of a tie: _FLOAT."""
    heads, quads, exponents, ten_hi, ten_lo = _float_tables()
    fast = (np.abs(v) >= 1e-280) & (np.abs(v) <= 1e280)
    a = np.where(fast, np.abs(v), 1.0)  # log10 of 0, inf or nan would warn
    k = np.clip(np.floor(np.log10(a)), -280, 280).astype(np.int64)
    t_hi, t_lo = ten_hi[280 - k], ten_lo[280 - k]
    h = a * t_hi
    (a1, a2), (t1, t2) = _split(a), _split(t_hi)
    lo = (((a1 * t1 - h) + a1 * t2 + a2 * t1) + a2 * t2) + a * t_lo  # Dekker's product
    r = np.rint(lo)
    d = h.astype(np.int64) + r.astype(np.int64)
    fast &= (d > 10 ** 16) & (d < 10 ** 17) & (np.abs(lo - r) < 0.5 - 1e-6)
    words = np.empty(v.shape + (7,), np.uint32)
    words[..., 0] = heads[(v < 0) * 10 + d // 10 ** 16 % 10]
    for i, scale in enumerate((10 ** 12, 10 ** 8, 10 ** 4, 1)):
        words[..., i + 1] = quads[d // scale % 10_000]
    words[..., 5:] = exponents[k + 280]
    rows = words.view(np.uint8).reshape(-1, 28)
    for i in np.flatnonzero(~fast):
        rows[i] = np.frombuffer((_FLOAT % v.flat[i]).encode().ljust(28, b"\0"), np.uint8)
    return words.view(np.uint8)


def _sweep_csv(sweep: analytic.BayesSweep):
    """CSV text of a sweep: the header, then blocks of rows rendered as uint8 (0: no
    byte); a NaN threshold or CI asymptote is a blank field."""
    n_t = sweep.sfg_threshold
    values, index = np.unique(n_t, return_inverse=True)  # each threshold formatted once
    threshold = np.array([b"%d" % t if t == t else b"" for t in values.tolist()])[index]
    threshold = threshold.view(np.uint8).reshape(n_t.size, -1)
    jump = np.full((n_t.size, 1), ord("0"), np.uint8)
    jump[1:, 0] += n_t[1:] > n_t[:-1]  # NaN (no threshold) never jumps nor is jumped from
    floats = np.column_stack([[math.log10(m) for m in sweep.M.tolist()], sweep.M, sweep.x,
                              sweep.sfg_p_error, sweep.sfg_limit, sweep.ci_p_error,
                              sweep.ci_asymptotic])
    yield ",".join(_SWEEP_HEADER).encode() + b"\n"
    for start in range(0, n_t.size, _SWEEP_BLOCK):
        rows = slice(start, start + _SWEEP_BLOCK)
        text = _float_text(floats[rows])
        text[np.isnan(floats[rows, 6]), 6] = 0
        comma = np.full((len(text), 1), ord(","), np.uint8)
        fields = [*text[:, :3].swapaxes(0, 1), threshold[rows], *text[:, 3:].swapaxes(0, 1),
                  jump[rows]]
        block = np.hstack([f for field in fields for f in (field, comma)])
        block[:, -1] = ord("\n")
        yield block[block != 0].tobytes()


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
    for name, exponent in (("log10-start", start), ("log10-stop", stop)):
        if not math.isfinite(exponent):
            raise InvalidParameter(name, f"must be finite, got {exponent}")
    if points < 1:
        raise InvalidParameter("points", "must be >= 1")
    with np.errstate(over="ignore"):  # an M that overflows is rejected below, by name
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


def _ratio(num: float, den: float) -> float:
    # num/den of two SNRs >= 0: inf over a zero den, NaN when both are zero
    return num / den if den > 0 else math.inf if num > 0 else math.nan


def cmd_snr(args) -> int:
    params, _ = _resolve(args)
    gain_minus_one, in_window = analytic.opa_default_gain(params)
    fading = analytic.opa_snr_fading(params, gain_minus_one)
    known = analytic.opa_snr_known(params, params.kappa_bar)
    ci = analytic.ci_snr(params)
    rows = [(gain_minus_one, in_window, fading, known, ci,
             _ratio(known, fading), _ratio(fading, ci))]
    header = ["opa_gain_minus_one", "opa_in_window", "opa_snr_fading",
              "opa_snr_known", "ci_snr", "ratio_known_to_fading",
              "ratio_fading_to_ci"]
    if args.format == "json":
        _emit_json(dict(zip(header, rows[0])), args.out)
    else:
        _emit(_csv(header, rows), args.out)
    return 0


def cmd_validate(args) -> int:
    only = None
    if args.only:
        only = [name for chunk in args.only for name in chunk.split(",") if name]
    report = run_validation(trials=args.trials, seed=args.seed, only=only)
    _emit_json(report, args.out)
    return 0 if report["all_pass"] else 1


def _load_state(path, name: str) -> oracle.DensityMatrix:
    """The state in a .npy or .json file; errors about its matrix name it (rho0, rho1)."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"state file not found: {path}")
    if p.suffix not in (".npy", ".json"):
        raise ConfigError(f"{path}: unsupported state file type {p.suffix!r} (use .npy or .json)")
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
    if rho1.data.shape != rho0.data.shape:
        raise InvalidParameter("rho1", f"shape {rho1.data.shape} is not rho0's {rho0.data.shape}")
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

    def common(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--config", help="parameter file (JSON or key=value text)")
        source.add_argument("--preset",
                            help=f"named parameter set: {', '.join(sorted(PRESETS))}")
        p.add_argument("--out", default="-", help="output path ('-' for stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("roc", help="receiver operating characteristics")
    common(p)
    p.add_argument("--receivers", default="sfg,ci", help="comma list from {sfg, ci}")
    p.set_defaults(func=cmd_roc)

    p = sub.add_parser("bayes-sweep", help="error probabilities vs log10(M)")
    common(p)
    p.add_argument("--log10-start", type=float, help="sweep start exponent of M")
    p.add_argument("--log10-stop", type=float, help="sweep stop exponent of M")
    p.add_argument("--points", type=int, help="number of sweep points")
    p.set_defaults(func=cmd_bayes_sweep)

    p = sub.add_parser("snr", help="OPA and CI signal-to-noise ratios")
    common(p)
    p.set_defaults(func=cmd_snr)

    p = sub.add_parser("validate", help="run the cross-validation check suite")
    p.add_argument("--out", default="-")
    p.add_argument("--trials", type=int, default=200,
                   help="trial count for randomized checks (>= 1); mc-determinism runs at "
                        "least 100 and mc-coverage at least 10000")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--only", action="append",
                   help="run only the named checks (comma list, repeatable)")
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

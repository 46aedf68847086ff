import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import speckleqi
from speckleqi import analytic, cli, oracle, sfg_mean_counts, thermal_state, validate
from speckleqi.cli import _FLOAT, _SWEEP_BLOCK, PRESETS, _float_text, _sweep_csv, main
from speckleqi.params import FIG2A, FIG2B, InvalidParameter, SystemParams, fading_pdf


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestPresets:
    def test_caption_parameters(self):
        for name in ("fig2a", "fig2b", "fig3a", "fig3b"):
            p = PRESETS[name].params
            assert p["kappa_bar"] == 0.01
            assert p["N_B"] == 20.0
            assert p["epsilon"] == 0.01
            assert p["pi0"] == 0.5
        assert PRESETS["fig2a"].params["N_S"] == 1e-4
        assert PRESETS["fig2a"].params["M"] == 10 ** 8.5
        assert PRESETS["fig2b"].params["N_S"] == 1e-2
        assert PRESETS["fig2b"].params["M"] == 10 ** 6.5

    def test_one_table_with_fig3_aliases(self):
        assert PRESETS["fig2a"].params is FIG2A
        assert PRESETS["fig2b"].params is FIG2B
        assert PRESETS["fig3a"] is PRESETS["fig2a"]
        assert PRESETS["fig3b"] is PRESETS["fig2b"]
        with pytest.raises(TypeError):
            FIG2A["M"] = 1.0


class TestRocCommand:
    def test_fig2a_vertex_row(self, tmp_path):
        out = tmp_path / "roc.csv"
        assert run_cli("roc", "--preset", "fig2a", "--out", str(out)) == 0
        _, rows = read_csv(out)
        vertex = [r for r in rows if r["receiver"] == "sfg"
                  and r["point_kind"] == "vertex" and r["threshold"] == "0"]
        assert len(vertex) == 1
        assert float(vertex[0]["p_false_alarm"]) == pytest.approx(2.3020550252356094e-4,
                                                                  rel=1e-12)
        assert float(vertex[0]["p_detect"]) == pytest.approx(0.9399517491329434, rel=1e-12)
        kinds = {r["point_kind"] for r in rows}
        assert kinds == {"vertex", "randomized", "continuous"}

    def test_fig2b_vertex_row(self, tmp_path):
        out = tmp_path / "roc.csv"
        run_cli("roc", "--preset", "fig2b", "--out", str(out))
        _, rows = read_csv(out)
        vertex = [r for r in rows if r["point_kind"] == "vertex" and r["threshold"] == "0"]
        assert float(vertex[0]["p_false_alarm"]) == pytest.approx(2.2507594416123242e-2,
                                                                  rel=1e-12)

    def test_degenerate_point_gives_diagonals(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"M": 1, "N_S": 1e-4, "N_B": 20, "kappa_bar": 0.01}')
        out = tmp_path / "roc.csv"
        assert run_cli("roc", "--config", str(cfg), "--out", str(out)) == 0
        _, rows = read_csv(out)
        for r in rows:
            p_f, p_d = float(r["p_false_alarm"]), float(r["p_detect"])
            assert p_d == pytest.approx(p_f, abs=1e-6)

    def test_receiver_filter_and_json(self, tmp_path):
        out = tmp_path / "roc.json"
        assert run_cli("roc", "--preset", "fig2a", "--receivers", "sfg",
                       "--format", "json", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert all(rec["receiver"] == "sfg" for rec in payload)

    def test_unknown_receiver_is_invalid_parameter(self, tmp_path):
        assert run_cli("roc", "--preset", "fig2a", "--receivers", "opa") == 3

    @pytest.mark.parametrize("receivers", [",", "", " , "])
    def test_empty_receiver_list_names_field(self, tmp_path, capsys, receivers):
        out = tmp_path / "roc.csv"
        assert run_cli("roc", "--receivers", receivers, "--out", str(out)) == 3
        assert "invalid parameter receivers:" in capsys.readouterr().err
        assert not out.exists()


class TestBayesSweepCommand:
    def test_fig3a_row_at_log10m_8p5(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("bayes-sweep", "--preset", "fig3a", "--out", str(out)) == 0
        _, rows = read_csv(out)
        row = [r for r in rows if abs(float(r["log10_M"]) - 8.5) < 1e-9][0]
        assert float(row["p_error_sfg"]) == pytest.approx(0.030139228184790062, rel=1e-12)
        assert float(row["p_error_ci"]) == pytest.approx(0.10661078173957317, rel=1e-12)
        assert float(row["p_error_sfg_limit"]) == pytest.approx(0.02974174357598774,
                                                                rel=1e-12)

    def test_fig3b_threshold_jump_marker(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli("bayes-sweep", "--preset", "fig3b", "--out", str(out))
        _, rows = read_csv(out)
        jumps = [r for r in rows if r["threshold_jump"] == "1"]
        assert jumps, "expected the threshold-increment marker inside the preset range"
        first = jumps[0]
        assert first["sfg_threshold"] == "1"
        # the jump happens where the threshold first leaves 0
        earlier = [r for r in rows if float(r["M"]) < float(first["M"])]
        assert all(r["sfg_threshold"] == "0" for r in earlier)

    def test_fig3a_jump_in_range_too(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli("bayes-sweep", "--preset", "fig3a", "--out", str(out))
        _, rows = read_csv(out)
        assert any(r["threshold_jump"] == "1" for r in rows)

    def test_single_point_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("bayes-sweep", "--preset", "fig3a", "--log10-start", "8.5",
                       "--log10-stop", "8.5", "--points", "1", "--out", str(out)) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1

    def test_single_point_is_the_start(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("bayes-sweep", "--preset", "fig3a", "--log10-start", "3",
                       "--log10-stop", "5", "--points", "1", "--out", str(out)) == 0
        _, rows = read_csv(out)
        assert [float(r["M"]) for r in rows] == [1000.0]

    @pytest.mark.parametrize("start,stop,points", [
        ("9", "5", "5"),        # start > stop
        ("8", "8", "3"),        # start == stop with several points
        ("300", "1000", "3"),   # the last two M overflow to the same infinity
    ])
    def test_non_increasing_m_names_log10_stop(self, tmp_path, capsys, start, stop, points):
        out = tmp_path / "sweep.csv"
        assert run_cli("bayes-sweep", "--preset", "fig3a", "--log10-start", start,
                       "--log10-stop", stop, "--points", points, "--out", str(out)) == 3
        assert "invalid parameter log10-stop:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("points", ["0", "-2"])
    def test_points_below_one_names_points(self, capsys, points):
        assert run_cli("bayes-sweep", "--preset", "fig3a", "--points", points) == 3
        assert "invalid parameter points:" in capsys.readouterr().err

    def test_points_beyond_numpy_array_size_name_points(self, tmp_path, capsys):
        # numpy's "Maximum allowed size exceeded" left main as a ValueError naming no field
        out = tmp_path / "sweep.csv"
        assert run_cli("bayes-sweep", "--preset", "fig3a", "--points", str(10 ** 20),
                       "--out", str(out)) == 3
        assert capsys.readouterr().err.startswith(f"invalid parameter points: {10 ** 20} ")
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--log10-start", "--log10-stop"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_exponent_names_option(self, capsys, option, value):
        assert run_cli("bayes-sweep", "--preset", "fig3a", f"{option}={value}") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"invalid parameter {option[2:]}: must be finite")
        assert "Warning" not in err

    def test_single_overflowing_point_names_m(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run_cli("bayes-sweep", "--preset", "fig3a", "--log10-start", "400",
                       "--points", "1", "--out", str(out)) == 3
        assert "invalid parameter M:" in capsys.readouterr().err
        assert not out.exists()  # bayes_sweep rejects M before the output is opened

    def test_asymptotic_blank_below_validity(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli("bayes-sweep", "--preset", "fig3b", "--log10-start", "3",
                "--log10-stop", "5", "--points", "5", "--out", str(out))
        _, rows = read_csv(out)
        assert rows[0]["p_error_ci_asymptotic"] == ""

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("bayes-sweep", "--preset", "fig3a", "--out", str(a))
        run_cli("bayes-sweep", "--preset", "fig3a", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_json_long_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        run_cli("bayes-sweep", "--preset", "fig3a", "--points", "3",
                "--format", "json", "--out", str(out))
        payload = json.loads(out.read_text())
        keys = {(r["receiver"], r["point"], r["metric"]) for r in payload}
        assert len(keys) == len(payload)  # one record per (receiver, point, metric)
        assert all(r["ci_low"] is None and r["ci_high"] is None for r in payload)


# md5 of `bayes-sweep` CSV output, recorded from the per-point implementation
# the batched sweep replaced; any change to a byte of any row changes them.
DECLARE_CONFIG = '{"M": 1e5, "N_S": 0.01, "N_B": 20, "kappa_bar": 0.01, "pi0": 0.02}'
SWEEP_MD5 = {
    "fig3a": (["--preset", "fig3a"], "7689474d8f6454880616290d5820b871"),
    "fig3b": (["--preset", "fig3b"], "e6d0e49239a824dc758ae0ee778e745e"),
    "fig3a-100k": (["--preset", "fig3a", "--points", "100000"],
                   "1cdc3eebef527fad2fe2600337e131c5"),
    "fig3b-100k": (["--preset", "fig3b", "--points", "100000"],
                   "fde7040e3c5a8bfa68c452fcbaf1df9f"),
    # degenerate rows (N1 <= N0: empty threshold) and blank asymptotic values
    "fig3b-degenerate": (["--preset", "fig3b", "--log10-start", "3", "--log10-stop", "5",
                          "--points", "5"], "0a1af5b211626330f1e002ede04af71e"),
    # always-declare rows (threshold -1) and the CI false-alarm clamp at 1
    "always-declare": (["--config", None, "--log10-start", "5", "--log10-stop", "9",
                        "--points", "5"], "7bdc89f69a7d5c9ad2eb815015b642f8"),
}


# md5 of `bayes-sweep --format json`, recorded from the per-record
# implementation the column-built records replaced.
SWEEP_JSON_MD5 = {
    "fig3a": (["--preset", "fig3a"], "ac129704e665ecd013c639c543986f5a"),
    "fig3b": (["--preset", "fig3b"], "f14a161c46530602d4e910a67da7be59"),
    "config": (["--config", None], "29a52b992b868a674c0c9cce63b9f083"),
}


def _sweep_digest(tmp_path, argv, fmt):
    cfg = tmp_path / "declare.json"
    cfg.write_text(DECLARE_CONFIG)
    argv = [str(cfg) if a is None else a for a in argv]
    out = tmp_path / f"sweep.{fmt}"
    assert run_cli("bayes-sweep", *argv, "--format", fmt, "--out", str(out)) == 0
    return hashlib.md5(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(SWEEP_MD5))
def test_bayes_sweep_csv_bytes(tmp_path, name):
    argv, digest = SWEEP_MD5[name]
    assert _sweep_digest(tmp_path, argv, "csv") == digest


@pytest.mark.parametrize("name", sorted(SWEEP_JSON_MD5))
def test_bayes_sweep_json_bytes(tmp_path, name):
    argv, digest = SWEEP_JSON_MD5[name]
    assert _sweep_digest(tmp_path, argv, "json") == digest


def reference_sweep_csv(sweep):
    """The per-row %-template writer the block writer replaced: one template per
    row shape (a threshold and an asymptotic value present or blank)."""
    def template(has_threshold, has_asymptotic):
        blank = "%.0s"  # consumes a blank field's value and prints nothing
        return ",".join([_FLOAT] * 3 + ["%d" if has_threshold else blank] + [_FLOAT] * 3
                        + [_FLOAT if has_asymptotic else blank, "%d"])

    templates = [template(t, a) for t in (False, True) for a in (False, True)]
    n_t = sweep.sfg_threshold
    jump = np.zeros(n_t.shape, dtype=bool)
    jump[1:] = n_t[1:] > n_t[:-1]
    shape = 2 * ~np.isnan(n_t) + ~np.isnan(sweep.ci_asymptotic)
    m = sweep.M.tolist()
    columns = (sweep.x, n_t, sweep.sfg_p_error, sweep.sfg_limit, sweep.ci_p_error,
               sweep.ci_asymptotic, jump)
    rows = zip(map(math.log10, m), m, *(c.tolist() for c in columns))
    lines = [",".join(speckleqi.cli._SWEEP_HEADER)]
    lines.extend(templates[k] % row for k, row in zip(shape.tolist(), rows))
    return ("\n".join(lines) + "\n").encode()


def written(values):
    """_float_text of each value, one per line."""
    text = _float_text(np.asarray(values, dtype=float))
    block = np.hstack([text, np.full((len(text), 1), ord("\n"), np.uint8)])
    return block[block != 0].tobytes().decode()


def formatted(values):
    """_FLOAT % value, one per line: what _float_text must equal."""
    return "".join(_FLOAT % v + "\n" for v in np.asarray(values, dtype=float).tolist())


class TestFloatWriter:
    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20261018).integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64)
        assert written(bits.view(np.float64)) == formatted(bits.view(np.float64))

    def test_log_uniform_values(self):
        values = 10.0 ** np.random.default_rng(11).uniform(-300.0, 300.0, 200_000)
        assert written(values) == formatted(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_any_floats(self, values):
        assert written(values) == formatted(values)

    def test_powers_of_ten_and_neighbours(self):
        powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
        values = np.concatenate([powers, np.nextafter(powers, 0.0),
                                 np.nextafter(powers, np.inf)])
        assert written(np.concatenate([values, -values])) == formatted(
            np.concatenate([values, -values]))

    def test_exact_ties_round_half_even(self):
        odd = np.random.default_rng(5).integers(2 ** 52, 2 ** 53, 400) | 1
        values = [float(m) / 2.0 ** j for m in odd.tolist() for j in range(0, 64)]
        ties = [v for v in values if (len(Decimal(v).as_tuple().digits) == 18
                                      and Decimal(v).as_tuple().digits[-1] == 5)]
        assert len(ties) > 100  # 18 significant digits ending in 5: a tie at 17 digits
        assert written(values) == formatted(values)

    def test_special_values(self):
        values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                  2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
                  -1.5, -0.1, 1e100, 1e-100, -1.2345678901234567e250, 9.999999999999999e-281,
                  1e-280, 1e280, 1.0000000000000002e280, 123.456]
        assert written(values) == formatted(values)


@pytest.mark.parametrize("rows", [_SWEEP_BLOCK - 1, _SWEEP_BLOCK, _SWEEP_BLOCK + 1])
@pytest.mark.parametrize("preset", ["fig3a", "fig3b"])
def test_block_writer_matches_template_writer(rows, preset):
    start = np.random.default_rng(rows).uniform(3.0, 7.0)
    sweep = analytic.bayes_sweep(SystemParams(**PRESETS[preset].params),
                                 np.logspace(start, start + 4.0, rows))
    assert b"".join(_sweep_csv(sweep)) == reference_sweep_csv(sweep)


def test_block_writer_on_arbitrary_columns():
    # values the closed forms do not produce: NaN, infinities, subnormals, -1 and
    # a threshold beyond int64, across a block boundary
    rng = np.random.default_rng(3)
    rows = _SWEEP_BLOCK + 1
    noise = rng.integers(0, 2 ** 64, (5, rows), dtype=np.uint64).view(np.float64)
    thresholds = rng.choice([np.nan, -1.0, 0.0, 7.0, 123456.0, 2e19], rows)
    sweep = analytic.BayesSweep(M=np.sort(10.0 ** rng.uniform(-300, 300, rows)), x=noise[0],
                                sfg_threshold=thresholds, sfg_p_error=noise[1],
                                sfg_limit=noise[2], ci_p_error=noise[3], ci_asymptotic=noise[4])
    assert b"".join(_sweep_csv(sweep)) == reference_sweep_csv(sweep)


def test_stdout_matches_file(tmp_path, capsysbinary):
    argv = ["bayes-sweep", "--preset", "fig3a", "--points", "20000"]
    assert 2 * _SWEEP_BLOCK < 20000 <= 3 * _SWEEP_BLOCK  # the rows span three blocks
    out = tmp_path / "sweep.csv"
    assert run_cli(*argv, "--out", str(out)) == 0
    assert run_cli(*argv, "--out", "-") == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_sweep_writer_peak_memory(tmp_path):
    # the blocks are written as they are rendered; joining them into one buffer
    # peaked at 43.5 MiB here
    out = tmp_path / "sweep.csv"
    tracemalloc.start()
    try:
        assert run_cli("bayes-sweep", "--preset", "fig3a", "--points", "100000",
                       "--out", str(out)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30 * 2 ** 20


def test_negative_exponents_and_blank_fields(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("bayes-sweep", "--preset", "fig3b", "--log10-start", "-3",
                   "--log10-stop", "4", "--points", "15", "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert float(rows[0]["log10_M"]) == -3.0
    assert rows[0]["sfg_threshold"] == "" and rows[-1]["sfg_threshold"] == "0"
    assert all(r["p_error_ci_asymptotic"] == "" for r in rows)
    sweep = analytic.bayes_sweep(SystemParams(**FIG2B), np.logspace(-3, 4, 15))
    assert out.read_bytes() == reference_sweep_csv(sweep)


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    def test_sweep_missing_asymptote_is_null(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run_cli("bayes-sweep", "--preset", "fig3b", "--log10-start", "3",
                       "--log10-stop", "5", "--points", "5", "--format", "json",
                       "--out", str(out)) == 0
        payload = strict_json(out.read_text())
        asym = [r["value"] for r in payload if r["metric"] == "p_error_asymptotic"]
        assert asym == [None] * 5

    def test_roc_never_declare_threshold_is_null(self, tmp_path):
        out = tmp_path / "roc.json"
        assert run_cli("roc", "--preset", "fig2a", "--format", "json", "--out", str(out)) == 0
        payload = strict_json(out.read_text())
        never = [r for r in payload if r["receiver"] == "sfg" and r["point_kind"] == "vertex"
                 and r["p_false_alarm"] == 0.0]
        assert [r["threshold"] for r in never] == [None]

    def test_snr_infinite_ratio_is_null(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"M": 1e8, "N_S": 1e-4, "N_B": 20, "kappa_bar": 1e-300}')
        out = tmp_path / "snr.json"
        assert run_cli("snr", "--config", str(cfg), "--format", "json", "--out", str(out)) == 0
        assert strict_json(out.read_text())["ratio_known_to_fading"] is None


class TestSnrCommand:
    def test_fig2a_values(self, tmp_path):
        out = tmp_path / "snr.csv"
        assert run_cli("snr", "--preset", "fig2a", "--out", str(out)) == 0
        _, rows = read_csv(out)
        row = rows[0]
        assert float(row["opa_snr_fading"]) == pytest.approx(1.7550250639866717e-10,
                                                             rel=1e-12)
        assert float(row["ci_snr"]) == pytest.approx(0.09967917999913548, rel=1e-12)
        assert float(row["opa_snr_known"]) == pytest.approx(15.811388300841898, rel=1e-12)
        assert float(row["ratio_known_to_fading"]) == pytest.approx(9.009209398369011e10,
                                                                    rel=1e-9)
        assert row["opa_in_window"] == "1"

    def test_fig2b_recomputes(self, tmp_path):
        out = tmp_path / "snr.csv"
        run_cli("snr", "--preset", "fig2b", "--out", str(out))
        _, rows = read_csv(out)
        assert float(rows[0]["opa_gain_minus_one"]) == pytest.approx(5e-3, rel=1e-12)

    def test_zero_over_zero_ratios_are_empty_fields(self, tmp_path):
        # every SNR underflows to 0, and the row ended "inf,nan"
        cfg = tmp_path / "c.cfg"
        cfg.write_text("M = 1e-300\nN_S = 1e-300\nN_B = 1\nkappa_bar = 0.5\n")
        out = tmp_path / "snr.csv"
        assert run_cli("snr", "--config", str(cfg), "--out", str(out)) == 0
        assert out.read_text().endswith(",,\n")
        _, (row,) = read_csv(out)
        assert float(row["opa_snr_fading"]) == float(row["opa_snr_known"]) == 0.0
        assert float(row["ci_snr"]) == 0.0
        assert row["ratio_known_to_fading"] == row["ratio_fading_to_ci"] == ""

    def test_ratio_over_zero_is_inf_and_zero_over_zero_is_nan(self):
        assert cli._ratio(2.0, 0.0) == math.inf
        assert math.isnan(cli._ratio(0.0, 0.0))
        assert cli._ratio(0.0, 4.0) == 0.0
        assert cli._ratio(1.0, 4.0) == 0.25

    def test_csv_writes_nan_as_an_empty_field(self):
        (text,) = cli._csv(["a", "b", "c", "d"], [(math.nan, np.float64("nan"), math.inf, 1.0)])
        assert text == b"a,b,c,d\n,,inf,1.0000000000000000e+00\n"

    def test_near_zero_intensity_collapses_everything(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"M": 1e8, "N_S": 1e-4, "N_B": 20, "kappa_bar": 1e-150}')
        out = tmp_path / "snr.csv"
        run_cli("snr", "--config", str(cfg), "--out", str(out))
        _, rows = read_csv(out)
        assert float(rows[0]["opa_snr_fading"]) == pytest.approx(0.0, abs=1e-300)
        assert float(rows[0]["opa_snr_known"]) == pytest.approx(0.0, abs=1e-140)
        assert float(rows[0]["ci_snr"]) == pytest.approx(0.0, abs=1e-140)


class TestExitCodes:
    def test_unreadable_config(self):
        assert run_cli("roc", "--config", "/nonexistent/path.json") == 2

    def test_repeated_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("M = 1e8\nN_S = 0.01\nN_B = 5\nkappa_bar = 0.02\nM = 1e9\n")
        out = tmp_path / "snr.csv"
        assert run_cli("snr", "--config", str(cfg), "--out", str(out)) == 2
        assert "key M: given more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_parameter_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"M": -5, "N_S": 1e-4, "N_B": 20, "kappa_bar": 0.01}')
        assert run_cli("roc", "--config", str(cfg)) == 3
        assert "M" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["roc", "snr"])
    @pytest.mark.parametrize("field", ["M", "N_S", "N_B"])
    def test_non_finite_parameter_names_field(self, tmp_path, capsys, command, field):
        # JSON reads 1e400 as inf
        values = {"M": "1e8", "N_S": "1e-4", "N_B": "20", field: "1e400"}
        cfg = tmp_path / "c.json"
        cfg.write_text('{"M": %(M)s, "N_S": %(N_S)s, "N_B": %(N_B)s, "kappa_bar": 0.01}'
                       % values)
        assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")) == 3
        assert f"invalid parameter {field}:" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("key", ["fading.kappa", "fading.phi"])
    def test_fading_value_keys_are_unknown(self, tmp_path, capsys, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"M = 1e8\nN_S = 1e-4\nN_B = 20\nkappa_bar = 0.01\n{key} = 0.5\n")
        out = tmp_path / "o.csv"
        assert run_cli("roc", "--config", str(cfg), "--out", str(out)) == 2
        assert f"unknown keys: ['{key}']" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_overflowing_to_infinite_m(self, capsys):
        assert run_cli("bayes-sweep", "--preset", "fig3a", "--log10-start", "300",
                       "--log10-stop", "309", "--points", "3") == 3
        assert "M" in capsys.readouterr().err

    def test_unknown_preset(self):
        assert run_cli("roc", "--preset", "fig9z") == 2

    @pytest.mark.parametrize("option", ["--config", "--preset"])
    def test_empty_parameter_source_rejected(self, tmp_path, option):
        out = tmp_path / "o.csv"
        assert run_cli("snr", option, "", "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["roc", "snr", "bayes-sweep"])
    def test_config_and_preset_together_rejected(self, tmp_path, capsys, command):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"M": 1e8, "N_S": 1e-4, "N_B": 20, "kappa_bar": 0.01}')
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--config", str(cfg), "--preset", "fig2b", "--out", str(out))
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["roc", "snr", "bayes-sweep"])
    @pytest.mark.parametrize("name,extra,key", [
        ("c.json", ', "fading": {"kind": "rayleigh"}', "fading"),
        ("c.json", ', "fading.kind": "rayleigh"', "fading.kind"),
        ("c.json", ', "fading.kind": "rician", "fading.phi": 0.7', "fading.kind"),
        ("c.cfg", "\nfading.kind = deterministic", "fading.kind"),
    ], ids=["json-nested", "json-dotted", "json-dotted-rician", "text-dotted"])
    def test_fading_block_is_an_unknown_key(self, tmp_path, capsys, command, name, extra, key):
        # Rayleigh fading is the only law modelled, so a fading block is
        # rejected as a usage error naming the key, whatever its kind
        cfg = tmp_path / name
        if name == "c.json":
            cfg.write_text('{"M": 1e8, "N_S": 1e-4, "N_B": 20, "kappa_bar": 0.01%s}' % extra)
        else:
            cfg.write_text("M = 1e8\nN_S = 1e-4\nN_B = 20\nkappa_bar = 0.01%s\n" % extra)
        assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown keys: [") and f"'{key}'" in err
        assert not (tmp_path / "o.csv").exists()


class TestValidateCommand:
    def test_default_run_passes(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("validate", "--trials", "150", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["all_pass"]
        assert all(c["passed"] for c in report["checks"])

    def test_injected_bad_mean_count_fails_weld(self, tmp_path, monkeypatch):
        def broken(params):
            n0, n1 = sfg_mean_counts(params)
            return 2.0 * n0 + 0.01, n1

        monkeypatch.setattr(validate, "sfg_mean_counts", broken)
        out = tmp_path / "report.json"
        assert run_cli("validate", "--only", "thermal-weld", "--out", str(out)) == 1
        (result,) = json.loads(out.read_text())["checks"]
        assert not result["passed"]
        assert result["tolerance"] == 1e-8

    def test_only_concavity_with_trials(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("validate", "--only", "helstrom-concavity", "--trials", "1000",
                       "--out", str(out)) == 0
        report = json.loads(out.read_text())
        (check,) = report["checks"]
        # measured is -min_slack; the concavity slack never dips below -1e-9
        assert check["measured"] <= 1e-9

    def test_report_gives_the_trials_each_check_ran(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("validate", "--trials", "50", "--only",
                       "helstrom-concavity,mc-determinism,mc-coverage,thermal-weld",
                       "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["trials"] == 50
        assert {c["name"]: c["trials"] for c in report["checks"]} == {
            "helstrom-concavity": 50, "mc-determinism": 100, "mc-coverage": 10_000,
            "thermal-weld": None}

    def test_unknown_check_rejected(self, capsys):
        assert run_cli("validate", "--only", "nonsense") == 3
        assert "invalid parameter only:" in capsys.readouterr().err

    @pytest.mark.parametrize("only", [",", ""])
    def test_empty_selection_names_only(self, tmp_path, capsys, only):
        out = tmp_path / "report.json"
        assert run_cli("validate", "--only", only, "--out", str(out)) == 3
        assert "invalid parameter only:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_names_trials(self, tmp_path, capsys, trials):
        out = tmp_path / "report.json"
        assert run_cli("validate", "--only", "helstrom-concavity", "--trials", trials,
                       "--out", str(out)) == 3
        assert "invalid parameter trials:" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_names_seed(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run_cli("validate", "--seed", "-1", "--only", "derived-x-scaling",
                       "--out", str(out)) == 3
        assert "invalid parameter seed:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("trials, seed, field", [
        (150.5, 0, "trials"), (True, 0, "trials"), (200, 1.5, "seed"), (200, True, "seed")])
    def test_library_fields_rejected_by_name(self, trials, seed, field):
        # a float reached the checks as a bare TypeError; True ran as 1
        with pytest.raises(InvalidParameter, match=f"^{field}: must be an integer"):
            validate.run_validation(trials=trials, seed=seed, only=["helstrom-concavity"])

    @pytest.mark.parametrize("check", ["fading-pdf-normalization", "fading-mean-intensity"])
    def test_planted_pdf_scale_fails_quadrature_check(self, tmp_path, monkeypatch, check):
        # a pdf one part in 1e9 too large must fail at the unchanged 1e-10 tolerance
        monkeypatch.setattr(validate, "fading_pdf",
                            lambda kappa_bar, t: (1.0 + 1e-9) * fading_pdf(kappa_bar, t))
        out = tmp_path / "report.json"
        assert run_cli("validate", "--only", check, "--out", str(out)) == 1
        (result,) = json.loads(out.read_text())["checks"]
        assert not result["passed"]
        assert result["tolerance"] == 1e-10

    def test_planted_bad_curve_fails_roc_invariants(self, tmp_path, monkeypatch):
        # an SFG curve whose P_D falls must count once per parameter point
        monkeypatch.setattr(analytic, "sfg_roc", lambda params: analytic.RocCurve(
            [[0.0, 0.0], [0.3, 0.6], [0.6, 0.4], [1.0, 1.0]]))
        out = tmp_path / "report.json"
        assert run_cli("validate", "--only", "roc-invariants", "--out", str(out)) == 1
        (result,) = json.loads(out.read_text())["checks"]
        assert not result["passed"]
        assert result["measured"] == 3

    def test_planted_background_error_fails_zero_return_weld(self, tmp_path, monkeypatch):
        # a channel whose background is 1% too bright must fail the weld; when
        # the check compared the channel with itself it read 0.0 under this fault
        real = oracle.apply_return_channel
        monkeypatch.setattr(oracle, "apply_return_channel",
                            lambda state, kappa, phi, n_b, *rest, **kwargs:
                            real(state, kappa, phi, 1.01 * n_b, *rest, **kwargs))
        out = tmp_path / "report.json"
        assert run_cli("validate", "--only", "chernoff-at-zero-return", "--out", str(out)) == 1
        (result,) = json.loads(out.read_text())["checks"]
        assert not result["passed"]
        assert result["measured"] > 1e-6
        assert result["tolerance"] == 1e-8


class TestOracleCommand:
    def test_npy_states(self, tmp_path):
        r0, r1 = tmp_path / "r0.npy", tmp_path / "r1.npy"
        np.save(r0, thermal_state(0.0, 40).data)
        np.save(r1, thermal_state(1.0, 40, trace_deficit_tol=1e-5).data)
        out = tmp_path / "report.json"
        assert run_cli("oracle", "--rho0", str(r0), "--rho1", str(r1),
                       "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["helstrom_error"] == pytest.approx(0.25, abs=1e-9)
        assert report["qcb_exponent"] == pytest.approx(math.log(2), abs=1e-6)

    def test_json_states(self, tmp_path):
        r0, r1 = tmp_path / "r0.json", tmp_path / "r1.json"
        r0.write_text(json.dumps({"re": [[1.0, 0.0], [0.0, 0.0]]}))
        r1.write_text(json.dumps({"re": [[0.0, 0.0], [0.0, 1.0]]}))
        out = tmp_path / "report.json"
        assert run_cli("oracle", "--rho0", str(r0), "--rho1", str(r1),
                       "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["helstrom_error"] == pytest.approx(0.0, abs=1e-12)

    def test_prior_outside_unit_interval_rejected(self, tmp_path, capsys):
        r0, r1 = tmp_path / "r0.json", tmp_path / "r1.json"
        r0.write_text(json.dumps({"re": [[0.7, 0.0], [0.0, 0.3]]}))
        r1.write_text(json.dumps({"re": [[0.2, 0.0], [0.0, 0.8]]}))
        out = tmp_path / "report.json"
        assert run_cli("oracle", "--rho0", str(r0), "--rho1", str(r1), "--pi0", "1.5",
                       "--out", str(out)) == 3
        assert "pi0" in capsys.readouterr().err
        assert not out.exists()

    def test_non_hermitian_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"re": [[0.5, 0.4], [0.0, 0.5]]}))
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"re": [[0.5, 0.0], [0.0, 0.5]]}))
        assert run_cli("oracle", "--rho0", str(bad), "--rho1", str(good)) == 3

    @pytest.mark.parametrize("matrix", ["[[NaN, 0.0], [0.0, 1.0]]", "[[0, 0], [0, 0]]",
                                        "[[1, 0], [0, -1]]", "[[1, 0], [0, -0.5]]",
                                        "[[0.5, 0.5]]", "[0.5, 0.5]", "[[]]"],
                             ids=["nan", "zero", "traceless", "indefinite", "non-square",
                                  "vector", "one-by-zero"])
    def test_matrix_that_is_not_a_state_names_it(self, tmp_path, capsys, matrix):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"re": [[0.5, 0.0], [0.0, 0.5]]}))
        bad = tmp_path / "bad.json"
        bad.write_text('{"re": %s}' % matrix)
        out = tmp_path / "report.json"
        assert run_cli("oracle", "--rho0", str(good), "--rho1", str(bad),
                       "--out", str(out)) == 3
        assert "rho1" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_npy_state_names_it(self, tmp_path, capsys):
        # a 0 x 0 matrix passed the shape check and failed the Hermitian check's
        # max() with a ValueError naming no field
        good, empty = tmp_path / "good.json", tmp_path / "empty.npy"
        good.write_text(json.dumps({"re": [[1.0]]}))
        np.save(empty, np.zeros((0, 0)))
        assert run_cli("oracle", "--rho0", str(empty), "--rho1", str(good)) == 3
        assert capsys.readouterr().err == ("invalid parameter rho0: expected a non-empty "
                                           "square matrix, got (0, 0)\n")

    @pytest.mark.parametrize("name,text", [("bad.json", '{"im": [[0.0]]}'),
                                           ("bad.json", '[[1.0]]'),
                                           ("bad.json", '{"re": [[1.0]]'),
                                           ("bad.json", '{"re": {"a": 1.0}}'),
                                           ("bad.npy", "not an array"),
                                           ("bad.txt", '{"re": [[1.0]]}')],
                             ids=["no-re", "list", "malformed", "re-not-numeric", "npy",
                                  "suffix"])
    def test_unreadable_state_file_is_input_error(self, tmp_path, capsys, name, text):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"re": [[1.0]]}))
        bad = tmp_path / name
        bad.write_text(text)
        assert run_cli("oracle", "--rho0", str(bad), "--rho1", str(good)) == 2
        assert str(bad) in capsys.readouterr().err

    def test_states_of_different_dimension_name_rho1(self, tmp_path, capsys):
        # the mismatch surfaced from qcb as a ValueError naming no field
        r0, r1 = tmp_path / "r0.json", tmp_path / "r1.json"
        r0.write_text(json.dumps({"re": np.eye(2).tolist()}))
        r1.write_text(json.dumps({"re": np.eye(3).tolist()}))
        out = tmp_path / "report.json"
        assert run_cli("oracle", "--rho0", str(r0), "--rho1", str(r1), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("invalid parameter rho1: ")
        assert "(3, 3)" in err and "(2, 2)" in err
        assert not out.exists()

    def test_missing_file(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"re": [[1.0]]}))
        assert run_cli("oracle", "--rho0", str(tmp_path / "no.npy"),
                       "--rho1", str(good)) == 2


IMPORT_BUDGET = textwrap.dedent("""
    import json, sys
    import speckleqi.cli
    scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    loaded = set(sys.modules)
    import speckleqi
    from speckleqi import montecarlo
    from speckleqi.params import FIG2A
    from speckleqi.validate import run_validation
    speckleqi.fading_exponent_trend(
        speckleqi.SystemParams(M=100.0, N_S=0.1, N_B=0.3, kappa_bar=0.5), [1], dim=3,
        nodes=(16, 33))
    run_validation(only=["thermal-weld", "fading-pdf-normalization", "helstrom-concavity"])
    montecarlo.estimate_bayes_error(montecarlo.Receiver.SFG, speckleqi.SystemParams(**FIG2A),
                                    montecarlo.McConfig(trials=1000))
    new = sorted(m for m in set(sys.modules) - loaded if m.split(".")[0] == "numpy")
    print(json.dumps({"scipy": scipy, "numpy_after_import": new}))
""")


def run_python(code):
    """code run in a fresh interpreter that imports this speckleqi: its stdout."""
    src = str(Path(speckleqi.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_budget():
    """The CLI imports numpy alone, and loads at import every numpy module that
    a first trend, validate or Monte Carlo operation uses."""
    assert json.loads(run_python(IMPORT_BUDGET)) == {"scipy": [], "numpy_after_import": []}


def test_cli_start_up_loads_no_thread_pool():
    """The Monte Carlo executors import concurrent.futures when an estimate first
    needs them: with it come logging, queue, heapq and traceback, which no CLI
    start-up should pay for."""
    loaded = run_python("import sys, speckleqi.cli\n"
                        "print(*sorted({'concurrent.futures', 'queue'} & set(sys.modules)))")
    assert loaded.split() == []

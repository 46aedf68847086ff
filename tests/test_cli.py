import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import speckleqi
from speckleqi import thermal_state, validate
from speckleqi.cli import PRESETS, main
from speckleqi.params import FIG2A, FIG2B, fading_pdf


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

    @pytest.mark.filterwarnings("ignore:overflow encountered in power")
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

    @pytest.mark.filterwarnings("ignore:overflow encountered in power")
    def test_single_overflowing_point_names_m(self, capsys):
        assert run_cli("bayes-sweep", "--preset", "fig3a", "--log10-start", "400",
                       "--points", "1") == 3
        assert "invalid parameter M:" in capsys.readouterr().err

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

    def test_non_finite_phase_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"M": 1e8, "N_S": 1e-4, "N_B": 20, "kappa_bar": 0.01,'
                       ' "fading.kind": "deterministic", "fading.kappa": 0.5,'
                       ' "fading.phi": 1e400}')
        assert run_cli("roc", "--config", str(cfg), "--out", str(tmp_path / "o.csv")) == 3
        assert "invalid parameter phi:" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("key", ["fading.kappa", "fading.phi"])
    def test_non_numeric_fading_value_names_key(self, tmp_path, capsys, key):
        cfg = tmp_path / "c.cfg"
        values = {"fading.kappa": "0.5", "fading.phi": "0.7", key: "abc"}
        cfg.write_text("M = 1e8\nN_S = 1e-4\nN_B = 20\nkappa_bar = 0.01\n"
                       "fading.kind = deterministic\n"
                       + "".join(f"{k} = {v}\n" for k, v in values.items()))
        assert run_cli("roc", "--config", str(cfg), "--out", str(tmp_path / "o.csv")) == 2
        assert f"key {key}: not a number" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered in power")
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
    @pytest.mark.parametrize("fading", [
        '"fading.kind": "deterministic", "fading.kappa": 0.01',
        '"fading.kind": "truncated_rayleigh"',
    ])
    def test_fading_kind_without_closed_form(self, tmp_path, capsys, command, fading):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"M": 1e8, "N_S": 1e-4, "N_B": 20, "kappa_bar": 0.01, %s}' % fading)
        assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")) == 3
        assert "fading.kind" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("command", ["roc", "snr", "bayes-sweep"])
    def test_explicit_rayleigh_matches_default(self, tmp_path, command):
        base = '{"M": 1e8, "N_S": 1e-4, "N_B": 20, "kappa_bar": 0.01%s}'
        outputs = []
        for extra in ("", ', "fading": {"kind": "rayleigh"}'):
            cfg = tmp_path / "c.json"
            cfg.write_text(base % extra)
            out = tmp_path / f"o{len(outputs)}.csv"
            assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestValidateCommand:
    def test_default_run_passes(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("validate", "--trials", "150", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["all_pass"]
        assert all(c["passed"] for c in report["checks"])

    def test_injected_bad_mean_count_fails_weld(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("validate", "--only", "thermal-weld", "--inject-bad-n0",
                       "--out", str(out)) == 1
        report = json.loads(out.read_text())
        assert not report["all_pass"]

    def test_only_concavity_with_trials(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("validate", "--only", "helstrom-concavity", "--trials", "1000",
                       "--out", str(out)) == 0
        report = json.loads(out.read_text())
        (check,) = report["checks"]
        # measured is -min_slack; the concavity slack never dips below -1e-9
        assert check["measured"] <= 1e-9

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

    @pytest.mark.parametrize("check", ["fading-pdf-normalization", "fading-mean-intensity"])
    def test_planted_pdf_scale_fails_quadrature_check(self, tmp_path, monkeypatch, check):
        # a pdf one part in 1e9 too large must fail at the unchanged 1e-10 tolerance
        monkeypatch.setattr(validate, "fading_pdf",
                            lambda model, t: (1.0 + 1e-9) * fading_pdf(model, t))
        out = tmp_path / "report.json"
        assert run_cli("validate", "--only", check, "--out", str(out)) == 1
        (result,) = json.loads(out.read_text())["checks"]
        assert not result["passed"]
        assert result["tolerance"] == 1e-10


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
                                        "[[1, 0], [0, -1]]"],
                             ids=["nan", "zero", "traceless"])
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

    @pytest.mark.parametrize("name,text", [("bad.json", '{"im": [[0.0]]}'),
                                           ("bad.json", '[[1.0]]'),
                                           ("bad.json", '{"re": [[1.0]]'),
                                           ("bad.json", '{"re": {"a": 1.0}}'),
                                           ("bad.npy", "not an array")],
                             ids=["no-re", "list", "malformed", "re-not-numeric", "npy"])
    def test_unreadable_state_file_is_input_error(self, tmp_path, capsys, name, text):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"re": [[1.0]]}))
        bad = tmp_path / name
        bad.write_text(text)
        assert run_cli("oracle", "--rho0", str(bad), "--rho1", str(good)) == 2
        assert str(bad) in capsys.readouterr().err

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


def test_import_budget():
    """The CLI imports numpy alone, and loads at import every numpy module that
    a first trend, validate or Monte Carlo operation uses."""
    src = str(Path(speckleqi.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_BUDGET], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"scipy": [], "numpy_after_import": []}

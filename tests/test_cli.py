import hashlib
import json
import math

import numpy as np
import pytest

from speckleqi import thermal_state
from speckleqi.cli import PRESETS, CurveRecord, SweepSpec, main
from speckleqi.params import FIG2A, FIG2B


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestTypes:
    def test_sweep_spec_rejects_empty(self):
        with pytest.raises(ValueError):
            SweepSpec(axis="M", values=(), fixed={})

    def test_sweep_spec_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            SweepSpec(axis="M", values=(1.0, 1.0, 2.0), fixed={})

    def test_sweep_spec_rejects_repeated_infinity(self):
        with pytest.raises(ValueError):
            SweepSpec(axis="M", values=(1.0, math.inf, math.inf), fixed={})

    def test_log_range_single_point(self):
        spec = SweepSpec.log_range("M", 3.0, 5.0, 1, fixed={})
        assert spec.values == (1000.0,)

    def test_curve_record_defaults(self):
        rec = CurveRecord(receiver="sfg", point=1.0, metric="p_error", value=0.1)
        assert rec.ci_low is None and rec.ci_high is None


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


@pytest.mark.parametrize("name", sorted(SWEEP_MD5))
def test_bayes_sweep_csv_bytes(tmp_path, name):
    argv, digest = SWEEP_MD5[name]
    cfg = tmp_path / "declare.json"
    cfg.write_text(DECLARE_CONFIG)
    argv = [str(cfg) if a is None else a for a in argv]
    out = tmp_path / "sweep.csv"
    assert run_cli("bayes-sweep", *argv, "--out", str(out)) == 0
    assert hashlib.md5(out.read_bytes()).hexdigest() == digest


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

    def test_invalid_parameter_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"M": -5, "N_S": 1e-4, "N_B": 20, "kappa_bar": 0.01}')
        assert run_cli("roc", "--config", str(cfg)) == 3
        assert "M" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered in power")
    def test_sweep_overflowing_to_infinite_m(self, capsys):
        assert run_cli("bayes-sweep", "--preset", "fig3a", "--log10-start", "300",
                       "--log10-stop", "309", "--points", "3") == 3
        assert "M" in capsys.readouterr().err

    def test_unknown_preset(self):
        assert run_cli("roc", "--preset", "fig9z") == 2

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

    def test_unknown_check_rejected(self):
        assert run_cli("validate", "--only", "nonsense") == 3


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

    def test_non_hermitian_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"re": [[0.5, 0.4], [0.0, 0.5]]}))
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"re": [[0.5, 0.0], [0.0, 0.5]]}))
        assert run_cli("oracle", "--rho0", str(bad), "--rho1", str(good)) == 3

    def test_missing_file(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"re": [[1.0]]}))
        assert run_cli("oracle", "--rho0", str(tmp_path / "no.npy"),
                       "--rho1", str(good)) == 2

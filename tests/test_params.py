import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import speckleqi
from speckleqi import (
    ConfigError,
    InvalidParameter,
    SystemParams,
    derived_x,
    fading_pdf,
    load_config,
)

X_FIG2 = 15.811388300841898  # 10^8.5 * 0.01 * 1e-4 / 20, the shared group value


class TestSystemParams:
    def test_priors_normalized_exactly(self):
        p = SystemParams(M=10, N_S=0.1, N_B=1.0, kappa_bar=0.5, pi0=0.3)
        assert p.pi0 + p.pi1 == 1.0

    @given(pi0=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(deadline=None)
    def test_priors_normalized_for_any_pi0(self, pi0):
        p = SystemParams(M=10, N_S=0.1, N_B=1.0, kappa_bar=0.5, pi0=pi0)
        assert p.pi0 + p.pi1 == 1.0

    @pytest.mark.parametrize("field,kwargs", [
        ("M", dict(M=0)),
        ("M", dict(M=-1)),
        ("N_S", dict(N_S=0.0)),
        ("N_B", dict(N_B=-2.0)),
        ("kappa_bar", dict(kappa_bar=0.0)),
        ("kappa_bar", dict(kappa_bar=1.5)),
        ("epsilon", dict(epsilon=0.0)),
        ("epsilon", dict(epsilon=1.0)),
        ("pi0", dict(pi0=-0.1)),
        ("pi0", dict(pi0=1.1)),
        ("M", dict(M=math.inf)),
        ("M", dict(M=math.nan)),
        ("N_S", dict(N_S=math.inf)),
        ("N_B", dict(N_B=math.inf)),
    ])
    def test_rejects_out_of_range(self, field, kwargs):
        base = dict(M=10, N_S=0.1, N_B=1.0, kappa_bar=0.5)
        base.update(kwargs)
        with pytest.raises(InvalidParameter) as exc:
            SystemParams(**base)
        assert exc.value.field_name == field

    def test_pi1_is_derived_not_settable(self):
        p = SystemParams(M=10, N_S=0.1, N_B=1.0, kappa_bar=0.5, pi0=0.4)
        assert p.pi1 == 1.0 - 0.4
        with pytest.raises(TypeError):
            SystemParams(M=10, N_S=0.1, N_B=1.0, kappa_bar=0.5, pi0=0.4, pi1=0.7)

    def test_immutable(self, fig2a):
        with pytest.raises(AttributeError):
            fig2a.M = 3.0


class TestDerivedX:
    def test_fig2_presets_share_x(self, fig2a, fig2b):
        assert derived_x(fig2a) == pytest.approx(X_FIG2, rel=1e-14)
        assert derived_x(fig2b) == pytest.approx(X_FIG2, rel=1e-14)

    def test_identity_point(self):
        p = SystemParams(M=1, N_S=0.7, N_B=0.7, kappa_bar=1.0)
        assert derived_x(p) == 1.0

    @given(m=st.floats(1.0, 1e9), n_s=st.floats(1e-6, 1.0), n_b=st.floats(1e-2, 50.0),
           c=st.floats(0.1, 10.0))
    @settings(deadline=None)
    def test_scaling(self, m, n_s, n_b, c):
        base = derived_x(SystemParams(M=m, N_S=n_s, N_B=n_b, kappa_bar=0.5))
        assert derived_x(SystemParams(M=c * m, N_S=n_s, N_B=n_b, kappa_bar=0.5)) == \
            pytest.approx(c * base, rel=1e-12)
        assert derived_x(SystemParams(M=m, N_S=c * n_s, N_B=n_b, kappa_bar=0.5)) == \
            pytest.approx(c * base, rel=1e-12)
        assert derived_x(SystemParams(M=m, N_S=n_s, N_B=c * n_b, kappa_bar=0.5)) == \
            pytest.approx(base / c, rel=1e-12)


class TestFadingPdf:
    def test_pdf_vanishes_at_origin(self):
        assert fading_pdf(0.01, 0.0) == 0.0

    def test_pdf_frozen_value(self):
        # 2*sqrt(0.005)*exp(-0.5)/0.01, evaluated independently
        got = fading_pdf(0.01, math.sqrt(0.005))
        assert got == pytest.approx(8.577638849607068, rel=1e-12)

    @pytest.mark.parametrize("kappa_bar", [0.01, 0.1, 0.5, 1.0])
    def test_pdf_normalization(self, kappa_bar):
        total, _ = quad(lambda t: fading_pdf(kappa_bar, t), 0.0, np.inf)
        assert abs(total - 1.0) < 1e-10
        # the oracle's amplitude range [0, 1] holds mass 1 - e^(-1/kappa_bar)
        mass, _ = quad(lambda t: fading_pdf(kappa_bar, t), 0.0, 1.0)
        assert abs(mass + math.expm1(-1.0 / kappa_bar)) < 1e-10

    @pytest.mark.parametrize("kappa_bar", [0.01, 0.2, 0.9])
    def test_mean_intensity_is_kappa_bar(self, kappa_bar):
        mean, _ = quad(lambda t: t * t * fading_pdf(kappa_bar, t), 0.0, np.inf)
        assert abs(mean - kappa_bar) < 1e-10


class TestConfigLoading:
    def test_nested_json(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text('{"M": 1e6, "N_S": 0.01, "N_B": 5, "kappa_bar": 0.02,'
                     ' "epsilon": 0.02, "pi0": 0.25,'
                     ' "fading": {"kind": "rayleigh"}}')
        params = load_config(f)
        assert params == SystemParams(M=1e6, N_S=0.01, N_B=5.0, kappa_bar=0.02, epsilon=0.02,
                                      pi0=0.25)
        assert params.pi1 == 0.75

    def test_flat_dotted_json(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text('{"M": 100, "N_S": 0.01, "N_B": 5, "kappa_bar": 0.02,'
                     ' "fading.kind": "Rayleigh"}')
        assert load_config(f) == SystemParams(M=100.0, N_S=0.01, N_B=5.0, kappa_bar=0.02)

    def test_key_value_text(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("# comment\nM = 100\nN_S = 0.01\nN_B = 5\nkappa_bar = 0.02\n")
        params = load_config(f)
        assert params == SystemParams(M=100.0, N_S=0.01, N_B=5.0, kappa_bar=0.02)
        f.write_text("M = 100\nN_S = 0.01\nN_B = 5\nkappa_bar = 0.02\nfading.kind = rayleigh\n")
        assert load_config(f) == params

    def test_missing_keys(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text('{"M": 100}')
        with pytest.raises(ConfigError, match="missing"):
            load_config(f)

    def test_unknown_keys(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text('{"M": 100, "N_S": 0.01, "N_B": 5, "kappa_bar": 0.02, "bogus": 1}')
        with pytest.raises(ConfigError, match="bogus"):
            load_config(f)

    @pytest.mark.parametrize("kind,key", [
        (None, "fading.kappa"),
        ("rayleigh", "fading.kappa"),
        ("rayleigh", "fading.phi"),
    ])
    def test_deterministic_keys_rejected_for_random_kinds(self, tmp_path, kind, key):
        # fading.kappa and fading.phi are unknown keys
        f = tmp_path / "c.json"
        fading = {key: 0.3} if kind is None else {"fading.kind": kind, key: 0.3}
        f.write_text(json.dumps({"M": 100, "N_S": 0.01, "N_B": 5, "kappa_bar": 0.02, **fading}))
        with pytest.raises(ConfigError, match=f"unknown keys: \\['{key}'\\]"):
            load_config(f)

    @pytest.mark.parametrize("fading", [
        {"fading.kind": "deterministic", "fading.kappa": 1.5},
        {"fading.kind": "deterministic", "fading.kappa": "abc", "fading.phi": 1e400},
        {"fading": {"kind": "rician", "phi": 0.7}},
        {"fading.kind": "bogus", "bogus": 1},
    ], ids=["deterministic-kappa", "deterministic-bad-values", "rician-phi", "unknown-kind"])
    def test_kind_other_than_rayleigh_rejected_first(self, tmp_path, fading):
        # a kind the loader does not model fails on the kind, whatever else
        # the file holds (it used to fail on the discarded kind's fields)
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"M": 100, "N_S": 0.01, "N_B": 5, "kappa_bar": 0.02, **fading}))
        with pytest.raises(InvalidParameter) as exc:
            load_config(f)
        assert exc.value.field_name == "fading.kind"

    @pytest.mark.parametrize("name,text,key", [
        ("c.cfg", "M = 1e8\nN_S = 0.01\nN_B = 5\nkappa_bar = 0.02\nM = 1e9\n", "M"),
        ("c.json", '{"M": 1e8, "N_S": 0.01, "N_B": 5, "kappa_bar": 0.02, "M": 1e9}', "M"),
        ("c.json", '{"M": 100, "N_S": 0.01, "N_B": 5, "kappa_bar": 0.02,'
                   ' "fading": {"kind": "rayleigh"}, "fading.kind": "rician"}',
         "fading.kind"),
    ], ids=["text-line", "json-object", "nested-and-dotted"])
    def test_repeated_key_names_key(self, tmp_path, name, text, key):
        f = tmp_path / name
        f.write_text(text)
        with pytest.raises(ConfigError, match=f"key {key}: given more than once"):
            load_config(f)

    @pytest.mark.parametrize("text", ["[1, 2]", "5", '"M = 1"'])
    def test_json_that_is_not_an_object_rejected(self, tmp_path, text):
        f = tmp_path / "c.json"
        f.write_text(text)
        with pytest.raises(ConfigError, match="one object"):
            load_config(f)

    def test_unreadable(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")

    @pytest.mark.parametrize("key", ["N_S", "epsilon"])
    @pytest.mark.parametrize("value", ['"abc"', "[0.5]"])
    def test_non_numeric_value_names_key(self, tmp_path, key, value):
        f = tmp_path / "c.json"
        values = {"N_S": "0.01", "epsilon": "0.02", key: value}
        f.write_text('{"M": 100, "N_S": %(N_S)s, "N_B": 5, "kappa_bar": 0.02,'
                     ' "epsilon": %(epsilon)s}' % values)
        with pytest.raises(ConfigError, match=f"key {key}: not a number"):
            load_config(f)

    def test_invalid_value_names_field(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text('{"M": 100, "N_S": 0.01, "N_B": 5, "kappa_bar": 7}')
        with pytest.raises(InvalidParameter) as exc:
            load_config(f)
        assert exc.value.field_name == "kappa_bar"


def _rho(dim):
    return speckleqi.DensityMatrix(np.eye(dim) / dim, (dim,))


@pytest.mark.parametrize("field,call", [
    ("nbar", lambda: speckleqi.thermal_state(math.nan, 10)),
    ("nbar", lambda: speckleqi.coherent_thermal_state(0.5, -1.0, 30)),
    ("n_s", lambda: speckleqi.tmsv_state(-0.1, 10)),
    ("n_b", lambda: speckleqi.apply_return_channel(speckleqi.tmsv_state(0.1, 6), 0.3, 0.2,
                                                   math.inf)),
    ("pi0", lambda: speckleqi.helstrom(_rho(3), _rho(3), 1.5)),
    ("pi0", lambda: speckleqi.qcb(_rho(3), _rho(3), math.nan)),
    ("pi0", lambda: speckleqi.threshold_test_error(0.1, 1.0, 1.0)),
    ("kappa", lambda: speckleqi.opa_snr_known(
        SystemParams(M=10, N_S=0.1, N_B=1.0, kappa_bar=0.5), 1.5)),
    ("nodes", lambda: speckleqi.fading_average(lambda a: speckleqi.thermal_state(0.1, 5),
                                               0.05, (16, 7))),
    ("gain_minus_one", lambda: speckleqi.OpaConfig(gain_minus_one=0.0)),
], ids=["thermal", "coherent-thermal", "tmsv", "return-channel", "helstrom", "qcb",
        "threshold-test", "opa-known", "fading-average", "opa-config"])
def test_parameter_errors_name_their_field(field, call):
    # these checks raised a bare ValueError whose text alone named the field
    with pytest.raises(InvalidParameter) as exc:
        call()
    assert exc.value.field_name == field

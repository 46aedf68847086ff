import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from speckleqi import (
    ConfigError,
    FadingKind,
    FadingModel,
    InvalidParameter,
    SystemParams,
    derived_x,
    fading_pdf,
    load_config,
)
from speckleqi.params import NoDensity

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


class TestFadingModel:
    def test_pdf_vanishes_at_origin(self):
        assert fading_pdf(FadingModel.rayleigh(0.01), 0.0) == 0.0

    def test_pdf_frozen_value(self):
        # 2*sqrt(0.005)*exp(-0.5)/0.01, evaluated independently
        got = fading_pdf(FadingModel.rayleigh(0.01), math.sqrt(0.005))
        assert got == pytest.approx(8.577638849607068, rel=1e-12)

    def test_truncated_pdf_outside_support(self):
        assert fading_pdf(FadingModel.truncated_rayleigh(0.01), 1.5) == 0.0

    def test_deterministic_has_no_density(self):
        with pytest.raises(NoDensity):
            fading_pdf(FadingModel.deterministic(0.3, 0.0), 0.5)

    @pytest.mark.parametrize("kappa_bar", [0.01, 0.1, 0.5, 1.0])
    def test_pdf_normalization(self, kappa_bar):
        ray = FadingModel.rayleigh(kappa_bar)
        total, _ = quad(lambda t: fading_pdf(ray, t), 0.0, np.inf)
        assert abs(total - 1.0) < 1e-10
        trunc = FadingModel.truncated_rayleigh(kappa_bar)
        total, _ = quad(lambda t: fading_pdf(trunc, t), 0.0, 1.0)
        assert abs(total - 1.0) < 1e-10

    @pytest.mark.parametrize("kappa_bar", [0.01, 0.2, 0.9])
    def test_mean_intensity_is_kappa_bar(self, kappa_bar):
        ray = FadingModel.rayleigh(kappa_bar)
        mean, _ = quad(lambda t: t * t * fading_pdf(ray, t), 0.0, np.inf)
        assert abs(mean - kappa_bar) < 1e-10

    def test_kind_flags(self):
        assert FadingModel.rayleigh(0.1).is_random
        assert not FadingModel.deterministic(0.1, 1.0).is_random
        assert FadingModel.truncated_rayleigh(0.1).kind is FadingKind.TRUNCATED_RAYLEIGH

    def test_constructor_validation(self):
        with pytest.raises(InvalidParameter):
            FadingModel.rayleigh(0.0)
        with pytest.raises(InvalidParameter):
            FadingModel.deterministic(1.2, 0.0)

    @pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan])
    def test_non_finite_phase_names_field(self, phi):
        # phi % 2pi would turn these into NaN
        with pytest.raises(InvalidParameter) as exc:
            FadingModel.deterministic(0.5, phi)
        assert exc.value.field_name == "phi"


class TestConfigLoading:
    def test_nested_json(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text('{"M": 1e6, "N_S": 0.01, "N_B": 5, "kappa_bar": 0.02,'
                     ' "epsilon": 0.02, "pi0": 0.25,'
                     ' "fading": {"kind": "truncated_rayleigh"}}')
        params, model = load_config(f)
        assert params.M == 1e6 and params.pi0 == 0.25 and params.pi1 == 0.75
        assert model.kind is FadingKind.TRUNCATED_RAYLEIGH
        assert model.kappa_bar == params.kappa_bar

    def test_flat_dotted_json(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text('{"M": 100, "N_S": 0.01, "N_B": 5, "kappa_bar": 0.02,'
                     ' "fading.kind": "deterministic", "fading.kappa": 0.3,'
                     ' "fading.phi": 0.7}')
        _, model = load_config(f)
        assert model.kind is FadingKind.DETERMINISTIC
        assert model.kappa == 0.3 and model.phi == pytest.approx(0.7)

    def test_key_value_text(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("# comment\nM = 100\nN_S = 0.01\nN_B = 5\nkappa_bar = 0.02\n")
        params, model = load_config(f)
        assert params.N_B == 5.0
        assert model.kind is FadingKind.RAYLEIGH  # default

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
        ("truncated_rayleigh", "fading.phi"),
    ])
    def test_deterministic_keys_rejected_for_random_kinds(self, tmp_path, kind, key):
        f = tmp_path / "c.json"
        fading = {key: 0.3} if kind is None else {"fading.kind": kind, key: 0.3}
        f.write_text(json.dumps({"M": 100, "N_S": 0.01, "N_B": 5, "kappa_bar": 0.02, **fading}))
        with pytest.raises(ConfigError, match=key):
            load_config(f)

    def test_unreadable(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")

    @pytest.mark.parametrize("key", ["fading.kappa", "fading.phi"])
    @pytest.mark.parametrize("value", ['"abc"', "[0.5]"])
    def test_non_numeric_fading_value_names_key(self, tmp_path, key, value):
        f = tmp_path / "c.json"
        fading = {"fading.kappa": "0.3", "fading.phi": "0.7", key: value}
        f.write_text('{"M": 100, "N_S": 0.01, "N_B": 5, "kappa_bar": 0.02,'
                     ' "fading.kind": "deterministic", "fading.kappa": %(fading.kappa)s,'
                     ' "fading.phi": %(fading.phi)s}' % fading)
        with pytest.raises(ConfigError, match=f"key {key}: not a number"):
            load_config(f)

    def test_invalid_value_names_field(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text('{"M": 100, "N_S": 0.01, "N_B": 5, "kappa_bar": 7}')
        with pytest.raises(InvalidParameter) as exc:
            load_config(f)
        assert exc.value.field_name == "kappa_bar"

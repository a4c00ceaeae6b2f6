import copy
import dataclasses
import math
import pickle

import pytest

from dlambda_fwm import (ConfigError, DetuningSet, DomainError, DriveParams,
                         MediumParams, SteadyResult, gamma_to_khz,
                         khz_to_gamma, parse_config)
from dlambda_fwm.params import CONFIG_KEYS, parse_pair, replace_params


def test_khz_to_gamma_reference_points():
    assert khz_to_gamma(-27.0) == pytest.approx(-0.0045, rel=1e-12)
    assert khz_to_gamma(0.0) == 0.0
    assert khz_to_gamma(-70.0) == pytest.approx(-0.011666667, rel=1e-6)


def test_khz_to_gamma_custom_gamma():
    # with Gamma = 2*pi*1 MHz, 1 kHz is 1e-3 Gamma
    assert khz_to_gamma(1.0, 2 * math.pi * 1e6) == pytest.approx(1e-3)


@pytest.mark.parametrize("x", [1e6, -1e6, 123.456, 1e-6, 0.0, -27.0])
def test_unit_round_trip(x):
    assert gamma_to_khz(khz_to_gamma(x)) == pytest.approx(x, rel=1e-12, abs=1e-18)


def test_parse_config_happy_path():
    doc = """
    # dense sample
    alpha = 130        # optical depth
    omega_c = 1.2
    omega_d = 1.2
    gamma21 = 7e-4
    delta_kL_pi = 0.134
    delta_khz = -27
    """
    m, d, det = parse_config(doc)
    assert m.alpha == 130.0
    assert d.omega_c == 1.2
    assert m.gamma21 == 7e-4
    assert m.delta_kL == pytest.approx(0.134 * math.pi)
    assert det.delta == pytest.approx(khz_to_gamma(-27.0))
    # defaults
    assert m.gamma31 == 1.0 and m.gamma41 == 1.0
    assert det.delta_p == 0.0 and det.Delta == 0.0
    assert m.gamma_phys == MediumParams(alpha=1.0).gamma_phys
    assert d == DriveParams(omega_c=1.2, omega_d=1.2)


def test_parse_config_duplicate_key_last_wins():
    m, _, _ = parse_config("alpha = 1\nomega_c = 1\nalpha = 2\n")
    assert m.alpha == 2.0


def test_parse_config_deterministic():
    doc = "alpha = 45\nomega_c = 0.6\ndelta_khz = -54\n"
    assert parse_config(doc) == parse_config(doc)


def test_parse_config_missing_required_lists_keys():
    with pytest.raises(ConfigError) as exc:
        parse_config("")
    assert "alpha" in str(exc.value) and "omega_c" in str(exc.value)


def test_parse_config_invariant_violation_names_key_and_line():
    with pytest.raises(ConfigError) as exc:
        parse_config("omega_c = 1.0\nalpha = -1\n")
    msg = str(exc.value)
    assert "alpha" in msg and "line 2" in msg


@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_parse_config_invariant_error_names_line_that_took_effect(key):
    # a valid setting, then a duplicate non-finite one on line 5: the error
    # names the key and the line of the value that took effect
    doc = f"alpha = 1\nomega_c = 1\n{key} = 1\n\n{key} = nan  # bad\n"
    with pytest.raises(ConfigError, match=f"\\(key '{key}' set on line 5\\)$"):
        parse_config(doc)


def test_parse_config_overrides_win_and_carry_no_line():
    doc = "alpha = 1\nomega_c = 1\ndelta_khz = 6\n"
    m, d, det = parse_config(doc, {"alpha": 2.0, "omega_d": 0.5})
    assert (m.alpha, d.omega_d) == (2.0, 0.5)
    assert det.delta == pytest.approx(1e-3)
    with pytest.raises(ConfigError) as exc:
        parse_config(doc, {"alpha": -1.0})
    assert str(exc.value) == "alpha must be >= 0, got -1.0"
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        parse_config(doc, {"bogus": 1.0})
    # an override passes a config line's key-and-number rule: what float()
    # refuses is a ConfigError, not a ValueError or TypeError
    for value, shown in (("abc", "'abc'"), (None, "None"),
                         (1 + 2j, "(1+2j)")):
        with pytest.raises(ConfigError) as exc:
            parse_config(doc, {"alpha": value})
        assert str(exc.value) == f"malformed number for key 'alpha': {shown}"


def test_parse_config_gamma_phys_mhz_names_its_key():
    # 1e303 MHz overflows the angular frequency; the error names the key
    # and the value given, not the derived field
    with pytest.raises(ConfigError) as exc:
        parse_config("alpha = 1\nomega_c = 1\ngamma_phys_mhz = 1e303\n")
    assert str(exc.value) == ("gamma_phys_mhz must be finite and > 0, got "
                              "1e+303 (key 'gamma_phys_mhz' set on line 3)")
    with pytest.raises(ConfigError, match="gamma_phys_mhz must be finite "
                       "and > 0, got 0.0$"):
        parse_config("alpha = 1\nomega_c = 1\n", {"gamma_phys_mhz": 0.0})
    # a Gamma small enough to overflow a finite kHz detuning is to blame
    with pytest.raises(ConfigError) as exc:
        parse_config("alpha = 1\nomega_c = 1\ngamma_phys_mhz = 1e-310\n"
                     "delta_p_khz = 50\n")
    assert str(exc.value) == ("gamma_phys_mhz = 1e-310 is too small: "
                              "delta_p_khz = 50.0 overflows in Gamma units "
                              "(key 'gamma_phys_mhz' set on line 3)")
    # a detuning that overflows at any Gamma is its own key's fault
    with pytest.raises(ConfigError, match="^delta must be finite, got inf "
                       r"\(key 'delta_khz' set on line 3\)$"):
        parse_config("alpha = 1\nomega_c = 1\ndelta_khz = 1e306\n")


def test_parse_config_unknown_key():
    with pytest.raises(ConfigError) as exc:
        parse_config("alpha = 1\nomega_c = 1\nbogus = 3\n")
    assert "bogus" in str(exc.value) and "line 3" in str(exc.value)


def test_parse_config_omega_p0_is_unknown():
    # the probe amplitude is not a parameter of the linear model
    with pytest.raises(ConfigError,
                       match=r"^line 2: unknown key 'omega_p0' \(known: "
                             r"alpha, .*, Delta_khz\)$"):
        parse_config("alpha = 1\nomega_p0 = 1\nomega_c = 1\n")


def test_parse_pair_is_the_line_rule():
    assert parse_pair(" delta_khz =-27 ") == ("delta_khz", -27.0)
    assert parse_pair("alpha=nan")[0] == "alpha"      # invariants come later
    for item, message in [
            ("alpha", "expected 'key = value', got 'alpha'"),
            ("bogus = 1", "unknown key 'bogus' (known: "
                          + ", ".join(CONFIG_KEYS) + ")"),
            ("alpha = twelve", "malformed number for key 'alpha': 'twelve'")]:
        with pytest.raises(ConfigError) as exc:
            parse_pair(item)
        assert str(exc.value) == message
        # parse_config reports the same error under the line's number
        with pytest.raises(ConfigError) as exc:
            parse_config(f"omega_c = 1\n{item}  # comment\n")
        assert str(exc.value) == "line 2: " + message


def test_parse_config_malformed_number():
    with pytest.raises(ConfigError) as exc:
        parse_config("alpha = twelve\nomega_c = 1\n")
    assert "alpha" in str(exc.value) and "line 1" in str(exc.value)


def test_parse_config_malformed_line():
    with pytest.raises(ConfigError) as exc:
        parse_config("alpha 130\n")
    assert "line 1" in str(exc.value)


def test_params_are_immutable():
    m = MediumParams(alpha=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.alpha = 2.0


@pytest.mark.parametrize("kwargs", [
    dict(alpha=-1.0),
    dict(alpha=1.0, gamma21=-0.1),
    dict(alpha=1.0, gamma31=0.0),
    dict(alpha=1.0, gamma41=-1.0),
    dict(alpha=1.0, gamma_phys=0.0),
    dict(alpha=1.0, delta_kL=math.inf),
])
def test_medium_invariants(kwargs):
    with pytest.raises(DomainError):
        MediumParams(**kwargs)


@pytest.mark.parametrize("name", ["gamma31", "gamma41"])
def test_decay_rate_whose_half_underflows_is_refused(name):
    # the kernels divide by gamma/2 - i*detuning, which is 0 at resonance
    # when the half underflows: refused at the source, naming the field
    with pytest.raises(DomainError) as exc:
        MediumParams(alpha=1.0, **{name: 5e-324})
    assert str(exc.value) == (f"{name} = 5e-324 is too small: its half "
                              "underflows to 0")
    # the smallest rate with a nonzero half is valid
    assert getattr(MediumParams(alpha=1.0, **{name: 1e-323}), name) == 1e-323
    # parse_config names the key and its line
    with pytest.raises(ConfigError) as exc:
        parse_config(f"alpha = 1\nomega_c = 1\n{name} = 5e-324\n")
    assert str(exc.value) == (f"{name} = 5e-324 is too small: its half "
                              f"underflows to 0 (key '{name}' set on line 3)")


def test_drive_invariants():
    with pytest.raises(DomainError):
        DriveParams(omega_c=-0.5)
    with pytest.raises(DomainError):
        DriveParams(omega_c=1.0, omega_d=-2.0)
    # two-level absorber is a valid input
    DriveParams(omega_c=0.0, omega_d=0.0)


def test_detuning_invariants():
    with pytest.raises(DomainError):
        DetuningSet(delta=math.nan)


def test_steady_result_fields():
    r = SteadyResult(probe_out=0.6, signal_out=0.8j)
    assert r.transmittance == pytest.approx(0.36)
    assert r.ce == pytest.approx(0.64)
    assert r.loss == pytest.approx(0.0, abs=1e-15)


def test_steady_result_passivity_guard():
    with pytest.raises(DomainError, match=r"^passivity violated: T \+ CE = 2 "
                                          r"> 1 \(T=1, CE=1\)$"):
        SteadyResult(probe_out=1.0, signal_out=1.0)
    # NaN compares False against the passivity bound; it must still fail
    with pytest.raises(DomainError,
                       match=r"^probe_out must be finite, got \(nan\+0j\)$"):
        SteadyResult(probe_out=complex("nan"), signal_out=0.0)
    # squaring a finite amplitude above ~1e154 overflows a Python float
    with pytest.raises(DomainError, match=r"^passivity violated: T \+ CE "
                                          r"overflows \(probe_out=1e\+200, "
                                          r"signal_out=0\)$"):
        SteadyResult(probe_out=1e200, signal_out=0.0)


def test_steady_result_keeps_the_dataclass_contract():
    # __init__ is written out; what @dataclass generates around it stays
    assert [f.name for f in dataclasses.fields(SteadyResult)] == [
        "probe_out", "signal_out", "transmittance", "ce", "loss"]
    assert [f.name for f in dataclasses.fields(SteadyResult) if f.init] == [
        "probe_out", "signal_out"]
    r = SteadyResult(0.6, 0.8j)
    assert r == SteadyResult(probe_out=0.6, signal_out=0.8j)
    assert hash(r) == hash(SteadyResult(signal_out=0.8j, probe_out=0.6))
    assert r != SteadyResult(0.8j, 0.6)
    assert repr(r) == ("SteadyResult(probe_out=0.6, signal_out=0.8j, "
                       f"transmittance={0.6 ** 2!r}, ce={0.8 ** 2!r}, "
                       f"loss={1.0 - 0.6 ** 2 - 0.8 ** 2!r})")
    with pytest.raises(TypeError):
        SteadyResult(0.6)
    with pytest.raises(TypeError):
        SteadyResult(0.6, 0.8j, transmittance=0.36)
    # replace goes through __init__: T, CE and loss follow the new field
    s = dataclasses.replace(r, probe_out=0.5j)
    assert (s.probe_out, s.signal_out) == (0.5j, 0.8j)
    assert (s.transmittance, s.ce, s.loss) == (0.25, r.ce, 1.0 - 0.25 - r.ce)
    with pytest.raises(DomainError, match="passivity violated"):
        dataclasses.replace(r, probe_out=0.9)
    for twin in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
        assert twin == r and repr(twin) == repr(r)
    for name in ("probe_out", "ce"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(r, name, 0.0)


def test_replace_param_sets_the_owning_field():
    bundle = (MediumParams(alpha=1.0), DriveParams(omega_c=1.0),
              DetuningSet())
    m, d, det = replace_params(bundle, omega_d=0.5)
    assert (m, det) == (bundle[0], bundle[2]) and d.omega_d == 0.5
    assert replace_params(bundle, Delta=0.25)[2].Delta == 0.25
    with pytest.raises(DomainError, match="gamma41 must be > 0"):
        replace_params(bundle, gamma41=0.0)
    with pytest.raises(TypeError):
        replace_params(bundle, detla=0.0)

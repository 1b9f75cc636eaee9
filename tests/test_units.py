import math

import pytest
from hypothesis import given, strategies as st

from wnocpower.units import FrequencyGhz, PowerDbm, PowerMilliwatt, dbm_to_mw, mw_to_dbm


def test_zero_dbm_is_one_milliwatt():
    assert dbm_to_mw(PowerDbm(0.0)).value == 1.0


def test_ten_dbm_is_ten_milliwatts():
    assert dbm_to_mw(PowerDbm(10.0)).value == pytest.approx(10.0, rel=1e-15)


def test_minus_fifteen_dbm():
    # 10^(-1.5), frozen from a high-precision evaluation
    assert dbm_to_mw(PowerDbm(-15.0)).value == pytest.approx(0.0316227766016838, rel=1e-12)


def test_one_milliwatt_is_zero_dbm():
    assert mw_to_dbm(PowerMilliwatt(1.0)).value == 0.0


def test_half_milliwatt():
    # 10*log10(0.5), frozen from a high-precision evaluation
    assert mw_to_dbm(PowerMilliwatt(0.5)).value == pytest.approx(-3.010299956639812, rel=1e-12)


def test_round_trip_integer_levels():
    for x in range(-40, 21):
        assert mw_to_dbm(dbm_to_mw(PowerDbm(float(x)))).value == pytest.approx(x, abs=1e-12)


@given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
def test_round_trip_property(x):
    assert abs(mw_to_dbm(dbm_to_mw(PowerDbm(x))).value - x) < 1e-12


@given(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    st.floats(min_value=1e-9, max_value=50.0, allow_nan=False),
)
def test_dbm_to_mw_strictly_monotone(x, step):
    assert dbm_to_mw(PowerDbm(x)).value < dbm_to_mw(PowerDbm(x + step)).value


@given(st.floats(min_value=-300.0, max_value=300.0, allow_nan=False))
def test_dbm_to_mw_strictly_positive(x):
    assert dbm_to_mw(PowerDbm(x)).value > 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_power_dbm_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        PowerDbm(bad)


def test_milliwatt_rejects_negative_allows_zero():
    with pytest.raises(ValueError):
        PowerMilliwatt(-0.1)
    assert PowerMilliwatt(0.0).value == 0.0


def test_mw_to_dbm_rejects_zero():
    with pytest.raises(ValueError):
        mw_to_dbm(PowerMilliwatt(0.0))


@pytest.mark.parametrize("bad", [0.0, -3.0, math.nan, math.inf])
def test_frequency_rejects_non_positive(bad):
    with pytest.raises(ValueError):
        FrequencyGhz(bad)


def test_quantities_compare_within_type_only():
    assert PowerDbm(-5.0) < PowerDbm(0.0)
    assert FrequencyGhz(30.0) < FrequencyGhz(60.0)
    with pytest.raises(TypeError):
        PowerDbm(1.0) < FrequencyGhz(2.0)


@pytest.mark.parametrize("dbm", [4000.0, -4000.0])
def test_dbm_to_mw_rejects_unrepresentable_levels(dbm):
    with pytest.raises(ValueError, match="dBm"):
        dbm_to_mw(PowerDbm(dbm))


@pytest.mark.parametrize("dbm, message", [(-4000.0, "-4000.0 dBm rounds to 0 mW"),
                                          (5000.0, "5000.0 dBm overflows a float in mW")])
def test_dbm_to_mw_names_an_unrepresentable_level(dbm, message):
    with pytest.raises(ValueError) as info:
        dbm_to_mw(PowerDbm(dbm))
    assert str(info.value) == message

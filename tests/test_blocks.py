import math
import random
import struct
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from wnocpower.blocks import (
    MixerModel,
    OscModel,
    PaModel,
    _admissible,
    _block_dc,
    _dcs,
    _edge,
    _slope,
    _term,
    mixer_dc_power,
    osc_dc_power,
    pa_dc_power,
)
from wnocpower.regression import ExpFitModel, evaluate_fit
from wnocpower.regression import _fom as fom_plain
from wnocpower.survey import BlockKind
from wnocpower.units import FrequencyGhz, PowerDbm, PowerMilliwatt, dbm_to_mw, mw_to_dbm

F = FrequencyGhz(60.0)


def fit(a, b=0.0, lo=1.0, hi=1000.0):
    """Constant or exponential trend with a wide validity range."""
    return ExpFitModel(a, b, FrequencyGhz(lo), FrequencyGhz(hi), 1.0, 1.0, 2, "test")


# --- PA ---------------------------------------------------------------------


def test_pa_power_hand_case():
    # PAE 50 %, P_out = 1 mW, P_in = 0.5 mW: (1 - 0.5) / 0.5 = 1 mW
    pa = PaModel(fit(50.0))
    p_in = mw_to_dbm(PowerMilliwatt(0.5))
    power, extrapolated = pa_dc_power(pa, F, p_in, PowerDbm(0.0))
    assert power.value == pytest.approx(1.0, rel=1e-12)
    assert not extrapolated


def test_pa_ideal_efficiency_floor():
    # PAE = 100 % is the physical boundary: P_DC equals the added power
    pa = PaModel(fit(100.0))
    power, _ = pa_dc_power(pa, F, PowerDbm(-10.0), PowerDbm(0.0))
    assert power.value == pytest.approx(0.9, rel=1e-12)


def test_pa_rejects_non_positive_gain():
    pa = PaModel(fit(50.0))
    with pytest.raises(ValueError, match="must exceed input"):
        pa_dc_power(pa, F, PowerDbm(0.0), PowerDbm(0.0))
    with pytest.raises(ValueError, match="must exceed input"):
        pa_dc_power(pa, F, PowerDbm(3.0), PowerDbm(0.0))


def test_pa_rejects_unphysical_pae():
    with pytest.raises(ValueError, match="outside \\(0, 100\\]"):
        pa_dc_power(PaModel(fit(120.0)), F, PowerDbm(-10.0), PowerDbm(0.0))
    # an extreme decay underflows the trend to exactly zero
    underflow = PaModel(fit(1e-300, b=-1.0))
    with pytest.raises(ValueError, match="outside \\(0, 100\\]"):
        pa_dc_power(underflow, FrequencyGhz(900.0), PowerDbm(-10.0), PowerDbm(0.0))


def test_pa_power_monotone_in_pae_and_output():
    p_prev = math.inf
    for pae in (10.0, 25.0, 50.0, 75.0, 100.0):
        p, _ = pa_dc_power(PaModel(fit(pae)), F, PowerDbm(-10.0), PowerDbm(0.0))
        assert p.value < p_prev
        p_prev = p.value
    pa = PaModel(fit(40.0))
    powers = [pa_dc_power(pa, F, PowerDbm(-10.0), PowerDbm(out))[0].value
              for out in (-5.0, 0.0, 5.0, 10.0)]
    assert all(b > a for a, b in zip(powers, powers[1:]))


def test_pa_power_grows_like_inverse_pae_trend():
    # with PAE ~ exp(b f), b < 0, DC power scales as exp(-b (f2 - f1))
    pa = PaModel(fit(60.0, b=-0.01))
    p1, _ = pa_dc_power(pa, FrequencyGhz(20.0), PowerDbm(-10.0), PowerDbm(0.0))
    p2, _ = pa_dc_power(pa, FrequencyGhz(120.0), PowerDbm(-10.0), PowerDbm(0.0))
    assert p2.value / p1.value == pytest.approx(math.exp(0.01 * 100.0), rel=1e-9)


def test_pa_input_sweep_ordering():
    # deeper input back-off means more added power, hence more DC power
    pa = PaModel(fit(35.0, b=-0.008))
    powers = [pa_dc_power(pa, F, PowerDbm(p_in), PowerDbm(0.0))[0].value
              for p_in in (-15.0, -10.0, -5.0)]
    assert powers[0] > powers[1] > powers[2]


# --- oscillator --------------------------------------------------------------


def test_osc_power_direct_division():
    power, _ = osc_dc_power(OscModel(fit(0.1)), F, PowerDbm(0.0))
    assert power.value == pytest.approx(10.0, rel=1e-12)


def test_osc_perfect_efficiency_identity():
    power, _ = osc_dc_power(OscModel(fit(1.0)), F, PowerDbm(3.0))
    assert power.value == pytest.approx(dbm_to_mw(PowerDbm(3.0)).value, rel=1e-15)


def test_osc_rejects_unphysical_efficiency():
    with pytest.raises(ValueError, match="outside \\(0, 1\\]"):
        osc_dc_power(OscModel(fit(1.5)), F, PowerDbm(0.0))


def test_osc_never_below_rf_power():
    rng = random.Random(9)
    osc = OscModel(fit(0.9, b=-0.005))
    for _ in range(200):
        p_rf = PowerDbm(rng.uniform(-20.0, 10.0))
        f = FrequencyGhz(rng.uniform(1.0, 500.0))
        power, _ = osc_dc_power(osc, f, p_rf)
        assert power.value >= dbm_to_mw(p_rf).value


# --- mixer -------------------------------------------------------------------


def test_mixer_power_hand_case():
    # unity conversion gain over a 0.05 1/mW figure of merit: 20 mW
    power, _ = mixer_dc_power(MixerModel(fit(0.05)), F, PowerDbm(-5.0), PowerDbm(-5.0))
    assert power.value == pytest.approx(20.0, rel=1e-12)


def test_mixer_power_linear_in_conversion_gain():
    mix = MixerModel(fit(0.05))
    base, _ = mixer_dc_power(mix, F, PowerDbm(-5.0), PowerDbm(-5.0))
    doubled, _ = mixer_dc_power(
        mix, F, PowerDbm(-5.0), PowerDbm(-5.0 + 10.0 * math.log10(2.0))
    )
    assert doubled.value == pytest.approx(2.0 * base.value, rel=1e-12)
    halved_in, _ = mixer_dc_power(
        mix, F, PowerDbm(-5.0 + 10.0 * math.log10(2.0)), PowerDbm(-5.0)
    )
    assert halved_in.value == pytest.approx(base.value / 2.0, rel=1e-12)


def test_mixer_rejects_underflowed_fom():
    mix = MixerModel(fit(1e-300, b=-1.0))
    with pytest.raises(ValueError, match="must be > 0"):
        mixer_dc_power(mix, FrequencyGhz(900.0), PowerDbm(-5.0), PowerDbm(-5.0))


# --- shared behavior -----------------------------------------------------------


def test_all_powers_increase_with_frequency_for_decaying_fits():
    pa = PaModel(fit(60.0, b=-0.01, lo=1.0, hi=300.0))
    osc = OscModel(fit(0.5, b=-0.007, lo=1.0, hi=300.0))
    mix = MixerModel(fit(2.0, b=-0.012, lo=1.0, hi=300.0))
    grid = [1.0 + i * 10.0 for i in range(30)]
    pa_p = [pa_dc_power(pa, FrequencyGhz(f), PowerDbm(-10.0), PowerDbm(0.0))[0].value for f in grid]
    osc_p = [osc_dc_power(osc, FrequencyGhz(f), PowerDbm(0.0))[0].value for f in grid]
    mix_p = [mixer_dc_power(mix, FrequencyGhz(f), PowerDbm(-5.0), PowerDbm(-5.0))[0].value for f in grid]
    for series in (pa_p, osc_p, mix_p):
        assert all(b > a for a, b in zip(series, series[1:]))


def test_extrapolation_flags_match_underlying_fit():
    narrow = fit(50.0, b=-0.001, lo=50.0, hi=100.0)
    pa, osc, mix = PaModel(narrow), OscModel(fit(0.5, lo=50.0, hi=100.0)), MixerModel(
        fit(1.0, lo=50.0, hi=100.0)
    )
    for f in (20.0, 50.0, 75.0, 100.0, 150.0):
        fq = FrequencyGhz(f)
        expected = evaluate_fit(narrow, fq)[1]
        assert pa_dc_power(pa, fq, PowerDbm(-10.0), PowerDbm(0.0))[1] == expected
        assert osc_dc_power(osc, fq, PowerDbm(0.0))[1] == expected
        assert mixer_dc_power(mix, fq, PowerDbm(-5.0), PowerDbm(-5.0))[1] == expected


@pytest.mark.parametrize("call, message", [
    (lambda: pa_dc_power(PaModel(fit(50.0)), F, PowerDbm(-10.0), PowerDbm(5000.0)),
     "5000.0 dBm overflows a float in mW"),
    (lambda: osc_dc_power(OscModel(fit(0.5)), F, PowerDbm(-4000.0)), "-4000.0 dBm rounds to 0 mW"),
    (lambda: mixer_dc_power(MixerModel(fit(1.0)), F, PowerDbm(-4000.0), PowerDbm(-5.0)),
     "-4000.0 dBm rounds to 0 mW"),
])
def test_block_functions_name_an_unrepresentable_level(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# --- the admissible interval -----------------------------------------------------

TOP = {BlockKind.PA: 100.0, BlockKind.OSCILLATOR: 1.0, BlockKind.MIXER: math.inf}
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
pairs = st.lists(positive, min_size=2, max_size=2, unique=True).map(sorted)


def physical(kind, a, b, f):
    """The evaluator's range check, written out: 0 < a * exp(b * f) <= the block's top."""
    try:
        fom = a * math.exp(b * f)
    except OverflowError:
        return False
    return 0.0 < fom < math.inf and fom <= TOP[kind]


SIGN = 1 << 63


def rank(x):
    """The place of the float x in the order of all floats, as an integer (0 for +-0.0)."""
    bits = struct.unpack("<Q", struct.pack("<d", x))[0]
    return -(bits & ~SIGN) if bits & SIGN else bits


def unrank(r):
    return struct.unpack("<d", struct.pack("<Q", -r | SIGN if r < 0 else r))[0]


MAX_RANK = rank(sys.float_info.max)


def last_physical_past_top(kind, a, b):
    """The last physical float on the side where the FoM rises, +-inf if the closed-form top
    is past the float range, and -+inf if no float on that side of it is physical.

    A walk over consecutive floats from the top, away from it while the range check keeps
    its answer at the top, in strides that double and then halve."""
    top = math.log(TOP[kind] / a) / b
    if not math.isfinite(top):
        return top
    at_top = physical(kind, a, b, top)
    way = (1 if b > 0 else -1) * (1 if at_top else -1)
    same = lambda r: abs(r) <= MAX_RANK and physical(kind, a, b, unrank(r)) == at_top  # noqa: E731
    last, stride = rank(top), 1
    while same(last + way * stride):
        last, stride = last + way * stride, stride * 2
    first = last + way * stride  # the check differs here
    while abs(first - last) > 1:
        mid = (first + last) // 2
        last, first = (mid, first) if same(mid) else (last, mid)
    if at_top:
        return unrank(last)
    return unrank(first) if abs(first) <= MAX_RANK else (-math.inf if b > 0 else math.inf)


@settings(max_examples=1000, deadline=None)
@given(kind=st.sampled_from(list(BlockKind)), a=positive,
       b=st.floats(allow_nan=False, allow_infinity=False), span=pairs, ends=pairs,
       allow_extrapolation=st.booleans())
def test_admissible_interval_is_physical_and_reaches_its_bounds(kind, a, b, span, ends,
                                                               allow_extrapolation):
    got = _admissible(_term(kind, fit(a, b, *span), 1.0), *ends, allow_extrapolation)
    # The narrowed range: the ends, inside the span unless extrapolating, and not past the
    # last physical float on the side where the FoM rises.
    lo, hi = ends if allow_extrapolation else (max(ends[0], span[0]), min(ends[1], span[1]))
    if b:
        edge = last_physical_past_top(kind, a, b)
        lo, hi = (lo, min(hi, edge)) if b > 0 else (max(lo, edge), hi)
    if got == (math.inf, -math.inf):  # no node of the narrowed range is physical
        nodes = [lo + (hi - lo) * i / 64 for i in range(64)] + [hi] if lo <= hi else []
        assert not any(physical(kind, a, b, f) for f in nodes)
        return
    f_lo, f_hi = got
    assert lo <= f_lo <= f_hi <= hi
    assert physical(kind, a, b, f_lo) and physical(kind, a, b, f_hi)
    assert f_lo == lo or not physical(kind, a, b, math.nextafter(f_lo, -math.inf))
    assert f_hi == hi or not physical(kind, a, b, math.nextafter(f_hi, math.inf))


def test_admissible_keeps_a_physical_end_past_the_closed_form_top():
    # The efficiency 0.7 * exp(0.004 * f) reaches 1 at the closed-form ln(1 / 0.7) / 0.004 GHz
    # and is still exactly 1 at the float after it, the last physical one.
    osc = _term(BlockKind.OSCILLATOR, fit(0.7, 0.004), 1.0)
    top = math.log(1.0 / 0.7) / 0.004
    edge = math.nextafter(top, math.inf)
    assert repr(edge) == "89.16873598468311" and 0.7 * math.exp(0.004 * edge) == 1.0
    assert not physical(BlockKind.OSCILLATOR, 0.7, 0.004, math.nextafter(edge, math.inf))
    assert _admissible(osc, edge, 100.0, False) == (edge, edge)
    assert _admissible(osc, 80.0, 100.0, False) == (80.0, edge)


def probed(term, lo, hi, allow_extrapolation):
    """``_admissible``'s answer and every frequency it evaluated the term's fit at, in order."""
    seen = []

    def fom(a, b, f):
        seen.append(f)
        return fom_plain(a, b, f)

    with mock.patch("wnocpower.blocks._fom", fom):
        return _admissible(term, lo, hi, allow_extrapolation), seen


def test_admissible_cuts_a_pae_past_100_percent_from_its_closed_form_bound():
    hot = _term(BlockKind.PA, fit(1000.0, -0.02, 0.9, 309.3), 1.0)  # 100 % near 115.13 GHz
    edge = math.nextafter(math.log(100.0 / 1000.0) / -0.02, math.inf)
    got, seen = probed(hot, 1.0, 140.0, False)
    assert got == (edge, 140.0) and len(seen) == len(set(seen)) == 4


@pytest.mark.parametrize("a, b, ends, edge", [
    # ln(1 / 0.7) / 0.004 rounds to the float below 89.16873598468311, the last physical one.
    (0.7, 0.004, (89.16873598468311, 100.0), 89.16873598468311),
    # ln(1 / 1.013) / -0.004 rounds to 3.229056316636544, past the first physical float.
    (1.013, -0.004, (1.0, 3.22905631663653), 3.22905631663653),
])
def test_admissible_cuts_one_ulp_past_a_good_end_that_the_closed_form_top_falls_short_of(
        a, b, ends, edge):
    got, seen = probed(_term(BlockKind.OSCILLATOR, fit(a, b), 1.0), *ends, False)
    assert got == (edge, edge) and len(seen) == len(set(seen)) <= 4


@settings(max_examples=500, deadline=None)
@given(kind=st.sampled_from(list(BlockKind)), a=positive,
       b=st.floats(allow_nan=False, allow_infinity=False), span=pairs, ends=pairs,
       allow_extrapolation=st.booleans())
def test_admissible_checks_no_frequency_twice(kind, a, b, span, ends, allow_extrapolation):
    _, seen = probed(_term(kind, fit(a, b, *span), 1.0), *ends, allow_extrapolation)
    assert len(seen) == len(set(seen)), seen


def bisected_edge(ok, good, bad):
    """The last point from ``good`` toward ``bad`` where ``ok`` holds, by plain bisection of
    the whole bracket, and the bisection's step count."""
    steps = 0
    while (mid := good + (bad - good) / 2) not in (good, bad):
        good, bad = (mid, bad) if ok(mid) else (good, mid)
        steps += 1
    return good, steps


def edges_and_probes(term, lo, hi, allow_extrapolation):
    """For each ``_edge`` call that ``_admissible`` makes: its answer, the number of ``ok``
    probes it took, and ``bisected_edge`` on the same bracket."""
    calls = []

    def counted_edge(ok, good, bad, start):
        probes = 0

        def counted(f):
            nonlocal probes
            probes += 1
            return ok(f)

        edge = _edge(counted, good, bad, start)  # this module's name, not the patched one
        calls.append((edge, probes, bisected_edge(ok, good, bad)))
        return edge

    with mock.patch("wnocpower.blocks._edge", counted_edge):
        _admissible(term, lo, hi, allow_extrapolation)
    return calls


@settings(max_examples=500, deadline=None)
@given(kind=st.sampled_from(list(BlockKind)), a=positive,
       b=st.floats(allow_nan=False, allow_infinity=False), span=pairs, ends=pairs,
       allow_extrapolation=st.booleans())
# PAE 91.274 * exp(0.0116 * f) reaches 100 % at 7.871052966284444 GHz, seven floats short of
# the last physical one: both start probes pass, and bisecting what is left of [6.8, 17.2]
# takes 54 steps where the whole bracket takes 53.
@example(kind=BlockKind.PA, a=91.274, b=0.0116, span=[1.0, 1000.0], ends=[6.8, 17.2],
         allow_extrapolation=False)
def test_edge_takes_at_most_three_probes_more_than_a_plain_bisection(kind, a, b, span, ends,
                                                                     allow_extrapolation):
    # The start and step probes come first, then a bisection of a narrower bracket, which on
    # floats can take one step more than the whole bracket's.
    for edge, probes, (bisected, steps) in edges_and_probes(
            _term(kind, fit(a, b, *span), 1.0), *ends, allow_extrapolation):
        assert edge == bisected
        assert probes <= steps + 3, (probes, steps)


# --- the column and slope loops ---------------------------------------------------


@settings(max_examples=1000, deadline=None)
@given(kind=st.sampled_from(list(BlockKind)), a=positive,
       b=st.floats(allow_nan=False, allow_infinity=False), span=pairs, num=positive, f=positive)
@example(kind=BlockKind.PA, a=100.0, b=0.0, span=[1.0, 2.0], num=1.0, f=60.0)  # FoM at its top
@example(kind=BlockKind.OSCILLATOR, a=1.0, b=0.0, span=[1.0, 2.0], num=1.0, f=60.0)
def test_column_and_slope_loops_agree_with_the_point_evaluator(kind, a, b, span, num, f):
    term = _term(kind, fit(a, b, *span), num)
    (power,), (flag,) = _dcs(term, [f])
    try:
        mw, extrapolated = _block_dc(term, FrequencyGhz(f))
    except ValueError:  # an unphysical FoM or an inf power
        assert power == math.inf
        return
    assert (power, flag) == (mw.value, extrapolated)
    fom, public_flag = evaluate_fit(term.fit, FrequencyGhz(f))  # the two evaluators agree
    assert extrapolated == public_flag and mw.value == num / (term.scale * fom)
    part = b * power
    assert _slope([(term.a, term.b, term.num, term.scale)], f) == (part, -b * part)

import csv
import io
import itertools
import math
import random
import re
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import wnocpower.chain as chain_module
from wnocpower.blocks import MixerModel, OscModel, PaModel
from wnocpower.chain import (
    _FLAG_TOKENS,
    _TOKEN_FLAGS,
    ChainConfig,
    NoAdmissiblePointError,
    SWEEP_CSV_COLUMNS,
    SweepResult,
    breakdown_to_dict,
    breakdowns_to_csv,
    chain_breakdown,
    dominance_report,
    frequency_grid,
    recommend_frequency,
    sweep,
)
from wnocpower.regression import ExpFitModel
from wnocpower.survey import BlockKind
from wnocpower.units import FrequencyGhz, PowerDbm, PowerMilliwatt


def fit(a, b=0.0, lo=1.0, hi=1000.0):
    return ExpFitModel(a, b, FrequencyGhz(lo), FrequencyGhz(hi), 1.0, 1.0, 2, "test")


def constant_models(pae=50.0, eff=0.5, fom=0.1):
    return PaModel(fit(pae)), OscModel(fit(eff)), MixerModel(fit(fom))


def cfg(freq=60.0, mixer_out=-10.0, p_if=-5.0, pa_out=0.0, osc_rf=0.0):
    return ChainConfig(
        frequency=FrequencyGhz(freq),
        p_mixer_out=PowerDbm(mixer_out),
        p_if_in=PowerDbm(p_if),
        p_pa_out=None if pa_out is None else PowerDbm(pa_out),
        p_osc_rf=PowerDbm(osc_rf),
    )


# --- breakdown ---------------------------------------------------------------


def test_breakdown_hand_case():
    # constant fits PAE=50 %, eff=0.5, FoM=0.1 1/mW at the documented levels;
    # expected values frozen from a hand evaluation of the three formulas
    pa, osc, mix = constant_models()
    bd = chain_breakdown(pa, osc, mix, cfg())
    assert bd.mixer_mw.value == pytest.approx(3.1622776601683795, rel=1e-12)
    assert bd.osc_mw.value == pytest.approx(2.0, rel=1e-12)
    assert bd.pa_mw.value == pytest.approx(1.8, rel=1e-12)
    assert bd.total_mw.value == pytest.approx(6.962277660168379, rel=1e-12)
    assert sum(bd.fractions) == pytest.approx(1.0, abs=1e-9)


def test_breakdown_total_is_exact_part_sum():
    pa, osc, mix = constant_models(pae=37.0, eff=0.21, fom=0.73)
    bd = chain_breakdown(pa, osc, mix, cfg(freq=83.0, mixer_out=-7.0, pa_out=2.5))
    assert bd.total_mw.value == bd.pa_mw.value + bd.osc_mw.value + bd.mixer_mw.value


def test_breakdown_without_pa():
    _, osc, mix = constant_models()
    bd = chain_breakdown(None, osc, mix, cfg(pa_out=None))
    assert bd.pa_mw.value == 0.0
    assert bd.pa_fraction == 0.0
    assert bd.osc_fraction + bd.mixer_fraction == pytest.approx(1.0, abs=1e-12)


def test_breakdown_requires_pa_model_when_stage_present():
    _, osc, mix = constant_models()
    with pytest.raises(ValueError, match="no PA model"):
        chain_breakdown(None, osc, mix, cfg(pa_out=0.0))


def counted_terms(monkeypatch):
    """The kinds of the block terms built from here on, through either binding of ``_term``."""
    import wnocpower.blocks as blocks

    built = []
    real = blocks._term

    def counted(kind, fit, num):
        built.append(kind)
        return real(kind, fit, num)

    monkeypatch.setattr(blocks, "_term", counted)
    monkeypatch.setattr(chain_module, "_term", counted)
    return built


def test_a_point_builds_each_block_term_once(bundle_models, monkeypatch):
    built = counted_terms(monkeypatch)
    chain_breakdown(*bundle_models, cfg())
    assert Counter(built) == {kind: 1 for kind in BlockKind}


def test_a_recommendation_builds_each_block_term_twice(bundle_models, monkeypatch):
    # once for the search and once for the breakdown at its answer
    built = counted_terms(monkeypatch)
    recommend_frequency(*bundle_models, cfg(), FrequencyGhz(20.0), FrequencyGhz(140.0))
    assert Counter(built) == {kind: 2 for kind in BlockKind}


def test_config_rejects_non_positive_pa_gain():
    with pytest.raises(ValueError, match="must exceed mixer output"):
        cfg(mixer_out=-5.0, pa_out=-5.0)
    with pytest.raises(ValueError, match="must exceed mixer output"):
        cfg(mixer_out=-5.0, pa_out=-8.0)


def test_removing_pa_never_increases_total():
    rng = random.Random(17)
    for _ in range(50):
        pa, osc, mix = constant_models(
            pae=rng.uniform(5.0, 100.0), eff=rng.uniform(0.05, 1.0), fom=rng.uniform(0.05, 5.0)
        )
        mixer_out = rng.uniform(-20.0, 0.0)
        with_pa = chain_breakdown(
            pa, osc, mix, cfg(mixer_out=mixer_out, pa_out=mixer_out + rng.uniform(0.5, 15.0))
        )
        without = chain_breakdown(pa, osc, mix, cfg(mixer_out=mixer_out, pa_out=None))
        assert without.total_mw.value <= with_pa.total_mw.value


def test_fraction_sum_over_random_configs():
    rng = random.Random(23)
    for _ in range(200):
        pa, osc, mix = constant_models(
            pae=rng.uniform(1.0, 100.0), eff=rng.uniform(0.02, 1.0), fom=rng.uniform(0.01, 10.0)
        )
        mixer_out = rng.uniform(-25.0, 5.0)
        bd = chain_breakdown(
            pa, osc, mix,
            cfg(
                freq=rng.uniform(1.0, 900.0),
                mixer_out=mixer_out,
                p_if=rng.uniform(-15.0, 5.0),
                pa_out=mixer_out + rng.uniform(0.1, 20.0) if rng.random() < 0.7 else None,
                osc_rf=rng.uniform(-10.0, 10.0),
            ),
        )
        assert sum(bd.fractions) == pytest.approx(1.0, abs=1e-9)


def test_extrapolation_flags_propagate_per_block():
    pa = PaModel(fit(50.0, lo=1.0, hi=1000.0))
    osc = OscModel(fit(0.5, lo=1.0, hi=1000.0))
    mix = MixerModel(fit(0.1, lo=1.0, hi=140.0))
    bd = chain_breakdown(pa, osc, mix, cfg(freq=243.0))
    assert bd.mixer_extrapolated and not bd.pa_extrapolated and not bd.osc_extrapolated
    assert bd.extrapolated_blocks == (BlockKind.MIXER,)


# Block models that are physical everywhere, and two sets with a FoM that is not at 100 GHz:
# an oscillator efficiency 0.5 * exp(0.01 f), past 1 above ~69 GHz, and a mixer FoM
# 0.1 * exp(-10 f), 0 there. A level or PA-model fault must still come first.
FAULT_ORDER_MODELS = {
    "physical": constant_models(),
    "oscillator-unphysical": (PaModel(fit(50.0)), OscModel(fit(0.5, 0.01)), MixerModel(fit(0.1))),
    "mixer-unphysical": (PaModel(fit(50.0)), OscModel(fit(0.5)), MixerModel(fit(0.1, -10.0))),
}


def every_chain_function(pa, osc, mix, base):
    """Calls of the three chain functions at ``base``'s levels, each reaching 100 GHz."""
    return [lambda: chain_breakdown(pa, osc, mix, base),
            lambda: sweep(pa, osc, mix, base, [FrequencyGhz(30.0), FrequencyGhz(100.0)]),
            lambda: recommend_frequency(pa, osc, mix, base, FrequencyGhz(20.0),
                                        FrequencyGhz(140.0))]


@pytest.mark.parametrize("field, dbm, message", [
    ("p_mixer_out", -4000.0, "-4000.0 dBm rounds to 0 mW"),
    ("p_mixer_out", 5000.0, "5000.0 dBm overflows a float in mW"),
    ("p_if_in", -4000.0, "-4000.0 dBm rounds to 0 mW"),
    ("p_if_in", 5000.0, "5000.0 dBm overflows a float in mW"),
    ("p_osc_rf", -4000.0, "-4000.0 dBm rounds to 0 mW"),
    ("p_osc_rf", 5000.0, "5000.0 dBm overflows a float in mW"),
    ("p_pa_out", 5000.0, "5000.0 dBm overflows a float in mW"),
])
def test_an_unrepresentable_level_is_named_by_every_chain_function(field, dbm, message):
    base = cfg(freq=100.0, mixer_out=-5.0, pa_out=None)._replace(**{field: PowerDbm(dbm)})
    for name, models in FAULT_ORDER_MODELS.items():
        for call in every_chain_function(*models, base):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message, name


def test_a_missing_pa_model_is_named_before_an_unphysical_mixer():
    _, osc, mix = FAULT_ORDER_MODELS["mixer-unphysical"]
    for call in every_chain_function(None, osc, mix, cfg(freq=100.0, pa_out=0.0)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == "config requests a PA stage but no PA model was provided"


# --- sweep ---------------------------------------------------------------------


def test_singleton_sweep_equals_breakdown():
    pa, osc, mix = constant_models()
    result = sweep(pa, osc, mix, cfg(), [FrequencyGhz(60.0)])
    assert len(result) == 1
    f, bd = result.entries[0]
    assert f == FrequencyGhz(60.0)
    assert bd == chain_breakdown(pa, osc, mix, cfg(freq=60.0))


def test_sweep_requires_strictly_increasing_grid():
    pa, osc, mix = constant_models()
    with pytest.raises(ValueError, match="strictly increasing"):
        sweep(pa, osc, mix, cfg(), [FrequencyGhz(60.0), FrequencyGhz(30.0)])
    with pytest.raises(ValueError, match="strictly increasing"):
        sweep(pa, osc, mix, cfg(), [FrequencyGhz(60.0), FrequencyGhz(60.0)])
    with pytest.raises(ValueError, match="at least one"):
        sweep(pa, osc, mix, cfg(), [])


def test_sweep_reports_offending_frequency():
    pa = PaModel(fit(50.0))
    osc = OscModel(fit(0.5, b=0.01, lo=1.0, hi=1000.0))  # exceeds 1 above ~69 GHz
    mix = MixerModel(fit(0.1))
    with pytest.raises(ValueError, match="sweep failed at 100.0 GHz"):
        sweep(pa, osc, mix, cfg(), [FrequencyGhz(10.0), FrequencyGhz(100.0)])


def test_sweep_total_monotone_for_decaying_fits(bundle_models):
    pa, osc, mix = bundle_models
    freqs = [FrequencyGhz(f) for f in (20.0, 40.0, 60.0, 80.0, 100.0, 120.0, 140.0)]
    result = sweep(pa, osc, mix, cfg(mixer_out=-5.0, pa_out=0.0), freqs)
    totals = [bd.total_mw.value for _, bd in result]
    assert all(b > a for a, b in zip(totals, totals[1:]))


def test_sweep_matches_pointwise_breakdowns(bundle_models):
    pa, osc, mix = bundle_models
    freqs = [FrequencyGhz(f) for f in (15.0, 45.0, 90.0, 135.0)]
    base = cfg(mixer_out=-5.0, pa_out=0.0)
    result = sweep(pa, osc, mix, base, freqs)
    for f, bd in result:
        assert bd == chain_breakdown(pa, osc, mix, base._replace(frequency=f))
    again = sweep(pa, osc, mix, base, freqs)
    assert again == result


def test_sweep_result_rejects_unsorted_entries():
    pa, osc, mix = constant_models()
    bd = chain_breakdown(pa, osc, mix, cfg())
    with pytest.raises(ValueError, match="strictly increasing"):
        SweepResult(((60.0, *bd.row[1:]), (30.0, *bd.row[1:])), bd.levels)


def test_row_backed_sweep_result_agrees_with_pointwise_breakdowns(bundle_models):
    pa, osc, mix = bundle_models
    base = cfg(mixer_out=-5.0, pa_out=3.0)
    freqs = [FrequencyGhz(f) for f in frequency_grid(20.0, 250.0, 37)]  # across 140 GHz
    result = sweep(pa, osc, mix, base, freqs)
    expected = tuple((f, chain_breakdown(pa, osc, mix, base._replace(frequency=f)))
                     for f in freqs)
    assert result.entries == expected
    assert tuple(result) == expected
    assert len(result) == len(expected)
    assert result == SweepResult(tuple(bd.row for _f, bd in expected), expected[0][1].levels)
    assert result != sweep(pa, osc, mix, base._replace(p_mixer_out=PowerDbm(-6.0)), freqs)
    kinds = (BlockKind.PA, BlockKind.OSCILLATOR, BlockKind.MIXER)  # ties go to the first
    assert dominance_report(result) == [(f, kinds[max(range(3), key=bd.fractions.__getitem__)])
                                        for f, bd in expected]
    assert breakdowns_to_csv(result) == breakdowns_to_csv([bd for _f, bd in expected])


# --- recommendation ---------------------------------------------------------------


def test_recommend_monotone_returns_lower_bound(bundle_models):
    pa, osc, mix = bundle_models
    f, bd = recommend_frequency(
        pa, osc, mix, cfg(mixer_out=-5.0, pa_out=0.0),
        FrequencyGhz(20.0), FrequencyGhz(140.0), n_grid=61,
    )
    assert f.value == 20.0
    assert not bd.any_extrapolated


def test_recommend_tie_breaks_toward_lower_frequency():
    pa, osc, mix = constant_models()  # flat fits: every total identical
    f, _ = recommend_frequency(pa, osc, mix, cfg(), FrequencyGhz(10.0), FrequencyGhz(100.0), n_grid=16)
    assert f.value == 10.0


def test_recommend_skips_extrapolated_points():
    pa = PaModel(fit(50.0, lo=1.0, hi=1000.0))
    osc = OscModel(fit(0.5, lo=1.0, hi=1000.0))
    mix = MixerModel(fit(0.1, lo=50.0, hi=1000.0))  # valid only from 50 GHz
    f, _ = recommend_frequency(pa, osc, mix, cfg(), FrequencyGhz(10.0), FrequencyGhz(100.0), n_grid=10)
    assert f.value == 50.0


def test_recommend_no_admissible_point():
    pa, osc, mix = constant_models()
    mix = MixerModel(fit(0.1, lo=1.0, hi=5.0))
    with pytest.raises(NoAdmissiblePointError):
        recommend_frequency(pa, osc, mix, cfg(), FrequencyGhz(10.0), FrequencyGhz(100.0), n_grid=8)
    f, bd = recommend_frequency(
        pa, osc, mix, cfg(), FrequencyGhz(10.0), FrequencyGhz(100.0), n_grid=8,
        allow_extrapolation=True,
    )
    assert f.value == 10.0 and bd.mixer_extrapolated


def test_recommend_interior_minimum_matches_fine_scan():
    # PA cost rises with frequency while the oscillator improves, so the
    # total has an interior minimum
    pa = PaModel(fit(30.0, b=-0.01, lo=10.0, hi=200.0))
    osc = OscModel(fit(0.05, b=0.004, lo=10.0, hi=200.0))
    mix = MixerModel(fit(1.0, lo=10.0, hi=200.0))
    base = cfg(mixer_out=-5.0, pa_out=0.0)
    n = 97
    f_coarse, _ = recommend_frequency(pa, osc, mix, base, FrequencyGhz(10.0), FrequencyGhz(200.0), n_grid=n)
    f_fine, _ = recommend_frequency(
        pa, osc, mix, base, FrequencyGhz(10.0), FrequencyGhz(200.0), n_grid=(n - 1) * 10 + 1
    )
    step = (200.0 - 10.0) / (n - 1)
    assert 10.0 < f_coarse.value < 200.0
    assert abs(f_coarse.value - f_fine.value) <= step + 1e-9


def test_recommend_validates_arguments():
    pa, osc, mix = constant_models()
    with pytest.raises(ValueError, match="inverted"):
        recommend_frequency(pa, osc, mix, cfg(), FrequencyGhz(100.0), FrequencyGhz(10.0))
    with pytest.raises(ValueError, match=">= 2 points"):
        recommend_frequency(pa, osc, mix, cfg(), FrequencyGhz(10.0), FrequencyGhz(100.0), n_grid=1)


def test_recommend_finds_a_physical_band_narrower_than_half_the_range():
    # The efficiency e^{ln(a) - 10 f} is physical from its closed-form bound ln(a)/10 GHz up
    # to ~(ln(a) + 745)/10 GHz, where it rounds to 0. Neither 400 GHz nor the midpoint of the
    # range left above the bound is in that band, and for some a the bound rounds below it.
    mix = MixerModel(fit(1.0))
    base = cfg(osc_rf=-30.0, pa_out=None)
    for ln_a in [601.2] + [600.0 + 90.0 * i / 299 for i in range(300)]:
        osc = OscModel(fit(math.exp(ln_a), b=-10.0))
        f, bd = recommend_frequency(None, osc, mix, base, FrequencyGhz(1.0), FrequencyGhz(400.0),
                                    allow_extrapolation=True)
        eff = lambda f: osc.eff_fit.a * math.exp(-10.0 * f)  # noqa: E731
        assert eff(f.value) <= 1.0 and f.value == pytest.approx(ln_a / 10.0, rel=1e-12), ln_a
        assert bd.total_mw.value < math.inf


# Answers pinned to the float. The bundle recommendation reaches only the range's lower end,
# so these cover the slope search of chain._argmin and the physical-bound cut of
# blocks._admissible.


def test_recommend_pins_an_interior_minimum(bundle_models):
    pa, osc, mix = bundle_models  # with a rising-FoM mixer, whose draw falls with frequency
    rising = MixerModel(mix.fom_fit._replace(a=0.02, b=0.05))
    f, bd = recommend_frequency(pa, osc, rising, cfg(mixer_out=-5.0, pa_out=0.0),
                                FrequencyGhz(20.0), FrequencyGhz(140.0))
    assert repr(f.value) == "74.28873187089798"
    assert bd.row == (74.28873187089798, 2.6523128101566478, 3.8849480425549467,
                      1.2184583497013035, 7.755719202412898, 0.3419815417416713,
                      0.500913963123664, 0.1571044951346648, "")


def test_recommend_pins_the_interior_minimum_in_few_slope_probes(bundle_models, monkeypatch):
    pa, osc, mix = bundle_models  # the case above; a bisection of the slope takes ~55 probes
    probes, slope = [], chain_module._slope
    monkeypatch.setattr(chain_module, "_slope",
                        lambda rates, f: probes.append(f) or slope(rates, f))
    rising = MixerModel(mix.fom_fit._replace(a=0.02, b=0.05))
    f, _ = recommend_frequency(pa, osc, rising, cfg(mixer_out=-5.0, pa_out=0.0),
                               FrequencyGhz(20.0), FrequencyGhz(140.0))
    assert repr(f.value) == "74.28873187089798"
    assert len(probes) <= 20 and len(set(probes)) == len(probes), probes


def test_recommend_reaches_a_physical_end_past_the_closed_form_top():
    # The efficiency 0.7 * exp(0.004 * f) is exactly 1 at 89.16873598468311 GHz, the float
    # after the closed-form ln(1 / 0.7) / 0.004. The draw falls with f, so the answer is there.
    osc, mix, base = OscModel(fit(0.7, b=0.004)), MixerModel(fit(1.0)), cfg(pa_out=None)
    edge = 89.16873598468311
    for lo in (edge, 80.0):
        f, bd = recommend_frequency(None, osc, mix, base, FrequencyGhz(lo), FrequencyGhz(100.0))
        assert f.value == edge and bd.osc_mw.value == 1.0


def test_recommend_pins_the_physical_bound_of_a_pae_past_100_percent(bundle_models):
    _, osc, mix = bundle_models
    hot = PaModel(fit(1000.0, b=-0.02, lo=0.9, hi=309.3))  # PAE falls through 100 % near 115 GHz
    top = math.log(100.0 / 1000.0) / -0.02
    assert 1000.0 * math.exp(-0.02 * top) > 100.0  # the closed-form bound rounds past it
    f, bd = recommend_frequency(hot, osc, mix, cfg(mixer_out=-5.0, pa_out=0.0),
                                FrequencyGhz(1.0), FrequencyGhz(140.0))
    assert repr(f.value) == "115.12925464970229" and f.value == math.nextafter(top, math.inf)
    assert bd.row == (115.12925464970229, 0.6837722339831621, 5.187721590870946,
                      0.7540266144736962, 6.625520439327804, 0.1032027959531183,
                      0.7829908062886104, 0.11380639775827125, "")


def test_recommend_pins_its_refusal_message(bundle_models):
    pa, osc, mix = bundle_models
    with pytest.raises(NoAdmissiblePointError) as info:
        recommend_frequency(pa, osc, mix, cfg(mixer_out=-5.0, pa_out=0.0),
                            FrequencyGhz(150.0), FrequencyGhz(200.0))
    assert str(info.value) == (
        "no frequency in [150.0, 200.0] GHz is inside all model validity ranges with every "
        "figure of merit physical; pass allow_extrapolation to search anyway")


# --- dominance ----------------------------------------------------------------


def test_dominance_prefers_oscillator_on_exact_tie():
    # PA absent; oscillator and mixer both land on exactly 2.0 mW
    _, osc, mix = constant_models(eff=0.5, fom=0.5)
    result = sweep(None, osc, mix, cfg(mixer_out=-5.0, p_if=-5.0, pa_out=None),
                   [FrequencyGhz(30.0)])
    report = dominance_report(result)
    assert report == [(FrequencyGhz(30.0), BlockKind.OSCILLATOR)]


def test_dominance_without_pa_never_names_pa():
    _, osc, mix = constant_models(eff=0.1, fom=5.0)
    result = sweep(None, osc, mix, cfg(pa_out=None), [FrequencyGhz(10.0), FrequencyGhz(20.0)])
    for _f, kind in dominance_report(result):
        assert kind in (BlockKind.OSCILLATOR, BlockKind.MIXER)


def test_dominant_share_is_at_least_one_third():
    rng = random.Random(31)
    for _ in range(50):
        pa, osc, mix = constant_models(
            pae=rng.uniform(1.0, 100.0), eff=rng.uniform(0.02, 1.0), fom=rng.uniform(0.01, 10.0)
        )
        result = sweep(pa, osc, mix, cfg(), [FrequencyGhz(60.0)])
        bd = result.entries[0][1]
        (_, kind), = dominance_report(result)
        share = {
            BlockKind.PA: bd.pa_fraction,
            BlockKind.OSCILLATOR: bd.osc_fraction,
            BlockKind.MIXER: bd.mixer_fraction,
        }[kind]
        assert share >= 1.0 / 3.0 - 1e-12


def test_dominance_rejects_empty_sweep():
    with pytest.raises(ValueError, match="non-empty"):
        dominance_report(SweepResult((), ()))


# --- serialization ---------------------------------------------------------------


def test_csv_header_and_row_shape():
    pa, osc, mix = constant_models()
    bd = chain_breakdown(pa, osc, mix, cfg())
    text = breakdowns_to_csv([bd])
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(SWEEP_CSV_COLUMNS)
    cells = lines[1].split(",")
    assert len(cells) == 9
    assert float(cells[0]) == 60.0
    assert float(cells[4]) == pytest.approx(bd.total_mw.value, rel=1e-15)
    assert cells[8] == ""


def test_csv_marks_extrapolated_blocks():
    pa = PaModel(fit(50.0))
    osc = OscModel(fit(0.5))
    mix = MixerModel(fit(0.1, lo=1.0, hi=140.0))
    bd = chain_breakdown(pa, osc, mix, cfg(freq=243.0))
    text = breakdowns_to_csv([bd])
    assert text.strip().split("\n")[1].endswith(",MIXER")
    pa_narrow = PaModel(fit(50.0, lo=1.0, hi=100.0))
    bd = chain_breakdown(pa_narrow, osc, mix, cfg(freq=243.0))
    assert breakdowns_to_csv([bd]).strip().split("\n")[1].endswith(",PA;MIXER")


def test_breakdown_json_document():
    pa, osc, mix = constant_models()
    bd = chain_breakdown(pa, osc, mix, cfg())
    doc = breakdown_to_dict(bd)
    assert doc["config"]["frequency_ghz"] == 60.0
    assert doc["config"]["p_pa_out_dbm"] == 0.0
    assert doc["total_mw"] == bd.total_mw.value
    assert doc["extrapolated_blocks"] == []
    bd_no_pa = chain_breakdown(None, osc, mix, cfg(pa_out=None))
    assert breakdown_to_dict(bd_no_pa)["config"]["p_pa_out_dbm"] is None


def test_recommend_skips_extrapolated_points_before_checking_them():
    # the oscillator efficiency exceeds 1 above ~69.3 GHz, far outside the
    # [10, 50] GHz spans, so those points are skipped, not fatal
    pa = PaModel(fit(50.0, lo=10.0, hi=50.0))
    osc = OscModel(fit(0.5, b=0.01, lo=10.0, hi=50.0))
    mix = MixerModel(fit(0.1, lo=10.0, hi=50.0))
    f, bd = recommend_frequency(pa, osc, mix, cfg(), FrequencyGhz(10.0), FrequencyGhz(300.0))
    assert 10.0 <= f.value <= 50.0
    assert not bd.any_extrapolated


def test_overflowing_power_fails_a_point_but_not_a_search():
    # 30 dBm out of -5 dBm IF over a FoM of 1e-306·e^{0.05 f} 1/mW overflows
    # to inf below ~57 GHz and is finite above it
    _, osc, _ = constant_models()
    mix = MixerModel(fit(1e-306, b=0.05, lo=10.0, hi=200.0))
    base = cfg(mixer_out=30.0, pa_out=None)
    with pytest.raises(ValueError, match="sweep failed at 10.0 GHz: .*finite"):
        sweep(None, osc, mix, base, [FrequencyGhz(10.0), FrequencyGhz(100.0)])
    with pytest.raises(ValueError, match="finite"):
        chain_breakdown(None, osc, mix, cfg(freq=10.0, mixer_out=30.0, pa_out=None))
    f, bd = recommend_frequency(None, osc, mix, base, FrequencyGhz(10.0), FrequencyGhz(200.0))
    assert f.value == 200.0 and bd.total_mw.value < float("inf")


@pytest.mark.parametrize("pa_out", [None, 0.0, 5.0])
def test_sweep_csv_is_byte_identical_to_pointwise_breakdowns(bundle_models, pa_out):
    pa, osc, mix = bundle_models
    freqs = [FrequencyGhz(100.0 + 0.0371 * i) for i in range(2000)]  # 100 .. ~174 GHz
    swept, pointwise = [], []
    for level in (-15.0, -10.0, -5.0):
        base = cfg(mixer_out=level, pa_out=pa_out)
        swept.extend(bd for _f, bd in sweep(pa, osc, mix, base, freqs))
        pointwise.extend(chain_breakdown(pa, osc, mix, base._replace(frequency=f)) for f in freqs)
    text = breakdowns_to_csv(swept)
    assert ",MIXER\n" in text and text.count("\n") == 1 + len(pointwise)
    assert text == breakdowns_to_csv(pointwise)


def test_overflowing_fit_is_a_range_error_naming_block_and_frequency():
    # e^{5.0 * 200} is past the float range: the mixer FoM evaluates to inf
    _, osc, _ = constant_models()
    mix = MixerModel(fit(1.0, b=5.0))
    base = cfg(freq=200.0, mixer_out=-5.0, pa_out=None)
    with pytest.raises(ValueError, match=r"^MIXER fit at 200.0 GHz = inf 1/mW"):
        chain_breakdown(None, osc, mix, base)
    with pytest.raises(ValueError, match=r"^sweep failed at 200.0 GHz: MIXER fit at 200.0 GHz"):
        sweep(None, osc, mix, base, [FrequencyGhz(200.0)])


def test_subnormal_pae_draws_infinite_power():
    # 1 % of a PAE of 1e-322 % rounds to 0: the PA's draw is inf, not a division by zero
    pa = PaModel(fit(1e-322))
    _, osc, mix = constant_models()
    base = cfg(pa_out=0.0)
    assert 0.01 * pa.pae_fit.a == 0.0
    with pytest.raises(ValueError, match="^PA draw at 60.0 GHz: .*must be finite"):
        chain_breakdown(pa, osc, mix, base)
    with pytest.raises(ValueError, match="sweep failed at 60.0 GHz: PA draw at .*must be finite"):
        sweep(pa, osc, mix, base, [FrequencyGhz(60.0)])
    with pytest.raises(ValueError, match="PA draw at .*must be finite"):
        recommend_frequency(pa, osc, mix, base, FrequencyGhz(10.0), FrequencyGhz(100.0))


def test_total_past_the_float_range_names_itself():
    # each of the PA and oscillator draws is 1e308 mW, finite; their sum is inf
    pa, osc, mix = PaModel(fit(100.0)), OscModel(fit(1.0)), MixerModel(fit(1.0))
    base = cfg(pa_out=3080.0, osc_rf=3080.0)
    message = "total draw at 60.0 GHz: power in mW must be finite (got inf)"
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        chain_breakdown(pa, osc, mix, base)
    with pytest.raises(ValueError, match=rf"^sweep failed at 60.0 GHz: {re.escape(message)}$"):
        sweep(pa, osc, mix, base, [FrequencyGhz(60.0)])


def test_recommend_ranks_subnormal_pae_points_last():
    # PAE = e^{-2.48 f} %: normal at 10 GHz, subnormal with a 1 % that rounds to 0 at 300 GHz
    pa = PaModel(fit(1.0, b=-2.48))
    _, osc, mix = constant_models()
    pae_300 = math.exp(-2.48 * 300.0)
    assert pae_300 > 0.0 and 0.01 * pae_300 == 0.0
    f, bd = recommend_frequency(pa, osc, mix, cfg(pa_out=0.0), FrequencyGhz(10.0),
                                FrequencyGhz(300.0))
    assert f.value == 10.0 and bd.total_mw.value < float("inf")


# --- column sweep, first failure and the CSV writer --------------------------------


def pointwise(pa, osc, mix, base, freqs):
    """``chain_breakdown`` at each frequency, in order: the rows, or the first failing
    frequency and its message."""
    rows = []
    for f in freqs:
        try:
            rows.append(chain_breakdown(pa, osc, mix, base._replace(frequency=f)))
        except ValueError as exc:
            return f, str(exc)
    return rows


def sweep_or_message(pa, osc, mix, base, freqs):
    try:
        return [bd for _f, bd in sweep(pa, osc, mix, base, freqs)]
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("case", [
    # the oscillator efficiency passes 1 above ~69.3 GHz, the mixer FoM overflows above ~190 GHz
    dict(pa=None, osc=(0.5, 0.01), mix=(1e300, 0.1), mixer_out=-10.0, needle="OSC fit at"),
    # the mixer draw overflows above ~178.6 GHz, the oscillator turns unphysical above ~231 GHz
    dict(pa=None, osc=(0.5, 0.003), mix=(1e-300, -0.1), mixer_out=0.0, needle="finite"),
    # from 237.5 GHz both the mixer FoM (e^712.5) and the oscillator efficiency are unphysical
    dict(pa=None, osc=(0.5, 0.00292), mix=(1.0, 3.0), mixer_out=-10.0, needle="MIXER fit at"),
    # PA and oscillator both unphysical from ~69.3 GHz: the oscillator is named
    dict(pa=(50.0, 0.01), osc=(0.5, 0.01), mix=(0.1, 0.0), mixer_out=-10.0, needle="OSC fit at"),
    # PAE = 50 e^{-5 f} % is a subnormal 1.8e-308 % at 142.5 GHz, where the PA draw is inf
    dict(pa=(50.0, -5.0), osc=(0.5, 0.0), mix=(0.1, 0.0), mixer_out=-10.0, needle="finite"),
    # from 70 GHz the mixer FoM is a subnormal 1.6e-312 1/mW, whose draw at -30 dBm out is
    # inf, and the oscillator efficiency passes 1: the mixer draw is named
    dict(pa=None, osc=(0.5, 0.01), mix=(1e-251, -2.0), mixer_out=-30.0,
         needle="MIXER draw at 70.0 GHz: power in mW must be finite"),
], ids=["osc-before-mixer", "overflow-before-unphysical", "two-faults-one-frequency",
        "pa-and-osc-at-once", "subnormal-pae", "mixer-draw-overflow-and-osc-at-once"])
def test_sweep_reports_the_first_failure_as_pointwise_breakdowns_do(case):
    pa = PaModel(fit(*case["pa"])) if case["pa"] else None
    osc, mix = OscModel(fit(*case["osc"])), MixerModel(fit(*case["mix"]))
    base = cfg(mixer_out=case["mixer_out"], pa_out=None if pa is None else 5.0 + case["mixer_out"])
    freqs = [FrequencyGhz(10.0 + 2.5 * i) for i in range(97)]  # 10 .. 250 GHz
    f, message = pointwise(pa, osc, mix, base, freqs)
    assert case["needle"] in message and f != freqs[0]
    assert sweep_or_message(pa, osc, mix, base, freqs) == f"sweep failed at {f.value} GHz: {message}"


def valid_fits():
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    a = st.one_of(st.floats(1e-3, 200.0), st.floats(min_value=0.0, max_value=1e-300,
                                                    exclude_min=True), positive)
    b = st.one_of(st.floats(-3.0, 6.0), st.floats(allow_nan=False, allow_infinity=False))
    span = st.lists(st.floats(0.5, 400.0), min_size=2, max_size=2, unique=True).map(sorted)
    return st.builds(lambda a, b, span: fit(a, b, *span), a, b, span)


@settings(max_examples=200, deadline=None)
@given(pa_fit=valid_fits(), osc_fit=valid_fits(), mix_fit=valid_fits(),
       with_pa=st.booleans(), mixer_out=st.sampled_from([-30.0, -10.0, 0.0, 30.0]),
       grid=st.lists(st.floats(0.5, 400.0), min_size=1, max_size=40, unique=True).map(sorted))
def test_sweep_equals_pointwise_breakdowns_for_any_model_numbers(pa_fit, osc_fit, mix_fit,
                                                                  with_pa, mixer_out, grid):
    pa, osc, mix = PaModel(pa_fit), OscModel(osc_fit), MixerModel(mix_fit)
    base = cfg(mixer_out=mixer_out, pa_out=mixer_out + 5.0 if with_pa else None)
    freqs = [FrequencyGhz(f) for f in grid]
    expected = pointwise(pa, osc, mix, base, freqs)
    got = sweep_or_message(pa, osc, mix, base, freqs)
    if isinstance(expected, list):
        assert got == expected and breakdowns_to_csv(got) == breakdowns_to_csv(expected)
    else:
        f, message = expected
        assert got == f"sweep failed at {f.value} GHz: {message}"


def recommend_or_message(pa, osc, mix, base, lo, hi, allow, n_grid):
    try:
        f, bd = recommend_frequency(pa, osc, mix, base, FrequencyGhz(lo), FrequencyGhz(hi),
                                    n_grid=n_grid, allow_extrapolation=allow)
    except ValueError as exc:
        return str(exc)
    return f, bd.row


@settings(max_examples=200, deadline=None)
@given(pa_fit=valid_fits(), osc_fit=valid_fits(), mix_fit=valid_fits(),
       with_pa=st.booleans(), mixer_out=st.sampled_from([-30.0, -10.0, 0.0, 30.0]),
       allow=st.booleans(),
       span=st.lists(st.floats(0.5, 400.0), min_size=2, max_size=2, unique=True).map(sorted))
# a flat 2 mW oscillator beside a falling ~3e-301 mW mixer draw: the total is one float
@example(pa_fit=fit(50.0), osc_fit=fit(0.5), mix_fit=fit(1e300, b=0.01), with_pa=False,
         mixer_out=-10.0, allow=False, span=[10.0, 100.0])
def test_n_grid_does_not_change_the_recommendation(pa_fit, osc_fit, mix_fit, with_pa, mixer_out,
                                                   allow, span):
    pa, osc, mix = PaModel(pa_fit), OscModel(osc_fit), MixerModel(mix_fit)
    base = cfg(mixer_out=mixer_out, pa_out=mixer_out + 5.0 if with_pa else None)
    first, *rest = [recommend_or_message(pa, osc, mix, base, *span, allow, n)
                    for n in (2, 64, 1001)]
    assert all(other == first for other in rest), (first, rest)


def stdlib_csv(breakdowns):
    """The CSV as the csv module writes it: the oracle of ``breakdowns_to_csv``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SWEEP_CSV_COLUMNS)
    writer.writerows(bd.row for bd in breakdowns)
    return out.getvalue()


def test_csv_matches_the_stdlib_csv_writer():
    rows = []
    for flags in itertools.product((False, True), repeat=3):  # every extrapolated-blocks cell
        pa, osc, mix = (model(fit(value, lo=100.0 if flagged else 1.0))
                        for model, value, flagged in zip((PaModel, OscModel, MixerModel),
                                                         (50.0, 0.5, 0.1), flags))
        rows.append(chain_breakdown(pa, osc, mix, cfg(freq=60.0)))
    assert {bd.row[8] for bd in rows} == set(_FLAG_TOKENS.values())
    _, osc, mix = constant_models()
    rows.append(chain_breakdown(None, osc, mix, cfg(freq=60, pa_out=None)))  # int GHz, no PA
    assert rows[-1].row[0] == 60 and type(rows[-1].row[0]) is int and rows[-1].row[1] == 0.0
    # a mixer FoM of 1e300 1/mW at a 1e-9.5 gain draws a subnormal 3e-310 mW,
    # and one of 1e-300 1/mW at unit gain draws 1e300 mW
    rows.append(chain_breakdown(None, osc, MixerModel(fit(1e300)),
                                cfg(mixer_out=-100.0, p_if=-5.0, pa_out=None)))
    assert 0.0 < rows[-1].row[3] < sys.float_info.min
    rows.append(chain_breakdown(None, osc, MixerModel(fit(1e-300)),
                                cfg(mixer_out=0.0, p_if=0.0, pa_out=None)))
    assert rows[-1].row[3] == pytest.approx(1e300)
    text = breakdowns_to_csv(rows)
    assert text == stdlib_csv(rows)
    assert breakdowns_to_csv([]) == stdlib_csv([]) == ",".join(SWEEP_CSV_COLUMNS) + "\n"
    for bd in rows:
        assert_views_match_row(bd)


_CELL_VIEWS = (("pa_mw", 1, PowerMilliwatt), ("osc_mw", 2, PowerMilliwatt),
               ("mixer_mw", 3, PowerMilliwatt), ("total_mw", 4, PowerMilliwatt),
               ("pa_fraction", 5, float), ("osc_fraction", 6, float),
               ("mixer_fraction", 7, float))
_FLAG_VIEWS = ("pa_extrapolated", "osc_extrapolated", "mixer_extrapolated")


def assert_views_match_row(bd):
    """Each named cell view of ``bd`` is its row cell, with its type, and is read-only."""
    row, flags = bd.row, _TOKEN_FLAGS[bd.row[8]]
    for name, index, wrap in _CELL_VIEWS:
        value = getattr(bd, name)
        assert type(value) is wrap, name
        assert value == wrap(row[index]), name
    for name, flag in zip(_FLAG_VIEWS, flags):
        assert getattr(bd, name) is flag, name
    assert bd.per_block == ((BlockKind.PA, bd.pa_mw, bd.pa_fraction, bd.pa_extrapolated),
                            (BlockKind.OSCILLATOR, bd.osc_mw, bd.osc_fraction, bd.osc_extrapolated),
                            (BlockKind.MIXER, bd.mixer_mw, bd.mixer_fraction, bd.mixer_extrapolated))
    kinds = (BlockKind.PA, BlockKind.OSCILLATOR, BlockKind.MIXER)
    assert bd.extrapolated_blocks == tuple(kind for kind, flag in zip(kinds, flags) if flag)
    assert bd.any_extrapolated is any(flags)
    for name in [name for name, *_ in _CELL_VIEWS] + list(_FLAG_VIEWS):
        with pytest.raises(AttributeError):
            setattr(bd, name, getattr(bd, name))


@pytest.mark.parametrize("lo, hi", [(1.0, math.inf), (math.nan, 100.0), (-math.inf, 5.0),
                                    (5.0, math.nan), (math.inf, math.inf)])
def test_frequency_grid_rejects_non_finite_ends_by_name(lo, hi):
    bad = lo if not math.isfinite(lo) else hi
    with pytest.raises(ValueError, match=rf"^frequency range ends must be finite \(got {bad} GHz\)$"):
        frequency_grid(lo, hi, 5)

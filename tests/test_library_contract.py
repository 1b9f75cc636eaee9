"""The library error contract as a property.

Whatever it is given, each public entry point below returns or raises a
``ValueError`` subclass, never another exception: the survey reader on
text and bytes (byte-order marks, CR, NUL and stray quotes included),
the model reader on any JSON value, the exponential fit on any finite
positive points, the binned-max strategy on any bin count, the unit
types on any int or float, and the chain (breakdown, sweep with its
dominance report, recommendation with any integer grid size) on any
valid fits and levels. The recommendation's slope search, which checks no
figure of merit itself, probes only points where every one is physical.
"""

import math
from unittest import mock

from hypothesis import given, settings, strategies as st

import wnocpower.chain as chain_module
from wnocpower.blocks import MixerModel, OscModel, PaModel
from wnocpower.chain import (ChainConfig, _admissible_interval, _terms, chain_breakdown,
                             dominance_report, recommend_frequency, sweep)
from wnocpower.exampledata import fit_bundle
from wnocpower.regression import (ExpFitModel, _fom, fit_exponential, model_from_dict,
                                  model_to_dict)
from wnocpower.survey import BinnedMax, parse_survey_csv
from wnocpower.units import FrequencyGhz, PowerDbm, PowerMilliwatt

HEADER = "block,frequency_ghz,metric,label,technology_node,notes"
SURVEY_TOKENS = st.sampled_from(list('\ufeff\r\n\x00",#.-+e ab0123456789')
                                + ["PA", "OSC", "MIXER", "inf", "nan", "1e400", "PA,60,22.5,a"])
_PA, _OSC, _MIX = fit_bundle()
MODEL_DOC = model_to_dict(_PA.kind, _PA.pae_fit, "0" * 64)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children,
                                                                      max_size=4),
    max_leaves=8,
)


def keeps_the_contract(call, *args):
    """``call(*args)``: a ValueError is allowed, any other exception fails the test."""
    try:
        call(*args)
    except ValueError:
        pass


@st.composite
def survey_sources(draw):
    """Survey text, bare or after a header, as str or as UTF-8 bytes."""
    body = "".join(draw(st.lists(SURVEY_TOKENS, max_size=60)))
    text = draw(st.sampled_from(["", HEADER + "\n", "\ufeff" + HEADER + "\r"])) + body
    return text.encode("utf-8") if draw(st.booleans()) else text


@settings(max_examples=300, deadline=None)
@given(source=st.one_of(survey_sources(), st.binary(max_size=80)))
def test_parse_survey_csv_keeps_the_contract(source):
    keeps_the_contract(parse_survey_csv, source)


@settings(max_examples=300, deadline=None)
@given(doc=json_values | st.dictionaries(st.sampled_from(sorted(MODEL_DOC)), json_values).map(
    lambda fields: {**MODEL_DOC, **fields}))  # a real document with fields replaced
def test_model_from_dict_keeps_the_contract(doc):
    keeps_the_contract(model_from_dict, doc)


positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(points=st.lists(st.tuples(positive, positive), max_size=8))
def test_fit_exponential_keeps_the_contract(points):
    keeps_the_contract(fit_exponential, [(FrequencyGhz(f), m) for f, m in points])


@settings(max_examples=300, deadline=None)
@given(bins=json_values | st.integers(-2, 2**54) | st.sampled_from([math.inf, 2**53, 2**53 + 1]))
def test_binned_max_keeps_the_contract(bins):
    keeps_the_contract(BinnedMax, bins)


# Ints past the float range included, which math.isfinite cannot convert.
@settings(max_examples=300, deadline=None)
@given(unit=st.sampled_from([PowerDbm, PowerMilliwatt, FrequencyGhz]),
       value=st.integers() | st.floats() | st.sampled_from([10**400, -10**400, 2**1024]))
def test_unit_types_keep_the_contract(unit, value):
    keeps_the_contract(unit, value)


# Frequencies and amplitudes over the whole positive float range, subnormals included.
frequencies = st.one_of(st.floats(0.5, 400.0), st.floats(5e-324, 1.7e308))
levels = st.floats(-400.0, 400.0)


@st.composite
def chains(draw):
    """(PA model or None, oscillator model, mixer model, config): valid fits over random spans,
    with amplitudes weighted to the physical range and rates of any sign and size, at levels
    up to +-400 dBm, with or without a PA stage."""
    def fit():
        lo, hi = sorted(draw(st.lists(frequencies, min_size=2, max_size=2, unique=True)))
        rate = draw(st.sampled_from([1e3, -1e3, 1e-300, -1e-300, 0.0]) | st.floats(-3.0, 3.0))
        amplitude = draw(st.floats(0.01, 1.0) | st.floats(5e-324, 1.7e308))
        return ExpFitModel(amplitude, rate, FrequencyGhz(lo), FrequencyGhz(hi), 1.0, 1.0, 2, "t")

    pa, osc, mix = PaModel(fit()), OscModel(fit()), MixerModel(fit())
    p_mixer_out, p_pa_out = draw(levels), draw(st.none() | levels)
    if p_pa_out is not None and p_pa_out <= p_mixer_out:
        p_pa_out = None
    cfg = ChainConfig(FrequencyGhz(draw(frequencies)), PowerDbm(p_mixer_out),
                      PowerDbm(draw(levels)), None if p_pa_out is None else PowerDbm(p_pa_out),
                      PowerDbm(draw(levels)))
    return draw(st.sampled_from([pa, None])), osc, mix, cfg


@settings(max_examples=300, deadline=None)
@given(chain=chains(), grid=st.lists(frequencies, min_size=1, max_size=8, unique=True),
       ends=st.lists(frequencies, min_size=2, max_size=2), allow=st.booleans(),
       n_grid=st.integers() | st.sampled_from([2**53, 2**53 + 1, 10**400]))
def test_chain_keeps_the_contract(chain, grid, ends, allow, n_grid):
    pa, osc, mix, cfg = chain
    keeps_the_contract(chain_breakdown, pa, osc, mix, cfg)
    keeps_the_contract(lambda: dominance_report(
        sweep(pa, osc, mix, cfg, [FrequencyGhz(f) for f in sorted(grid)])))
    for n in (2, n_grid):
        keeps_the_contract(recommend_frequency, pa, osc, mix, cfg, FrequencyGhz(ends[0]),
                           FrequencyGhz(ends[1]), n, allow)


def slope_probes(pa, osc, mix, cfg, lo, hi, allow):
    """The frequencies ``recommend_frequency`` passes to the slope of the total, each checked
    to lie in the admissible interval with every figure of merit that has a rate physical."""
    probes, slope = [], chain_module._slope
    with mock.patch.object(chain_module, "_slope",
                           lambda terms, f: probes.append(f) or slope(terms, f)):
        keeps_the_contract(recommend_frequency, pa, osc, mix, cfg, FrequencyGhz(lo),
                           FrequencyGhz(hi), 2, allow)
    if probes:
        terms = _terms(pa, osc, mix, cfg)
        f_lo, f_hi = _admissible_interval(terms, lo, hi, allow)
        for f in probes:
            assert f_lo <= f <= f_hi, (f, f_lo, f_hi)
            for term in terms:
                fom = _fom(term.a, term.b, f)
                assert not term.b or (math.isfinite(fom) and 0 < fom <= term.fom_hi), (term, f)
    return probes


# The bundle PA and oscillator with a rising-FoM mixer: an interior minimum at ~74.3 GHz.
_INTERIOR = (_PA, _OSC, MixerModel(_MIX.fom_fit._replace(a=0.02, b=0.05)),
             ChainConfig(FrequencyGhz(60.0), PowerDbm(-5.0), PowerDbm(-5.0), PowerDbm(0.0)))


@settings(max_examples=300, deadline=None)
@given(chain=chains(), ends=st.lists(frequencies, min_size=2, max_size=2), allow=st.booleans())
def test_recommend_probes_the_slope_only_where_it_is_physical(chain, ends, allow):
    slope_probes(*chain, *ends, allow)


def test_recommend_probes_the_interior_case_only_where_it_is_physical():
    assert len(slope_probes(*_INTERIOR, 20.0, 140.0, False)) > 2

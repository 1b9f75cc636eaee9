"""The library error contract as a property.

Whatever it is given, each public entry point below returns or raises a
``ValueError`` subclass, never another exception: the survey reader on
text and bytes (byte-order marks, CR, NUL and stray quotes included),
the model reader on any JSON value, the exponential fit on any finite
positive points, and the binned-max strategy on any bin count.
"""

import math

from hypothesis import given, settings, strategies as st

from wnocpower.exampledata import fit_bundle
from wnocpower.regression import fit_exponential, model_from_dict, model_to_dict
from wnocpower.survey import BinnedMax, parse_survey_csv
from wnocpower.units import FrequencyGhz

HEADER = "block,frequency_ghz,metric,label,technology_node,notes"
SURVEY_TOKENS = st.sampled_from(list('\ufeff\r\n\x00",#.-+e ab0123456789')
                                + ["PA", "OSC", "MIXER", "inf", "nan", "1e400", "PA,60,22.5,a"])
_PA = fit_bundle()[0]
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

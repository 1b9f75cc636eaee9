"""The contract of the library's immutable value types.

No value type is a dataclass. Fifteen are records (``units._record``): the
three unit types, ``ChainConfig``, ``ExpFitModel``, the three block models,
``PowerBreakdown``, ``SurveyRecord``, the two frontier strategies,
``FitDiagnostics``, ``ExampleBundle`` and ``BundleReport``. ``SurveyDataset``
and ``SweepResult``, whose ``__len__`` and ``__iter__`` are their own, are
slotted classes (``units._Slotted``). Each keeps what it had as a frozen
dataclass: every constructor call, the repr text, equality within its class
and the hash of its field tuple, read-only fields, and every check with its
message, which no way of building an instance skips, unpickling and copying
included. Records order by their fields within their class only.
"""

import copy
import gc
import math
import operator
import pickle
import re
import sys
from pathlib import Path

import pytest

from wnocpower.blocks import MixerModel, OscModel, PaModel, _term
from wnocpower.chain import ChainConfig, PowerBreakdown, SweepResult, sweep
from wnocpower.exampledata import (BundleReport, CheckResult, ExampleBundle, default_bundle,
                                   fit_bundle)
from wnocpower.regression import ExpFitModel, FitDiagnostics
from wnocpower.survey import (BinnedMax, BlockKind, ParetoUpper, SurveyDataset, SurveyRecord,
                              load_survey_csv)
from wnocpower.units import FrequencyGhz, PowerDbm, PowerMilliwatt

FIT = ExpFitModel(0.5, -0.01, FrequencyGhz(1.0), FrequencyGhz(100.0), 0.9, 0.95, 5,
                  "pareto-upper")
OTHER_FIT = ExpFitModel(0.6, -0.01, FrequencyGhz(1.0), FrequencyGhz(100.0), 0.9, 0.95, 5,
                        "pareto-upper")
FIT_REPR = ("ExpFitModel(a=0.5, b=-0.01, valid_lo=FrequencyGhz(value=1.0), "
            "valid_hi=FrequencyGhz(value=100.0), r_squared_linear=0.9, r_squared_log=0.95, "
            "n_points=5, strategy='pareto-upper')")
ROW = (60.0, 1.0, 2.0, 0.5, 3.5, 1 / 3.5, 2 / 3.5, 0.5 / 3.5, "PA;MIXER")
LEVELS = (PowerDbm(-5.0), PowerDbm(-5.0), PowerDbm(0.0), PowerDbm(0.0))
PATHS = (Path("a/pa.csv"), Path("a/osc.csv"), Path("a/mix.csv"), Path("a/README.txt"))
CHECKS = (CheckResult("c", True), CheckResult("d", False, "why"))
PA_60 = (BlockKind.PA, FrequencyGhz(60.0), 12.5, "x [1]")
RECS = (SurveyRecord(*PA_60), SurveyRecord(BlockKind.PA, FrequencyGhz(90.0), 10.0, "y [2]"))
RECS_REPR = ("(SurveyRecord(block=<BlockKind.PA: 'PA'>, frequency=FrequencyGhz(value=60.0), "
             "metric=12.5, label='x [1]', technology_node=None, notes=None), "
             "SurveyRecord(block=<BlockKind.PA: 'PA'>, frequency=FrequencyGhz(value=90.0), "
             "metric=10.0, label='y [2]', technology_node=None, notes=None))")
ROWS = (ROW, (90.0, 0.0, 1.0, 1.0, 2.0, 0.0, 0.5, 0.5, ""))
LEVELS_REPR = ("(PowerDbm(value=-5.0), PowerDbm(value=-5.0), PowerDbm(value=0.0), "
               "PowerDbm(value=0.0))")
CFG_FIELDS = "frequency p_mixer_out p_if_in p_pa_out p_osc_rf"
CFG = (FrequencyGhz(60.0), PowerDbm(-10.0), PowerDbm(-6.0), PowerDbm(0.0), PowerDbm(1.0))
FIT_FIELDS = "a b valid_lo valid_hi r_squared_linear r_squared_log n_points strategy"


def _by_name(names, *values):
    return dict(zip(names.split(), values))


# Per class: constructor calls that a dataclass accepted, as (args, kwargs, fields); the
# repr of the first call's instance, as the dataclass wrote it; a value unequal to it.
CASES = {
    FrequencyGhz: ([((60.0,), {}, {"value": 60.0}), ((), {"value": 60.0}, {"value": 60.0})],
                   "FrequencyGhz(value=60.0)", FrequencyGhz(61.0)),
    PowerDbm: ([((-5.0,), {}, {"value": -5.0}), ((), {"value": -5.0}, {"value": -5.0})],
               "PowerDbm(value=-5.0)", PowerDbm(0.0)),
    PowerMilliwatt: ([((0.5,), {}, {"value": 0.5}), ((), {"value": 0.5}, {"value": 0.5})],
                     "PowerMilliwatt(value=0.5)", PowerMilliwatt(0.0)),
    ChainConfig: (
        [(CFG, {}, _by_name(CFG_FIELDS, *CFG)),
         ((), _by_name(CFG_FIELDS, *CFG), _by_name(CFG_FIELDS, *CFG)),
         (CFG[:2], {}, _by_name(CFG_FIELDS, *CFG[:2], PowerDbm(-5.0), None, PowerDbm(0.0))),
         (CFG[:1], {"p_mixer_out": CFG[1], "p_osc_rf": CFG[4]},
          _by_name(CFG_FIELDS, *CFG[:2], PowerDbm(-5.0), None, CFG[4]))],
        "ChainConfig(frequency=FrequencyGhz(value=60.0), p_mixer_out=PowerDbm(value=-10.0), "
        "p_if_in=PowerDbm(value=-6.0), p_pa_out=PowerDbm(value=0.0), "
        "p_osc_rf=PowerDbm(value=1.0))",
        ChainConfig(*CFG[:2])),
    ExpFitModel: ([(tuple(FIT), {}, _by_name(FIT_FIELDS, *FIT)),
                   ((), _by_name(FIT_FIELDS, *FIT), _by_name(FIT_FIELDS, *FIT))],
                  FIT_REPR, OTHER_FIT),
    SurveyDataset: (
        [((BlockKind.PA, RECS), {}, _by_name("kind records", BlockKind.PA, RECS)),
         ((), {"kind": BlockKind.PA, "records": RECS},
          _by_name("kind records", BlockKind.PA, RECS))],
        f"SurveyDataset(kind=<BlockKind.PA: 'PA'>, records={RECS_REPR})",
        SurveyDataset(BlockKind.PA, RECS[:1])),
    SweepResult: (
        [((ROWS, LEVELS), {}, _by_name("rows levels", ROWS, LEVELS)),
         ((ROWS,), {"levels": LEVELS}, _by_name("rows levels", ROWS, LEVELS)),
         ((), {"rows": ROWS, "levels": LEVELS}, _by_name("rows levels", ROWS, LEVELS))],
        "SweepResult(rows=((60.0, 1.0, 2.0, 0.5, 3.5, 0.2857142857142857, 0.5714285714285714, "
        "0.14285714285714285, 'PA;MIXER'), (90.0, 0.0, 1.0, 1.0, 2.0, 0.0, 0.5, 0.5, '')), "
        f"levels={LEVELS_REPR})",
        SweepResult(ROWS[:1], LEVELS)),
    PaModel: ([((FIT,), {}, {"pae_fit": FIT}), ((), {"pae_fit": FIT}, {"pae_fit": FIT})],
              f"PaModel(pae_fit={FIT_REPR})", PaModel(OTHER_FIT)),
    OscModel: ([((FIT,), {}, {"eff_fit": FIT}), ((), {"eff_fit": FIT}, {"eff_fit": FIT})],
               f"OscModel(eff_fit={FIT_REPR})", OscModel(OTHER_FIT)),
    MixerModel: ([((FIT,), {}, {"fom_fit": FIT}), ((), {"fom_fit": FIT}, {"fom_fit": FIT})],
                 f"MixerModel(fom_fit={FIT_REPR})", MixerModel(OTHER_FIT)),
    PowerBreakdown: (
        [((ROW, LEVELS), {}, _by_name("row levels", ROW, LEVELS)),
         ((ROW,), {"levels": LEVELS}, _by_name("row levels", ROW, LEVELS)),
         ((), {"row": ROW, "levels": LEVELS}, _by_name("row levels", ROW, LEVELS))],
        "PowerBreakdown(row=(60.0, 1.0, 2.0, 0.5, 3.5, 0.2857142857142857, 0.5714285714285714, "
        f"0.14285714285714285, 'PA;MIXER'), levels={LEVELS_REPR})",
        PowerBreakdown(ROW, LEVELS[:2])),
    SurveyRecord: (
        [(PA_60 + ("65nm", None), {},
          _by_name("block frequency metric label technology_node notes", *PA_60, "65nm", None)),
         (PA_60, {}, _by_name("block frequency metric label technology_node notes",
                             *PA_60, None, None)),
         (PA_60[:2], {"metric": 12.5, "label": "x [1]", "notes": "n"},
          _by_name("block frequency metric label technology_node notes", *PA_60, None, "n")),
         ((), {"block": BlockKind.PA, "frequency": FrequencyGhz(60.0), "metric": 12.5,
               "label": "x [1]", "technology_node": "65nm"},
          _by_name("block frequency metric label technology_node notes", *PA_60, "65nm", None))],
        "SurveyRecord(block=<BlockKind.PA: 'PA'>, frequency=FrequencyGhz(value=60.0), "
        "metric=12.5, label='x [1]', technology_node='65nm', notes=None)",
        SurveyRecord(*PA_60)),
    ParetoUpper: ([((), {}, {})], "ParetoUpper()", BinnedMax(1)),
    BinnedMax: ([((8,), {}, {"bins": 8}), ((), {"bins": 8}, {"bins": 8})],
                "BinnedMax(bins=8)", BinnedMax(9)),
    FitDiagnostics: (
        [(((0.1, -0.1), (1.0, 2.0)), {}, _by_name("residuals_log predicted", (0.1, -0.1),
                                                 (1.0, 2.0))),
         ((), {"residuals_log": (0.1,), "predicted": (1.0,)},
          _by_name("residuals_log predicted", (0.1,), (1.0,)))],
        "FitDiagnostics(residuals_log=(0.1, -0.1), predicted=(1.0, 2.0))",
        FitDiagnostics((0.1, -0.1), (1.0, 2.5))),
    ExampleBundle: (
        [(PATHS, {}, _by_name("pa_csv oscillator_csv mixer_csv readme", *PATHS)),
         ((), _by_name("pa_csv oscillator_csv mixer_csv readme", *PATHS),
          _by_name("pa_csv oscillator_csv mixer_csv readme", *PATHS))],
        "ExampleBundle(pa_csv=PosixPath('a/pa.csv'), oscillator_csv=PosixPath('a/osc.csv'), "
        "mixer_csv=PosixPath('a/mix.csv'), readme=PosixPath('a/README.txt'))",
        ExampleBundle(*PATHS[::-1])),
    BundleReport: (
        [((CHECKS,), {}, {"checks": CHECKS}), ((), {"checks": CHECKS}, {"checks": CHECKS}),
         ((), {}, {"checks": ()})],
        "BundleReport(checks=(CheckResult(name='c', passed=True, detail=''), "
        "CheckResult(name='d', passed=False, detail='why')))",
        BundleReport()),
}
RECORDS = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


def _first(cls):
    args, kwargs, _ = CASES[cls][0][0]
    return cls(*args, **kwargs)


def _names(cls):
    """The field names of ``cls`` in order."""
    return list(CASES[cls][0][0][2])


@RECORDS
def test_every_constructor_call_gives_its_by_name(cls):
    for args, kwargs, fields in CASES[cls][0]:
        obj = cls(*args, **kwargs)
        assert type(obj) is cls
        assert {name: getattr(obj, name) for name in fields} == fields


@RECORDS
def test_repr_is_the_dataclass_text(cls):
    assert repr(_first(cls)) == CASES[cls][1]


@RECORDS
def test_equal_records_compare_equal_and_hash_as_their_field_tuple(cls):
    a, b, other = _first(cls), _first(cls), CASES[cls][2]
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(getattr(a, name) for name in _names(cls)))
    assert a != other and not a == other
    for copied in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert type(copied) is cls and copied == a


def _frames(make, *args, **kwargs):
    """The code of each Python frame that ``make(*args, **kwargs)`` runs, in call order, apart
    from the unit types' ``__new__``."""
    units = {cls.__new__.__code__ for cls in (FrequencyGhz, PowerDbm, PowerMilliwatt)}
    frames = []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code not in units:
            frames.append(frame.f_code)

    gc.disable()  # a collection would run gc.callbacks (hypothesis registers one) in between
    sys.setprofile(profile)
    try:
        make(*args, **kwargs)
    finally:
        sys.setprofile(None)
        gc.enable()
    return frames


@pytest.mark.parametrize("make, args, kwargs, code", [
    (ChainConfig, (), _by_name(CFG_FIELDS, *CFG), ChainConfig.__new__.__code__),
    (ChainConfig, CFG, {}, ChainConfig.__new__.__code__),
    (ChainConfig, CFG[:2], {}, ChainConfig.__new__.__code__),
    (ExpFitModel, tuple(FIT), {}, ExpFitModel.__new__.__code__),
    (_term, (BlockKind.MIXER, FIT, 1.0), {}, _term.__code__),
], ids=["config-by-name", "config-positional", "config-defaults", "fit", "term"])
def test_each_record_on_the_recommend_path_is_built_in_one_python_frame(make, args, kwargs, code):
    # Call structure, not timing: a second frame (namedtuple's generated ``__new__``) costs
    # each construction a Python call, and a recommend call builds nine terms and a config.
    assert _frames(make, *args, **kwargs) == [code]


def test_block_models_are_pairwise_unequal():
    models = (PaModel(FIT), OscModel(FIT), MixerModel(FIT))
    for i, a in enumerate(models):
        for b in models[i + 1:]:
            assert a != b and not a == b and b != a and not b == a


@RECORDS
def test_fields_are_read_only(cls):
    obj = _first(cls)
    for name in [*_names(cls), "not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert obj == _first(cls)


def test_records_order_by_their_fields_within_their_class_only():
    assert PaModel(FIT) < PaModel(OTHER_FIT) and BinnedMax(3) <= BinnedMax(3) < BinnedMax(4)
    assert sorted([PowerDbm(0.0), PowerDbm(-5.0)]) == [PowerDbm(-5.0), PowerDbm(0.0)]
    assert ChainConfig(*CFG[:2]) > ChainConfig(FrequencyGhz(30.0), *CFG[1:])
    pairs = [(PaModel(FIT), OscModel(FIT)), (BinnedMax(3), ParetoUpper()),
             (PowerDbm(1.0), PowerMilliwatt(1.0)), (FrequencyGhz(1.0), PowerDbm(1.0))]
    for a, b in pairs:
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            for left, right in ((a, b), (b, a)):
                with pytest.raises(TypeError):
                    compare(left, right)


@RECORDS
def test_values_neither_concatenate_nor_repeat(cls):
    a, other = _first(cls), CASES[cls][2]
    for operate in (operator.add, operator.mul):
        for left, right in ((a, a), (a, other), (a, 2), (2, a), (a, (1.0,))):
            with pytest.raises(TypeError):
                operate(left, right)


def test_datasets_and_sweeps_survive_pickle_and_deepcopy():
    pa, osc, mix = fit_bundle()
    cfg = ChainConfig(FrequencyGhz(30.0), PowerDbm(-5.0), p_pa_out=PowerDbm(5.0))
    result = sweep(pa, osc, mix, cfg, [FrequencyGhz(f) for f in (30.0, 60.0, 140.0, 243.0)])
    for value in (load_survey_csv(default_bundle().pa_csv), result):
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(copied) is type(value) and copied == value
            assert hash(copied) == hash(value) and repr(copied) == repr(value)
            assert len(copied) == len(value) and list(copied) == list(value)


# Per checked class: a good instance, and (fields that fail, the dataclass's message).
CHECKED = {
    FrequencyGhz: (FrequencyGhz(60.0), [
        ({"value": 0.0}, "frequency in GHz must be finite and > 0 (got 0.0)"),
        ({"value": -3.0}, "frequency in GHz must be finite and > 0 (got -3.0)"),
        ({"value": math.inf}, "frequency in GHz must be finite and > 0 (got inf)"),
    ]),
    PowerDbm: (PowerDbm(-5.0), [
        ({"value": math.nan}, "power in dBm must be finite (got nan)"),
        ({"value": -math.inf}, "power in dBm must be finite (got -inf)"),
    ]),
    PowerMilliwatt: (PowerMilliwatt(0.5), [
        ({"value": -0.1}, "power in mW must be finite and >= 0 (got -0.1)"),
        ({"value": math.inf}, "power in mW must be finite and >= 0 (got inf)"),
    ]),
    ChainConfig: (ChainConfig(*CFG), [
        ({"p_pa_out": PowerDbm(-10.0)}, "PA output (-10.0 dBm) must exceed mixer output "
                                        "(-10.0 dBm); omit p_pa_out for a PA-less chain"),
        ({"p_mixer_out": PowerDbm(3.0)}, "PA output (0.0 dBm) must exceed mixer output "
                                         "(3.0 dBm); omit p_pa_out for a PA-less chain"),
    ]),
    ExpFitModel: (FIT, [
        ({"a": 0.0}, "amplitude must be finite and > 0 (got 0.0)"),
        ({"a": math.inf}, "amplitude must be finite and > 0 (got inf)"),
        ({"b": math.nan}, "rate must be finite (got nan)"),
        ({"valid_lo": FrequencyGhz(100.0)}, "validity range inverted: [100.0, 100.0] GHz"),
        ({"n_points": 1}, "a fit requires >= 2 points (got 1)"),
        ({"r_squared_linear": math.nan}, "R-squared must be finite and <= 1 (got nan)"),
        ({"r_squared_log": 1.5}, "R-squared must be finite and <= 1 (got 1.5)"),
    ]),
    SurveyDataset: (SurveyDataset(BlockKind.PA, RECS), [
        ({"kind": BlockKind.OSCILLATOR},
         "heterogeneous block kinds: dataset is OSC, record 'x [1]' is PA"),
        ({"records": RECS[:1] * 2},
         "duplicate record (frequency, metric, label)=(60.0, 12.5, 'x [1]')"),
    ]),
    SweepResult: (SweepResult(ROWS, LEVELS), [
        ({"rows": ROWS[::-1]}, "sweep frequencies must be strictly increasing"),
        ({"rows": ROWS[:1] * 2}, "sweep frequencies must be strictly increasing"),
    ]),
    SurveyRecord: (SurveyRecord(*PA_60), [
        ({"metric": 150.0}, "PA metric = 150.0 % is outside (0, 100]"),
        ({"metric": 0.0}, "PA metric = 0.0 % is outside (0, 100]"),
        ({"block": BlockKind.OSCILLATOR, "metric": 1.5},
         "OSC metric = 1.5 (ratio) is outside (0, 1]"),
        ({"block": BlockKind.MIXER, "metric": float("inf")},
         "MIXER metric = inf 1/mW must be > 0 and finite"),
        ({"metric": float("nan"), "label": ""}, "PA metric = nan % is outside (0, 100]"),
        ({"label": ""}, "record label must be non-empty"),
    ]),
    BinnedMax: (BinnedMax(8), [
        ({"bins": 0}, "bin count must be an int in [1, 2**53] (got 0)"),
        ({"bins": 2**53 + 1}, "bin count must be an int in [1, 2**53] (got 9007199254740993)"),
        ({"bins": 8.0}, "bin count must be an int in [1, 2**53] (got 8.0)"),
        ({"bins": True}, "bin count must be an int in [1, 2**53] (got True)"),
    ]),
    FitDiagnostics: (FitDiagnostics((0.1,), (1.0,)), [
        ({"predicted": ()}, "diagnostics arrays must have equal length"),
        ({"residuals_log": (0.1, 0.2)}, "diagnostics arrays must have equal length"),
    ]),
}
CHECKED_CASES = pytest.mark.parametrize("good, change, message", [
    pytest.param(good, change, message, id=f"{cls.__name__}-{i}")
    for cls, (good, bad) in CHECKED.items() for i, (change, message) in enumerate(bad)])


def _bad_by_name(good, change):
    """The fields of ``good`` in order, with ``change`` applied."""
    return {**{name: getattr(good, name) for name in _names(type(good))}, **change}


@CHECKED_CASES
def test_checks_keep_their_messages(good, change, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        type(good)(**_bad_by_name(good, change))


def _forged(good, change):
    """``good`` with ``change`` applied, built past every check, as a pickle may describe it."""
    values = _bad_by_name(good, change)
    if isinstance(good, tuple):
        return tuple.__new__(type(good), values.values())
    forged = object.__new__(type(good))
    for name, value in values.items():
        object.__setattr__(forged, name, value)
    return forged


@CHECKED_CASES
def test_no_construction_path_skips_the_checks(good, change, message):
    builds = [lambda: pickle.loads(pickle.dumps(_forged(good, change))),
              lambda: copy.deepcopy(_forged(good, change))]
    if isinstance(good, tuple):
        builds += [lambda: type(good)._make(_bad_by_name(good, change).values()),
                   lambda: good._replace(**change)]
    if hasattr(good, "__replace__"):  # copy.replace, from Python 3.13
        builds.append(lambda: good.__replace__(**change))
    for build in builds:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()



@pytest.mark.parametrize("build, field, sequence", [
    (lambda seq: SurveyDataset(BlockKind.PA, seq), "records", RECS),
    (lambda seq: SweepResult(seq, LEVELS), "rows", ROWS),
    (lambda seq: SweepResult(ROWS, seq), "levels", LEVELS),
], ids=["SurveyDataset-records", "SweepResult-rows", "SweepResult-levels"])
@pytest.mark.parametrize("convert", [iter, list])
def test_a_sequence_field_keeps_the_tuple_that_was_checked(build, field, sequence, convert):
    # an iterator would be used up by the check; a list would stay mutable and unhashable
    built, expected = build(convert(sequence)), build(sequence)
    assert type(getattr(built, field)) is tuple and getattr(built, field) == sequence
    assert built == expected and hash(built) == hash(expected)
    assert len(built) == len(expected) and list(built) == list(expected)

"""The contract of the library's immutable value records.

Ten value types are records rather than dataclasses: the three block models,
``PowerBreakdown``, ``SurveyRecord``, the two frontier strategies,
``FitDiagnostics``, ``ExampleBundle`` and ``BundleReport``. Each keeps what it
had as a frozen dataclass: every constructor call, the repr text, equality
within its class and the hash of its field tuple, read-only fields, and every
check with its message, which no way of building an instance skips.
"""

import pickle
import re
from pathlib import Path

import pytest

from wnocpower.blocks import MixerModel, OscModel, PaModel
from wnocpower.chain import PowerBreakdown
from wnocpower.exampledata import BundleReport, CheckResult, ExampleBundle
from wnocpower.regression import ExpFitModel, FitDiagnostics
from wnocpower.survey import BinnedMax, BlockKind, ParetoUpper, SurveyRecord
from wnocpower.units import FrequencyGhz, PowerDbm

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


def _by_name(names, *values):
    return dict(zip(names.split(), values))


# Per class: constructor calls that a dataclass accepted, as (args, kwargs, fields); the
# repr of the first call's instance, as the dataclass wrote it; a record unequal to it.
CASES = {
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
        "0.14285714285714285, 'PA;MIXER'), levels=(PowerDbm(value=-5.0), PowerDbm(value=-5.0), "
        "PowerDbm(value=0.0), PowerDbm(value=0.0)))",
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
    assert pickle.loads(pickle.dumps(a)) == a


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


# Per checked class: a good instance, and (fields that fail, the dataclass's message).
CHECKED = {
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


@CHECKED_CASES
def test_no_construction_path_skips_the_checks(good, change, message):
    builds = [lambda: type(good)._make(_bad_by_name(good, change).values()),
              lambda: good._replace(**change)]
    if hasattr(good, "__replace__"):  # copy.replace, from Python 3.13
        builds.append(lambda: good.__replace__(**change))
    for build in builds:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

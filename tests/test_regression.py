import json
import math
import random

import pytest

from wnocpower.regression import (
    ExpFitModel,
    FitDiagnostics,
    ZeroVarianceError,
    evaluate_fit,
    fit_exponential,
    load_model,
    model_from_dict,
    model_to_dict,
    r_squared,
    save_model,
)
from wnocpower.survey import BlockKind
from wnocpower.units import FrequencyGhz


def pts(pairs):
    return [(FrequencyGhz(f), m) for f, m in pairs]


def curve_points(a, b, freqs, noise=None):
    out = []
    for f in freqs:
        y = a * math.exp(b * f)
        if noise is not None:
            y *= 1.0 + noise()
        out.append((FrequencyGhz(f), y))
    return out


# --- fitting ---------------------------------------------------------------


def test_exact_fit_recovery():
    model, diag = fit_exponential(curve_points(2.0, 0.01, [10.0, 50.0, 100.0]))
    assert model.a == pytest.approx(2.0, rel=1e-12)
    assert model.b == pytest.approx(0.01, rel=1e-12)
    assert model.r_squared_log == pytest.approx(1.0, abs=1e-12)
    assert model.n_points == 3
    assert (model.valid_lo.value, model.valid_hi.value) == (10.0, 100.0)
    assert len(diag.residuals_log) == len(diag.predicted) == 3


def test_two_points_fit_exactly():
    model, _ = fit_exponential(pts([(10.0, 4.0), (100.0, 1.0)]))
    assert model.r_squared_log == pytest.approx(1.0, abs=1e-9)
    value, _ = evaluate_fit(model, FrequencyGhz(10.0))
    assert value == pytest.approx(4.0, rel=1e-9)


def test_noisy_recovery_within_two_percent():
    rng = random.Random(42)
    points = curve_points(5.0, -0.008, [float(f) for f in range(10, 210, 10)],
                          noise=lambda: rng.uniform(-0.01, 0.01))
    model, _ = fit_exponential(points)
    assert model.a == pytest.approx(5.0, rel=0.02)
    assert model.b == pytest.approx(-0.008, rel=0.02)


def test_fit_requires_two_points():
    with pytest.raises(ValueError, match="2 distinct frequencies"):
        fit_exponential(pts([(10.0, 1.0)]))
    with pytest.raises(ValueError, match="2 distinct frequencies"):
        fit_exponential([])


def test_fit_requires_two_distinct_frequencies():
    with pytest.raises(ValueError, match="2 distinct frequencies"):
        fit_exponential(pts([(10.0, 1.0), (10.0, 2.0)]))


def test_fit_rejects_non_positive_metric():
    with pytest.raises(ValueError, match="> 0"):
        fit_exponential(pts([(10.0, 1.0), (20.0, 0.0)]))


def test_scaling_data_scales_amplitude_only():
    base = curve_points(3.0, -0.004, [5.0, 40.0, 90.0, 160.0])
    m0, _ = fit_exponential(base)
    for c in (0.01, 0.5, 7.0, 250.0):
        mc, _ = fit_exponential([(f, c * y) for f, y in base])
        assert mc.a == pytest.approx(c * m0.a, rel=1e-9)
        assert mc.b == pytest.approx(m0.b, rel=1e-9, abs=1e-15)


def test_shifting_frequency_axis():
    rng = random.Random(3)
    base = curve_points(2.0, -0.01, [10.0, 30.0, 80.0, 120.0],
                        noise=lambda: rng.uniform(-0.05, 0.05))
    m0, _ = fit_exponential(base)
    delta = 25.0
    m1, _ = fit_exponential([(FrequencyGhz(f.value + delta), y) for f, y in base])
    assert m1.b == pytest.approx(m0.b, rel=1e-9)
    assert m1.a == pytest.approx(m0.a * math.exp(-m0.b * delta), rel=1e-9)


def test_refit_of_predictions_is_fixed_point():
    rng = random.Random(11)
    noisy = curve_points(4.0, -0.006, [5.0, 25.0, 60.0, 110.0, 200.0],
                         noise=lambda: rng.uniform(-0.2, 0.2))
    m0, diag = fit_exponential(noisy)
    refit, _ = fit_exponential([(f, p) for (f, _), p in zip(noisy, diag.predicted)])
    assert refit.a == pytest.approx(m0.a, rel=1e-9)
    assert refit.b == pytest.approx(m0.b, rel=1e-9)


def test_r_squared_log_matches_log_domain_recomputation():
    rng = random.Random(5)
    points = curve_points(1.5, -0.01, [10.0, 40.0, 70.0, 130.0],
                          noise=lambda: rng.uniform(-0.3, 0.3))
    model, diag = fit_exponential(points)
    obs = [math.log(y) for _, y in points]
    pred = [math.log(p) for p in diag.predicted]
    assert model.r_squared_log == pytest.approx(r_squared(obs, pred), abs=1e-12)


def test_constant_metric_fit_degenerates_cleanly():
    # all-equal metrics make R-squared formally undefined; the fit is exact
    model, diag = fit_exponential(pts([(10.0, 1.0), (50.0, 1.0), (90.0, 1.0)]))
    assert model.b == 0.0
    assert model.a == 1.0
    assert model.r_squared_log == 1.0
    assert model.r_squared_linear == 1.0
    assert all(r == 0.0 for r in diag.residuals_log)


# --- r_squared -------------------------------------------------------------


def test_r_squared_perfect():
    assert r_squared([1.0, 5.0, -2.0], [1.0, 5.0, -2.0]) == 1.0


def test_r_squared_mean_predictor_is_zero():
    obs = [1.0, 2.0, 3.0, 6.0]
    mean = sum(obs) / len(obs)
    assert r_squared(obs, [mean] * len(obs)) == pytest.approx(0.0, abs=1e-15)


def test_r_squared_hand_case():
    # SS_res = 1, SS_tot = 2, frozen from a hand computation
    assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(0.5, rel=1e-15)


def test_r_squared_can_be_negative():
    assert r_squared([1.0, 2.0, 3.0], [30.0, -4.0, 9.0]) < 0.0


def test_r_squared_zero_variance_is_distinct_condition():
    with pytest.raises(ZeroVarianceError):
        r_squared([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def test_r_squared_rejects_length_mismatch():
    with pytest.raises(ValueError):
        r_squared([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        r_squared([], [])


def test_r_squared_past_the_float_range_is_a_value_error():
    # (1e200 - mean)^2 overflows a float; an inf or nan input makes a sum inf or nan
    for observed, predicted in (([1e200, 1.0], [1.0, 1.0]), ([1.0, 2.0], [1e200, 1.0]),
                                ([math.inf, 1.0], [1.0, 1.0]), ([math.nan, 1.0], [1.0, 1.0]),
                                ([1.0, 2.0], [math.inf, 1.0])):
        with pytest.raises(ValueError, match="^squared deviations leave the float range"):
            r_squared(observed, predicted)


# --- evaluation ------------------------------------------------------------


def model_ab(a, b, lo=10.0, hi=100.0):
    return ExpFitModel(a, b, FrequencyGhz(lo), FrequencyGhz(hi), 1.0, 1.0, 2, "test")


def test_evaluate_interior_point():
    value, extrapolated = evaluate_fit(model_ab(2.0, 0.01), FrequencyGhz(50.0))
    # 2 * e^0.5, frozen from a high-precision evaluation
    assert value == pytest.approx(3.2974425414002564, rel=1e-12)
    assert not extrapolated


def test_evaluate_boundaries_are_in_range():
    for f in (10.0, 100.0):
        _, extrapolated = evaluate_fit(model_ab(2.0, 0.01), FrequencyGhz(f))
        assert not extrapolated
    for f in (9.999999, 100.000001):
        _, extrapolated = evaluate_fit(model_ab(2.0, 0.01), FrequencyGhz(f))
        assert extrapolated


def test_evaluate_is_strictly_monotone_in_frequency():
    grid = [1.0 + 3.0 * i for i in range(80)]
    for b in (-0.02, 0.013):
        values = [evaluate_fit(model_ab(2.0, b), FrequencyGhz(f))[0] for f in grid]
        deltas = [y2 - y1 for y1, y2 in zip(values, values[1:])]
        assert all((d > 0) == (b > 0) for d in deltas)


def test_model_invariants():
    with pytest.raises(ValueError):
        model_ab(0.0, 0.01)
    with pytest.raises(ValueError):
        model_ab(-1.0, 0.01)
    with pytest.raises(ValueError):
        model_ab(1.0, 0.01, lo=100.0, hi=10.0)
    with pytest.raises(ValueError):
        ExpFitModel(1.0, 0.0, FrequencyGhz(1.0), FrequencyGhz(2.0), 1.0, 1.0, 1, "t")
    with pytest.raises(ValueError):
        ExpFitModel(1.0, 0.0, FrequencyGhz(1.0), FrequencyGhz(2.0), 1.1, 1.0, 2, "t")


# --- persistence -----------------------------------------------------------


def test_model_json_round_trip(tmp_path):
    model, _ = fit_exponential(curve_points(2.0, -0.01, [10.0, 50.0, 100.0]),
                               strategy="pareto-upper")
    path = tmp_path / "m.json"
    save_model(path, BlockKind.MIXER, model, "digest123")
    kind, loaded, digest = load_model(path)
    assert kind is BlockKind.MIXER
    assert loaded == model
    assert digest == "digest123"


def test_model_dict_round_trip():
    model = model_ab(3.0, -0.002)
    kind, back, digest = model_from_dict(model_to_dict(BlockKind.PA, model, "d"))
    assert kind is BlockKind.PA and back == model and digest == "d"


def test_load_model_rejects_missing_field(tmp_path):
    model = model_ab(3.0, -0.002)
    doc = model_to_dict(BlockKind.PA, model, "d")
    del doc["valid_hi_ghz"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="valid_hi_ghz"):
        load_model(path)


def test_load_model_rejects_non_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    with pytest.raises(ValueError, match="JSON"):
        load_model(path)


def _edit_doc(**fields):
    """A model-file edit: the document with ``fields`` replaced, or removed where None."""
    def edit(raw: bytes) -> bytes:
        doc = {**json.loads(raw), **fields}
        return json.dumps({k: v for k, v in doc.items() if v is not None}).encode()
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda raw: b"\xff" + raw, "'utf-8' codec can't decode byte 0xff in position 0"),
    (lambda raw: b"[]", "model document must be a JSON object"),
    (lambda raw: raw[:-3], "not valid JSON (Expecting"),
    (_edit_doc(a=None), "model document is missing field 'a'"),
    (_edit_doc(a=-1.0), "amplitude must be finite and > 0 (got -1.0)"),
], ids=["non-utf8", "list", "truncated", "missing-a", "negative-a"])
def test_load_model_errors_name_the_file_first(tmp_path, edit, message):
    path = tmp_path / "m.json"
    save_model(path, BlockKind.PA, model_ab(3.0, -0.002), "d")
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError) as info:
        load_model(path)
    assert str(info.value).startswith(f"{path}: {message}")


def test_load_model_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "m.json"
    save_model(path, BlockKind.PA, model_ab(3.0, -0.002), "d")
    expected = load_model(path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load_model(path) == expected


def test_fit_diagnostics_need_arrays_of_equal_length():
    with pytest.raises(ValueError, match="^diagnostics arrays must have equal length$"):
        FitDiagnostics(residuals_log=(0.0, 0.1), predicted=(1.0,))


def test_model_from_dict_names_field_of_wrong_type():
    doc = model_to_dict(BlockKind.PA, model_ab(3.0, -0.002), "d")
    doc["a"] = None
    with pytest.raises(ValueError, match="'a'"):
        model_from_dict(doc)


def test_load_model_rejects_non_finite_r_squared(tmp_path):
    doc = model_to_dict(BlockKind.PA, model_ab(3.0, -0.002), "d")
    doc["r2_log"] = math.nan
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))  # written as the JSON literal NaN
    with pytest.raises(ValueError, match="R-squared"):
        load_model(path)


def test_model_from_dict_rejects_bool_for_number():
    doc = model_to_dict(BlockKind.PA, model_ab(3.0, -0.002), "d")
    doc["a"] = True
    with pytest.raises(ValueError, match="'a'"):
        model_from_dict(doc)


def test_model_from_dict_rejects_non_integral_point_count():
    doc = model_to_dict(BlockKind.PA, model_ab(3.0, -0.002), "d")
    doc["n_points"] = 2.9
    with pytest.raises(ValueError, match="'n_points'"):
        model_from_dict(doc)


@pytest.mark.parametrize("name, value, problem", [
    ("a", True, "expected a number, got True"),
    ("strategy", None, "expected a string, got None"),
    ("block", 1, "expected a string, got 1"),
    ("block", "XX", "unknown block kind 'XX' (expected PA, OSC or MIXER)"),
    ("valid_lo_ghz", "1", "expected a number, got '1'"),
    ("valid_lo_ghz", 0, "frequency in GHz must be finite and > 0 (got 0.0)"),
    ("n_points", 2.9, "expected an integer, got 2.9"),
])
def test_model_from_dict_message_names_the_field_and_its_problem(name, value, problem):
    doc = model_to_dict(BlockKind.PA, model_ab(3.0, -0.002), "d")
    doc[name] = value
    with pytest.raises(ValueError) as err:
        model_from_dict(doc)
    assert str(err.value) == f"model document field {name!r} is invalid: {problem}"


@pytest.mark.parametrize("name", ["strategy", "source_dataset_digest"])
def test_model_from_dict_rejects_non_string_text_field(name):
    doc = model_to_dict(BlockKind.PA, model_ab(3.0, -0.002), "d")
    doc[name] = None
    with pytest.raises(ValueError, match=repr(name)):
        model_from_dict(doc)


def test_evaluating_past_the_float_range_gives_inf():
    model = ExpFitModel(1.0, 5.0, FrequencyGhz(1.0), FrequencyGhz(10.0), 1.0, 1.0, 2, "t")
    assert evaluate_fit(model, FrequencyGhz(200.0)) == (math.inf, True)


def test_fit_of_adjacent_frequencies_is_a_value_error():
    # a rate of ~1e14 1/GHz puts ln(a) near 1e16: the fit leaves the float range
    f2 = math.nextafter(100.0, math.inf)
    with pytest.raises(ValueError, match="leaves the float range"):
        fit_exponential(pts([(100.0, 50.0), (f2, 10.0)]))


def test_fit_survey_is_load_kind_check_frontier_and_fit(tmp_path):
    from wnocpower.regression import fit_survey
    from wnocpower.survey import BinnedMax, best_in_class, load_survey_csv

    path = tmp_path / "s.csv"
    path.write_text("block,frequency_ghz,metric,label\n"
                    "PA,10,40,a\nPA,10,30,b\nPA,60,20,c\nPA,200,5,d\nPA,150,4,e\n")
    strategy = BinnedMax(bins=2)
    data, model = fit_survey(path, BlockKind.PA, strategy)
    assert data == load_survey_csv(path)
    assert model == fit_exponential(best_in_class(data, strategy).points(), "binned-max:2")[0]
    with pytest.raises(ValueError, match=r"^.*s\.csv holds PA records, expected OSC$"):
        fit_survey(path, BlockKind.OSCILLATOR, strategy)

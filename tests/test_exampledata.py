import re
import shutil
from pathlib import Path

import pytest

import wnocpower.exampledata as exampledata
from wnocpower.blocks import osc_dc_power
from wnocpower.cli import EXIT_DATA, main
from wnocpower.exampledata import (
    EXAMPLES_DIR,
    EXPECTED_SPANS_GHZ,
    CheckResult,
    ExampleBundle,
    default_bundle,
    fit_bundle,
    scenario_config,
    validate_bundle,
)
from wnocpower.survey import BlockKind
from wnocpower.units import FrequencyGhz, PowerDbm


def test_shipped_bundle_passes_all_checks():
    report = validate_bundle()
    assert report.ok, [f"{c.name}: {c.detail}" for c in report.failures]
    assert len(report.checks) >= 15


def test_readme_library_example_fits_the_bundle_pa(bundle_models, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    monkeypatch.chdir(EXAMPLES_DIR)
    namespace: dict = {}
    exec(code, namespace)
    assert namespace["pa"] == bundle_models[0]


def test_bundle_fit_spans_match_documentation(bundle_models):
    pa, osc, mix = bundle_models
    assert (pa.pae_fit.valid_lo.value, pa.pae_fit.valid_hi.value) == EXPECTED_SPANS_GHZ[BlockKind.PA]
    assert (osc.eff_fit.valid_lo.value, osc.eff_fit.valid_hi.value) == EXPECTED_SPANS_GHZ[BlockKind.OSCILLATOR]
    assert (mix.fom_fit.valid_lo.value, mix.fom_fit.valid_hi.value) == EXPECTED_SPANS_GHZ[BlockKind.MIXER]


def test_bundle_trends_decay_with_frequency(bundle_models):
    pa, osc, mix = bundle_models
    assert pa.pae_fit.b < 0.0
    assert osc.eff_fit.b < 0.0
    assert mix.fom_fit.b < 0.0


def test_bundle_oscillator_stays_under_ten_milliwatts_below_200ghz(bundle_models):
    _, osc, _ = bundle_models
    for f in (50.0, 100.0, 150.0, 199.0):
        power, extrapolated = osc_dc_power(osc, FrequencyGhz(f), PowerDbm(0.0))
        assert power.value < 10.0
        assert not extrapolated


def test_scenario_config_shape():
    c = scenario_config(60.0, 5.0)
    assert c.frequency.value == 60.0
    assert c.p_if_in.value == -5.0
    assert c.p_mixer_out.value == -5.0
    assert c.p_pa_out.value == 5.0
    assert c.p_osc_rf.value == 0.0
    assert scenario_config(60.0, None).p_pa_out is None


FILES_AND_FIT = [
    ("file present: pa_survey.csv", True, ""),
    ("file present: oscillator_survey.csv", True, ""),
    ("file present: mixer_survey.csv", True, ""),
    ("file present: README.txt", True, ""),
    ("surveys parse and fit", True, ""),
]


def triples(report):
    return [(c.name, c.passed, c.detail) for c in report.checks]


def _copy_bundle(tmp_path):
    src = default_bundle()
    for p in (src.pa_csv, src.oscillator_csv, src.mixer_csv, src.readme):
        shutil.copy(p, tmp_path / p.name)
    return ExampleBundle(
        pa_csv=tmp_path / "pa_survey.csv",
        oscillator_csv=tmp_path / "oscillator_survey.csv",
        mixer_csv=tmp_path / "mixer_survey.csv",
        readme=tmp_path / "README.txt",
    )


def test_validate_names_missing_file(tmp_path):
    bundle = _copy_bundle(tmp_path)
    bundle.mixer_csv.unlink()
    report = validate_bundle(bundle)
    assert not report.ok
    assert any("mixer_survey.csv" in c.name for c in report.failures)
    assert triples(report) == [
        ("file present: pa_survey.csv", True, ""),
        ("file present: oscillator_survey.csv", True, ""),
        ("file present: mixer_survey.csv", False, ""),
        ("file present: README.txt", True, ""),
    ]


def test_validate_fits_each_survey_once_per_report(tmp_path, monkeypatch):
    calls = []
    fit = exampledata.fit_survey
    monkeypatch.setattr(exampledata, "fit_survey", lambda *a: calls.append(a[0]) or fit(*a))
    assert validate_bundle().ok
    assert calls == list(default_bundle())[:3]
    calls.clear()
    bundle = _copy_bundle(tmp_path)
    bundle.readme.unlink()
    assert not validate_bundle(bundle).ok
    assert calls == []


def test_validate_names_span_violation(tmp_path):
    bundle = _copy_bundle(tmp_path)
    lines = bundle.pa_csv.read_text().splitlines()
    kept = [ln for ln in lines if not ln.startswith("PA,0.9,")]
    bundle.pa_csv.write_text("\n".join(kept) + "\n")
    report = validate_bundle(bundle)
    assert not report.ok
    assert any("PA validity span" in c.name for c in report.failures)
    assert triples(report) == [
        *FILES_AND_FIT,
        ("PA validity span is [0.9, 309.3] GHz", False, "got [12.0, 309.3] GHz"),
        ("PA trend degrades with frequency (b < 0)", True, "b = -0.0125759 1/GHz"),
        ("OSC validity span is [12.7, 310.0] GHz", True, "got [12.7, 310.0] GHz"),
        ("OSC trend degrades with frequency (b < 0)", True, "b = -0.00708083 1/GHz"),
        ("MIXER validity span is [0.9, 140.0] GHz", True, "got [0.9, 140.0] GHz"),
        ("MIXER trend degrades with frequency (b < 0)", True, "b = -0.013221 1/GHz"),
        ("oscillator draws < 10 mW at 150 GHz for 0 dBm RF out", True, "6.641 mW"),
        ("low-power scenario: oscillator share > 55% at 30 GHz", True, "61.6 %"),
        ("low-power scenario: oscillator share > 55% at 60 GHz", True, "57.6 %"),
        ("high-power scenario: PA share > 65% at 30 GHz", True, "67.3 %"),
        ("high-power scenario: PA share > 65% at 60 GHz", True, "70.5 %"),
        ("high-power scenario: PA share > 65% at 140 GHz", True, "77.8 %"),
        ("high-power scenario: PA share > 65% at 243 GHz", True, "84.5 %"),
    ]


def test_validate_names_broken_parse(tmp_path):
    bundle = _copy_bundle(tmp_path)
    bundle.oscillator_csv.write_text("block,frequency_ghz,metric,label\nOSC,-1,0.5,x\n")
    report = validate_bundle(bundle)
    assert not report.ok
    assert any("parse and fit" in c.name for c in report.failures)
    assert triples(report) == [
        *FILES_AND_FIT[:4],
        ("surveys parse and fit", False,
         "row 2: frequency in GHz must be finite and > 0 (got -1.0)"),
    ]


def test_validate_reports_a_check_that_raises_and_runs_the_rest(tmp_path, capsys):
    # This oscillator survey fits, but its efficiency exceeds 1 below ~100 GHz.
    bundle = _copy_bundle(tmp_path)
    bundle.oscillator_csv.write_text("block,frequency_ghz,metric,label\nOSC,12.7,1.0,a\n"
                                     "OSC,100,0.999,b\nOSC,150,0.998,c\nOSC,160,0.997,d\n"
                                     "OSC,310,0.02,e\n")
    report = validate_bundle(bundle)
    assert len(report.checks) == 18
    at_30 = "OSC fit at 30.0 GHz = 2.230603102214205 (ratio) is outside (0, 1]"
    at_60 = "OSC fit at 60.0 GHz = 1.4829473577510066 (ratio) is outside (0, 1]"
    assert list(report.failures) == [
        ("low-power scenario: oscillator share > 55% at 30 GHz", False, at_30),
        ("low-power scenario: oscillator share > 55% at 60 GHz", False, at_60),
        ("high-power scenario: PA share > 65% at 30 GHz", False, at_30),
        ("high-power scenario: PA share > 65% at 60 GHz", False, at_60),
    ]
    assert report.checks[-1] == ("high-power scenario: PA share > 65% at 243 GHz", True, "88.3 %")
    assert main(["validate-examples", "--data-dir", str(tmp_path)]) == EXIT_DATA
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 18
    assert f"[FAIL] low-power scenario: oscillator share > 55% at 30 GHz ({at_30})\n" in out
    assert err == "4 of 18 checks failed\n"


def test_check_result_is_an_immutable_record():
    check = CheckResult("surveys parse and fit", True)
    assert (check.name, check.passed, check.detail) == ("surveys parse and fit", True, "")
    assert repr(check) == "CheckResult(name='surveys parse and fit', passed=True, detail='')"
    with pytest.raises(AttributeError):
        check.passed = False

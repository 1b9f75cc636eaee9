import re
import shutil
from pathlib import Path

import pytest

from wnocpower.blocks import osc_dc_power
from wnocpower.exampledata import (
    EXAMPLES_DIR,
    EXPECTED_SPANS_GHZ,
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


def test_validate_names_span_violation(tmp_path):
    bundle = _copy_bundle(tmp_path)
    lines = bundle.pa_csv.read_text().splitlines()
    kept = [ln for ln in lines if not ln.startswith("PA,0.9,")]
    bundle.pa_csv.write_text("\n".join(kept) + "\n")
    report = validate_bundle(bundle)
    assert not report.ok
    assert any("PA validity span" in c.name for c in report.failures)


def test_validate_names_broken_parse(tmp_path):
    bundle = _copy_bundle(tmp_path)
    bundle.oscillator_csv.write_text("block,frequency_ghz,metric,label\nOSC,-1,0.5,x\n")
    report = validate_bundle(bundle)
    assert not report.ok
    assert any("parse and fit" in c.name for c in report.failures)

"""Shipped example surveys and their calibration checks.

The package bundles one illustrative survey per block kind plus a README
stating what fitting them must yield. ``validate_bundle`` checks the files,
fit spans, trend signs, oscillator draw and scenario shares; the tests pin
the frontier counts, ``a``, ``b`` and the oscillator's draw below 200 GHz.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, partial
from pathlib import Path
from typing import Iterator

from .blocks import MixerModel, OscModel, PaModel, osc_dc_power
from .chain import ChainConfig, chain_breakdown
from .regression import fit_survey
from .survey import BlockKind, ParetoUpper
from .units import FrequencyGhz, PowerDbm, _record

EXAMPLES_DIR = Path(__file__).parent / "data" / "examples"

# Documented expectations for the shipped files (see the bundle README).
EXPECTED_SPANS_GHZ = {
    BlockKind.PA: (0.9, 309.3),
    BlockKind.OSCILLATOR: (12.7, 310.0),
    BlockKind.MIXER: (0.9, 140.0),
}
KEY_FREQUENCIES_GHZ = (30.0, 60.0, 140.0, 243.0)
SCENARIO_P_IF_DBM = -5.0
SCENARIO_P_MIXER_OUT_DBM = -5.0
SCENARIO_P_OSC_RF_DBM = 0.0
LOW_POWER_PA_OUT_DBM = 0.0
HIGH_POWER_PA_OUT_DBM = 5.0
OSC_DOMINANCE_THRESHOLD = 0.55
PA_DOMINANCE_THRESHOLD = 0.65


class ExampleBundle(_record("ExampleBundle", "pa_csv oscillator_csv mixer_csv readme")):
    """Paths of the three survey CSVs and their README."""

    __slots__ = ()


def default_bundle() -> ExampleBundle:
    return bundle_at(EXAMPLES_DIR)


def bundle_at(root: Path) -> ExampleBundle:
    """The bundle's files in directory ``root``."""
    return ExampleBundle(
        pa_csv=root / "pa_survey.csv",
        oscillator_csv=root / "oscillator_survey.csv",
        mixer_csv=root / "mixer_survey.csv",
        readme=root / "README.txt",
    )


def fit_bundle(bundle: ExampleBundle | None = None) -> tuple[PaModel, OscModel, MixerModel]:
    """Parse all three surveys of ``bundle`` (default: the packaged one) and fit each
    to its Pareto-upper frontier, as the bundle README documents."""
    bundle = bundle or default_bundle()
    roles = ((PaModel, bundle.pa_csv), (OscModel, bundle.oscillator_csv),
             (MixerModel, bundle.mixer_csv))
    return tuple(model(fit_survey(path, model.kind, ParetoUpper())[1]) for model, path in roles)


def scenario_config(frequency_ghz: float, pa_out_dbm: float | None) -> ChainConfig:
    """The README's scenario operating point at one frequency."""
    return ChainConfig(
        frequency=FrequencyGhz(frequency_ghz),
        p_mixer_out=PowerDbm(SCENARIO_P_MIXER_OUT_DBM),
        p_if_in=PowerDbm(SCENARIO_P_IF_DBM),
        p_pa_out=None if pa_out_dbm is None else PowerDbm(pa_out_dbm),
        p_osc_rf=PowerDbm(SCENARIO_P_OSC_RF_DBM),
    )


CheckResult = namedtuple("CheckResult", "name passed detail", defaults=("",))


class BundleReport(_record("BundleReport", "checks", defaults=((),))):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


# The README's scenarios: (name, PA output in dBm, frequencies in GHz, dominant share, threshold).
_SCENARIOS = (("low-power scenario: oscillator", LOW_POWER_PA_OUT_DBM, (30.0, 60.0), "osc_fraction",
               OSC_DOMINANCE_THRESHOLD),
              ("high-power scenario: PA", HIGH_POWER_PA_OUT_DBM, KEY_FREQUENCIES_GHZ, "pa_fraction",
               PA_DOMINANCE_THRESHOLD))


def validate_bundle(bundle: ExampleBundle | None = None) -> BundleReport:
    """Check the bundle files against the README's expectations, one named check each.

    A missing file ends the report after the file checks, and a survey that
    does not parse or fit ends it after that check. Past them nothing stops
    at the first failure: a check that raises ``ValueError`` fails with the
    message as its detail, so a broken bundle reports everything wrong with
    it at once.
    """
    checks: list[CheckResult] = []
    for name, evaluate in _checks(bundle or default_bundle(), checks):
        try:
            passed, detail = evaluate()
        except ValueError as exc:
            passed, detail = False, str(exc)
        checks.append(CheckResult(name, passed, detail))
    return BundleReport(tuple(checks))


def _checks(bundle: ExampleBundle, done: list[CheckResult]) -> Iterator[tuple]:
    """(name, evaluate) of each check in report order; ``evaluate()`` gives (passed, detail).

    The caller evaluates each, and appends its result to ``done``, before it
    asks for the next, so a closure reads the loop variables as yielded."""
    for path in (bundle.pa_csv, bundle.oscillator_csv, bundle.mixer_csv, bundle.readme):
        yield f"file present: {path.name}", lambda: (path.is_file(), "")
    if not all(c.passed for c in done):
        return
    models = cache(partial(fit_bundle, bundle))  # fitted by the parse check, reused after it
    yield "surveys parse and fit", lambda: (bool(models()), "")
    if not done[-1].passed:
        return
    pa, osc, mix = models()
    for kind, fit in ((pa.kind, pa.pae_fit), (osc.kind, osc.eff_fit), (mix.kind, mix.fom_fit)):
        lo, hi = EXPECTED_SPANS_GHZ[kind]
        span = (fit.valid_lo.value, fit.valid_hi.value)
        yield (f"{kind.token} validity span is [{lo}, {hi}] GHz",
               lambda: (span == (lo, hi), f"got [{span[0]}, {span[1]}] GHz"))
        yield (f"{kind.token} trend degrades with frequency (b < 0)",
               lambda: (fit.b < 0.0, f"b = {fit.b:.6g} 1/GHz"))
    yield ("oscillator draws < 10 mW at 150 GHz for 0 dBm RF out",
           lambda: ((mw := osc_dc_power(osc, FrequencyGhz(150.0), PowerDbm(0.0))[0].value) < 10.0,
                    f"{mw:.3f} mW"))
    for label, pa_out, frequencies, dominant, threshold in _SCENARIOS:
        for f in frequencies:
            bd = partial(chain_breakdown, pa, osc, mix, scenario_config(f, pa_out))
            yield (f"{label} share > {threshold:.0%} at {f:g} GHz",
                   lambda: ((frac := getattr(bd(), dominant)) > threshold, f"{100.0 * frac:.1f} %"))

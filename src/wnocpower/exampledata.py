"""Shipped example surveys and their calibration checks.

The package bundles one illustrative survey per block kind plus a README
stating what fitting them must yield. ``validate_bundle`` re-derives
every documented expectation from the files, so a modified or corrupted
bundle fails loudly instead of silently shifting downstream numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .blocks import MixerModel, OscModel, PaModel, osc_dc_power
from .chain import ChainConfig, chain_breakdown
from .regression import fit_survey
from .survey import BlockKind, ParetoUpper
from .units import FrequencyGhz, PowerDbm

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


@dataclass(frozen=True)
class ExampleBundle:
    """Paths of the three survey CSVs and their README."""

    pa_csv: Path
    oscillator_csv: Path
    mixer_csv: Path
    readme: Path


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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class BundleReport:
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def validate_bundle(bundle: ExampleBundle | None = None) -> BundleReport:
    """Re-derive every README expectation from the bundle files.

    Each expectation becomes one named check in the report; nothing stops
    at the first failure, so a broken bundle reports everything wrong
    with it at once.
    """
    bundle = bundle or default_bundle()
    checks: list[CheckResult] = []

    for path in (bundle.pa_csv, bundle.oscillator_csv, bundle.mixer_csv, bundle.readme):
        checks.append(CheckResult(f"file present: {path.name}", path.is_file()))
    if not all(c.passed for c in checks):
        return BundleReport(tuple(checks))

    try:
        pa, osc, mix = fit_bundle(bundle)
    except ValueError as exc:
        checks.append(CheckResult("surveys parse and fit", False, str(exc)))
        return BundleReport(tuple(checks))
    checks.append(CheckResult("surveys parse and fit", True))

    for kind, fit in ((pa.kind, pa.pae_fit), (osc.kind, osc.eff_fit), (mix.kind, mix.fom_fit)):
        lo, hi = EXPECTED_SPANS_GHZ[kind]
        span = (fit.valid_lo.value, fit.valid_hi.value)
        checks.append(CheckResult(
            f"{kind.token} validity span is [{lo}, {hi}] GHz",
            span == (lo, hi),
            f"got [{span[0]}, {span[1]}] GHz",
        ))
        checks.append(CheckResult(
            f"{kind.token} trend degrades with frequency (b < 0)",
            fit.b < 0.0,
            f"b = {fit.b:.6g} 1/GHz",
        ))

    p_dc, _ = osc_dc_power(osc, FrequencyGhz(150.0), PowerDbm(0.0))
    checks.append(CheckResult(
        "oscillator draws < 10 mW at 150 GHz for 0 dBm RF out",
        p_dc.value < 10.0,
        f"{p_dc.value:.3f} mW",
    ))

    for f in (30.0, 60.0):
        bd = chain_breakdown(pa, osc, mix, scenario_config(f, LOW_POWER_PA_OUT_DBM))
        checks.append(CheckResult(
            f"low-power scenario: oscillator share > 55% at {f:g} GHz",
            bd.osc_fraction > OSC_DOMINANCE_THRESHOLD,
            f"{100.0 * bd.osc_fraction:.1f} %",
        ))
    for f in KEY_FREQUENCIES_GHZ:
        bd = chain_breakdown(pa, osc, mix, scenario_config(f, HIGH_POWER_PA_OUT_DBM))
        checks.append(CheckResult(
            f"high-power scenario: PA share > 65% at {f:g} GHz",
            bd.pa_fraction > PA_DOMINANCE_THRESHOLD,
            f"{100.0 * bd.pa_fraction:.1f} %",
        ))

    return BundleReport(tuple(checks))

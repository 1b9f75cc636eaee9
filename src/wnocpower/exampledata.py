"""Shipped example surveys and their calibration checks.

The package bundles one illustrative survey per block kind plus a README
stating what fitting them must yield. ``validate_bundle`` checks the files,
fit spans, trend signs, oscillator draw and scenario shares; the tests pin
the frontier counts, ``a``, ``b`` and the oscillator's draw below 200 GHz.
``_checks`` yields each check's result in report order. A missing file ends
the report after the file checks, and a survey that does not parse or fit
ends it after that check. Past them a draw or scenario check that raises
``ValueError`` fails with the message as its detail, so nothing else stops.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from pathlib import Path

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
    return tuple(model(fit_survey(path, model.kind, ParetoUpper())[1])
                 for model, path in zip((PaModel, OscModel, MixerModel), bundle[:3]))


def scenario_config(frequency_ghz: float, pa_out_dbm: float | None) -> ChainConfig:
    """The README's scenario operating point at one frequency."""
    return ChainConfig(
        frequency=FrequencyGhz(frequency_ghz),
        p_mixer_out=PowerDbm(-5.0),
        p_if_in=PowerDbm(-5.0),
        p_pa_out=None if pa_out_dbm is None else PowerDbm(pa_out_dbm),
        p_osc_rf=PowerDbm(0.0),
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
_SCENARIOS = (("low-power scenario: oscillator", 0.0, (30.0, 60.0), "osc_fraction", 0.55),
              ("high-power scenario: PA", 5.0, (30.0, 60.0, 140.0, 243.0), "pa_fraction", 0.65))


def validate_bundle(bundle: ExampleBundle | None = None) -> BundleReport:
    """Check the bundle files against the README's expectations, one named check each."""
    return BundleReport(tuple(_checks(bundle or default_bundle())))


def _check(name: str, evaluate) -> CheckResult:
    """The check ``name`` from ``evaluate()``'s (passed, detail); a ValueError fails it."""
    try:
        return CheckResult(name, *evaluate())
    except ValueError as exc:
        return CheckResult(name, False, str(exc))


def _checks(bundle: ExampleBundle) -> Iterator[CheckResult]:
    files = [CheckResult(f"file present: {path.name}", path.is_file()) for path in bundle]
    yield from files
    if not all(c.passed for c in files):
        return
    try:
        models = fit_bundle(bundle)
    except ValueError as exc:
        yield CheckResult("surveys parse and fit", False, str(exc))
        return
    yield CheckResult("surveys parse and fit", True)
    for model in models:
        (fit,) = model
        lo, hi = EXPECTED_SPANS_GHZ[model.kind]
        span = (fit.valid_lo.value, fit.valid_hi.value)
        yield CheckResult(f"{model.kind.token} validity span is [{lo}, {hi}] GHz",
                          span == (lo, hi), f"got [{span[0]}, {span[1]}] GHz")
        yield CheckResult(f"{model.kind.token} trend degrades with frequency (b < 0)",
                          fit.b < 0.0, f"b = {fit.b:.6g} 1/GHz")
    pa, osc, mix = models
    yield _check("oscillator draws < 10 mW at 150 GHz for 0 dBm RF out", lambda: (
        (mw := osc_dc_power(osc, FrequencyGhz(150.0), PowerDbm(0.0))[0].value) < 10.0,
        f"{mw:.3f} mW"))
    for label, pa_out, frequencies, dominant, threshold in _SCENARIOS:
        for f in frequencies:
            cfg = scenario_config(f, pa_out)
            yield _check(f"{label} share > {threshold:.0%} at {f:g} GHz", lambda: (
                (frac := getattr(chain_breakdown(pa, osc, mix, cfg), dominant)) > threshold,
                f"{100.0 * frac:.1f} %"))

"""TX front-end chain composition and design-space exploration.

The chain is mixer (IF to RF upconversion, driven by the oscillator LO)
followed by an optional PA; the mixer output level and the PA input
level are therefore one and the same parameter. Total DC power is the
plain sum of the three block draws: the oscillator's RF output is what
it delivers to the LO port, and the surveyed mixer figures already
include their LO-drive and bias power, so nothing is double counted.

On top of single-point breakdowns the module provides frequency sweeps,
a grid-search operating-frequency recommendation, and a per-frequency
dominant-block report.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from .blocks import (MixerModel, OscModel, PaModel, _dc_mw, _mixer_numerator, _pa_numerator,
                     mixer_dc_power, osc_dc_power, pa_dc_power)
from .survey import BlockKind
from .units import FrequencyGhz, PowerDbm, PowerMilliwatt, dbm_to_mw


class NoAdmissiblePointError(ValueError):
    """Every grid point needs extrapolation and extrapolation was not allowed."""


@dataclass(frozen=True)
class ChainConfig:
    """One operating point of the TX chain.

    ``p_mixer_out`` doubles as the PA input. ``p_pa_out`` absent means
    the chain has no PA (a zero-gain stage is pointless) and the chain
    output equals the mixer output.
    """

    frequency: FrequencyGhz
    p_mixer_out: PowerDbm
    p_if_in: PowerDbm = PowerDbm(-5.0)
    p_pa_out: PowerDbm | None = None
    p_osc_rf: PowerDbm = PowerDbm(0.0)

    def __post_init__(self) -> None:
        if self.p_pa_out is not None and self.p_pa_out.value <= self.p_mixer_out.value:
            raise ValueError(
                f"PA output ({self.p_pa_out.value} dBm) must exceed mixer output "
                f"({self.p_mixer_out.value} dBm); omit p_pa_out for a PA-less chain"
            )


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-block DC power of one chain evaluation, with shares and flags."""

    pa_mw: PowerMilliwatt
    osc_mw: PowerMilliwatt
    mixer_mw: PowerMilliwatt
    total_mw: PowerMilliwatt
    pa_fraction: float
    osc_fraction: float
    mixer_fraction: float
    pa_extrapolated: bool
    osc_extrapolated: bool
    mixer_extrapolated: bool
    config: ChainConfig

    @property
    def per_block(self) -> tuple[tuple[BlockKind, PowerMilliwatt, float, bool], ...]:
        """(kind, DC power, share, extrapolated) of each block: PA, oscillator, mixer."""
        return (
            (BlockKind.PA, self.pa_mw, self.pa_fraction, self.pa_extrapolated),
            (BlockKind.OSCILLATOR, self.osc_mw, self.osc_fraction, self.osc_extrapolated),
            (BlockKind.MIXER, self.mixer_mw, self.mixer_fraction, self.mixer_extrapolated),
        )

    @property
    def fractions(self) -> tuple[float, float, float]:
        return (self.pa_fraction, self.osc_fraction, self.mixer_fraction)

    @property
    def extrapolated_blocks(self) -> tuple[BlockKind, ...]:
        return tuple(kind for kind, _, _, flagged in self.per_block if flagged)

    @property
    def any_extrapolated(self) -> bool:
        return self.pa_extrapolated or self.osc_extrapolated or self.mixer_extrapolated


@dataclass(frozen=True)
class SweepResult:
    """Breakdowns over a strictly increasing frequency grid."""

    entries: tuple[tuple[FrequencyGhz, PowerBreakdown], ...]

    def __post_init__(self) -> None:
        freqs = [f.value for f, _ in self.entries]
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ValueError("sweep frequencies must be strictly increasing")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[FrequencyGhz, PowerBreakdown]]:
        return iter(self.entries)


def frequency_grid(lo: float, hi: float, n: int) -> Iterator[float]:
    """``n`` uniformly spaced frequencies from lo to hi GHz, both ends exact."""
    if lo >= hi:
        raise ValueError(f"inverted frequency range [{lo}, {hi}] GHz")
    if n < 2:
        raise ValueError(f"frequency grid needs >= 2 points (got {n})")
    step = (hi - lo) / (n - 1)
    return (hi if i == n - 1 else lo + i * step for i in range(n))


def _kernel(pa: PaModel | None, osc: OscModel, mix: MixerModel, cfg: ChainConfig):
    """f -> (mW, extrapolated) of the PA, oscillator and mixer at ``cfg``'s levels;
    the numerators of P_DC = numerator / FoM(f) are computed once, here."""
    num_osc = dbm_to_mw(cfg.p_osc_rf).value
    num_mix = _mixer_numerator(cfg.p_if_in, cfg.p_mixer_out)
    num_pa = None
    if cfg.p_pa_out is not None:
        if pa is None:
            raise ValueError("config requests a PA stage but no PA model was provided")
        num_pa = _pa_numerator(cfg.p_mixer_out, cfg.p_pa_out)

    def at(f: float):
        # Mixer, oscillator, PA: the order in which unphysical fits are reported.
        mixer = _dc_mw(mix.kind, mix.fom_fit, f, num_mix)
        osc_part = _dc_mw(osc.kind, osc.eff_fit, f, num_osc)
        pa_part = (0.0, False) if num_pa is None else _dc_mw(pa.kind, pa.pae_fit, f, num_pa, 0.01)
        return pa_part, osc_part, mixer

    return at


def _breakdown(parts, cfg: ChainConfig) -> PowerBreakdown:
    (pa_mw, pa_ex), (osc_mw, osc_ex), (mixer_mw, mixer_ex) = parts
    total = pa_mw.value + osc_mw.value + mixer_mw.value
    return PowerBreakdown(
        pa_mw=pa_mw,
        osc_mw=osc_mw,
        mixer_mw=mixer_mw,
        total_mw=PowerMilliwatt(total),
        pa_fraction=pa_mw.value / total,
        osc_fraction=osc_mw.value / total,
        mixer_fraction=mixer_mw.value / total,
        pa_extrapolated=pa_ex,
        osc_extrapolated=osc_ex,
        mixer_extrapolated=mixer_ex,
        config=cfg,
    )


def chain_breakdown(
    pa: PaModel | None,
    osc: OscModel,
    mix: MixerModel,
    cfg: ChainConfig,
) -> PowerBreakdown:
    """Evaluate the full chain at one operating point.

    The PA stage is present exactly when ``cfg.p_pa_out`` is set; in that
    case a PA model is required. Block evaluation errors propagate. A
    single point goes through the public block evaluators; sweeps and
    recommendations use the plain-float kernel over the same arithmetic.
    """
    mixer = mixer_dc_power(mix, cfg.frequency, cfg.p_if_in, cfg.p_mixer_out)
    osc_part = osc_dc_power(osc, cfg.frequency, cfg.p_osc_rf)
    pa_part = (PowerMilliwatt(0.0), False)
    if cfg.p_pa_out is not None:
        if pa is None:
            raise ValueError("config requests a PA stage but no PA model was provided")
        pa_part = pa_dc_power(pa, cfg.frequency, cfg.p_mixer_out, cfg.p_pa_out)
    return _breakdown((pa_part, osc_part, mixer), cfg)


def sweep(
    pa: PaModel | None,
    osc: OscModel,
    mix: MixerModel,
    base_cfg: ChainConfig,
    frequencies: Sequence[FrequencyGhz],
) -> SweepResult:
    """Evaluate the chain on a strictly increasing frequency grid.

    All other config parameters stay fixed. A block failure is reported
    with the offending frequency.
    """
    if len(frequencies) == 0:
        raise ValueError("sweep needs at least one frequency")
    at = _kernel(pa, osc, mix, base_cfg)
    entries = []
    for f in frequencies:
        try:
            parts = [(PowerMilliwatt(mw), flagged) for mw, flagged in at(f.value)]
            entries.append((f, _breakdown(parts, replace(base_cfg, frequency=f))))
        except ValueError as exc:
            raise ValueError(f"sweep failed at {f.value} GHz: {exc}") from None
    return SweepResult(tuple(entries))


def recommend_frequency(
    pa: PaModel | None,
    osc: OscModel,
    mix: MixerModel,
    base_cfg: ChainConfig,
    lo: FrequencyGhz,
    hi: FrequencyGhz,
    n_grid: int = 512,
    allow_extrapolation: bool = False,
) -> tuple[FrequencyGhz, PowerBreakdown]:
    """Grid-search the frequency with minimum total DC power in [lo, hi].

    Evaluates ``n_grid`` uniformly spaced points (endpoints included).
    Points where any block must extrapolate are skipped, before their
    figures of merit are checked, unless ``allow_extrapolation`` is set;
    ties prefer the lower frequency. Grid search is used instead of a
    closed form because user-supplied fits need not be monotone.
    """
    grid = frequency_grid(lo.value, hi.value, n_grid)
    at = _kernel(pa, osc, mix, base_cfg)
    fits = [mix.fom_fit, osc.eff_fit] + ([] if base_cfg.p_pa_out is None else [pa.pae_fit])
    span_lo = max(fit.valid_lo.value for fit in fits)
    span_hi = min(fit.valid_hi.value for fit in fits)
    admissible = (f for f in grid if allow_extrapolation or span_lo <= f <= span_hi)
    # min keeps the first of equal totals: the lowest such frequency.
    best = min(admissible, key=lambda f: sum(mw for mw, _ in at(f)), default=None)
    if best is None:
        raise NoAdmissiblePointError(
            f"no grid point in [{lo.value}, {hi.value}] GHz is inside all model "
            "validity ranges; pass allow_extrapolation to search anyway"
        )
    f_best = FrequencyGhz(best)
    return f_best, chain_breakdown(pa, osc, mix, replace(base_cfg, frequency=f_best))


def dominance_report(result: SweepResult) -> list[tuple[FrequencyGhz, BlockKind]]:
    """The block with the largest power share at each sweep frequency.

    Ties resolve in the order PA, oscillator, mixer.
    """
    if len(result) == 0:
        raise ValueError("dominance report needs a non-empty sweep")
    return [(f, max(bd.per_block, key=lambda block: block[2])[0]) for f, bd in result]


# --- serialization --------------------------------------------------------

SWEEP_CSV_COLUMNS = (
    "frequency_ghz",
    "pa_mw",
    "osc_mw",
    "mixer_mw",
    "total_mw",
    "pa_frac",
    "osc_frac",
    "mixer_frac",
    "extrapolated_blocks",
)


def _columns(bd: PowerBreakdown) -> tuple[list[float], list[str]]:
    """The values of the CSV columns pa_mw to mixer_frac, and the extrapolated blocks."""
    blocks = bd.per_block
    values = ([mw.value for _, mw, _, _ in blocks] + [bd.total_mw.value]
              + [share for _, _, share, _ in blocks])
    return values, [kind.token for kind, _, _, flagged in blocks if flagged]


def breakdown_csv_row(bd: PowerBreakdown) -> list[str]:
    """One plot-ready CSV row; floats in shortest round-trip form."""
    values, extrapolated = _columns(bd)
    return [repr(bd.config.frequency.value), *map(repr, values), ";".join(extrapolated)]


def breakdowns_to_csv(breakdowns: Sequence[PowerBreakdown]) -> str:
    """Plot-ready CSV for any row sequence (a sweep, or stacked sweeps)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SWEEP_CSV_COLUMNS)
    for bd in breakdowns:
        writer.writerow(breakdown_csv_row(bd))
    return out.getvalue()


def breakdown_to_dict(bd: PowerBreakdown) -> dict:
    """JSON-ready document mirroring the CSV columns plus the config echo."""
    cfg = bd.config
    values, extrapolated = _columns(bd)
    return {
        "config": {
            "frequency_ghz": cfg.frequency.value,
            "p_if_in_dbm": cfg.p_if_in.value,
            "p_mixer_out_dbm": cfg.p_mixer_out.value,
            "p_pa_out_dbm": None if cfg.p_pa_out is None else cfg.p_pa_out.value,
            "p_osc_rf_dbm": cfg.p_osc_rf.value,
        },
        **dict(zip(SWEEP_CSV_COLUMNS[1:-1], values)),
        "extrapolated_blocks": extrapolated,
    }

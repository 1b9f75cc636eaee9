"""DC-power semantics of the three TX front-end blocks.

Each block wraps a fitted exponential trend of its figure of merit and
turns a requested operating point into DC power in milliwatts:

* PA:     P_DC = (P_out_mW - P_in_mW) / (0.01 * PAE(f)), PAE in percent.
* OSC:    P_DC = P_RF_mW / eff(f), eff the DC-to-RF efficiency ratio.
* MIXER:  P_DC = CG_linear / FoM(f), where CG_linear = P_RF_out / P_IF_in
          in linear milliwatt terms and FoM is conversion gain per mW of
          DC power (so passive mixers with conversion loss still draw
          the LO-drive and bias power embedded in the surveyed figures).

A figure of merit evaluated outside its physical range (the survey
module's table) is a hard error, never a clamp: it means the trend was
pushed somewhere it cannot describe, and hiding that would defeat the
extrapolation flagging. Every evaluator returns the flag of the
underlying fit alongside the power.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import ClassVar

from .regression import ExpFitModel, _evaluate
from .survey import BlockKind, _check_metric
from .units import FrequencyGhz, PowerDbm, PowerMilliwatt, dbm_to_mw


@dataclass(frozen=True)
class PaModel:
    """Power amplifier: power added efficiency in percent versus frequency."""

    pae_fit: ExpFitModel
    kind: ClassVar[BlockKind] = BlockKind.PA


@dataclass(frozen=True)
class OscModel:
    """Fundamental oscillator: DC-to-RF efficiency ratio versus frequency."""

    eff_fit: ExpFitModel
    kind: ClassVar[BlockKind] = BlockKind.OSCILLATOR


@dataclass(frozen=True)
class MixerModel:
    """Passive mixer: linear conversion gain per mW of DC power (1/mW)."""

    fom_fit: ExpFitModel
    kind: ClassVar[BlockKind] = BlockKind.MIXER


def _dc_mw(kind: BlockKind, fit: ExpFitModel, f: float, numerator_mw: float,
           scale: float = 1.0) -> tuple[float, bool]:
    """numerator_mw / (scale * FoM(f)) in mW and the fit's extrapolation flag at f GHz.

    Raises if FoM(f) is unphysical. The PA's scale is 0.01: PAE is in percent.
    A power past the float range, or over a subnormal PAE whose 1 % is 0, is inf."""
    fom, extrapolated = _evaluate(fit, f)
    _check_metric(kind, fom, f)
    denominator = scale * fom
    return (numerator_mw / denominator if denominator else inf), extrapolated


def _pa_numerator(p_in: PowerDbm, p_out: PowerDbm) -> float:
    """Added RF power in mW; the output must exceed the input."""
    if p_out.value <= p_in.value:
        raise ValueError(
            f"PA output must exceed input (got {p_out.value} dBm out, "
            f"{p_in.value} dBm in); omit the PA stage for zero gain"
        )
    return dbm_to_mw(p_out).value - dbm_to_mw(p_in).value


def _mixer_numerator(p_if_in: PowerDbm, p_rf_out: PowerDbm) -> float:
    """Linear conversion gain P_RF_out / P_IF_in (a loss when below one)."""
    return dbm_to_mw(p_rf_out).value / dbm_to_mw(p_if_in).value


def pa_dc_power(
    m: PaModel, f: FrequencyGhz, p_in: PowerDbm, p_out: PowerDbm
) -> tuple[PowerMilliwatt, bool]:
    """DC power of a PA delivering p_out from p_in at frequency f.

    Requires p_out > p_in; a zero-gain stage is modeled as PA absence by
    the chain composition, not evaluated here. PAE(f) must land in
    (0, 100] percent (100 is the ideal-efficiency floor where
    P_DC = P_out - P_in exactly).
    """
    mw, extrapolated = _dc_mw(m.kind, m.pae_fit, f.value, _pa_numerator(p_in, p_out), 0.01)
    return PowerMilliwatt(mw), extrapolated


def osc_dc_power(
    m: OscModel, f: FrequencyGhz, p_rf: PowerDbm
) -> tuple[PowerMilliwatt, bool]:
    """DC power of an oscillator delivering p_rf at frequency f.

    The DC-to-RF efficiency must land in (0, 1], so the result is never
    below the delivered RF power.
    """
    mw, extrapolated = _dc_mw(m.kind, m.eff_fit, f.value, dbm_to_mw(p_rf).value)
    return PowerMilliwatt(mw), extrapolated


def mixer_dc_power(
    m: MixerModel, f: FrequencyGhz, p_if_in: PowerDbm, p_rf_out: PowerDbm
) -> tuple[PowerMilliwatt, bool]:
    """DC power of a mixer producing p_rf_out from p_if_in at frequency f.

    The required linear conversion gain P_RF_out / P_IF_in (a loss when
    below one) divided by the gain-per-mW figure of merit gives the DC
    draw.
    """
    mw, extrapolated = _dc_mw(m.kind, m.fom_fit, f.value, _mixer_numerator(p_if_in, p_rf_out))
    return PowerMilliwatt(mw), extrapolated


def conversion_gain_db(p_if_in: PowerDbm, p_rf_out: PowerDbm) -> float:
    """Mixer conversion gain in dB; negative values are conversion loss."""
    return p_rf_out.value - p_if_in.value

"""DC-power semantics of the three TX front-end blocks.

Each block wraps a fitted exponential trend of its figure of merit and
turns a requested operating point into DC power in milliwatts:

* PA:     P_DC = (P_out_mW - P_in_mW) / (0.01 * PAE(f)), PAE in percent.
* OSC:    P_DC = P_RF_mW / eff(f), eff the DC-to-RF efficiency ratio.
* MIXER:  P_DC = CG_linear / FoM(f), where CG_linear = P_RF_out / P_IF_in
          in linear milliwatt terms and FoM is conversion gain per mW of
          DC power (so passive mixers with conversion loss still draw
          the LO-drive and bias power embedded in the surveyed figures).

A figure of merit evaluated outside its physical range (the survey module's
table) is a hard error, never a clamp: it means the trend was pushed
somewhere it cannot describe, and hiding that would defeat the extrapolation
flagging. A block at fixed levels is one term, ``_Term``: ``_block_dc``
evaluates it at a point and ``_dcs`` over a column of frequencies, each with
the fit's flag, and ``_slope`` the slope of a total at admissible points
only. The column loop (dense-sweep benchmark) and the per-probe loop
(recommend-scan) stay apart: each measured slower via a per-point helper.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import partial
from math import exp, inf, log

from .regression import ExpFitModel, _fom
from .survey import _METRIC_RANGE, BlockKind, _check_metric
from .units import FrequencyGhz, PowerDbm, PowerMilliwatt, _dbm_mw, _record


class PaModel(_record("PaModel", "pae_fit")):
    """Power amplifier: ``pae_fit``, the power added efficiency in percent versus frequency."""

    __slots__ = ()
    kind = BlockKind.PA


class OscModel(_record("OscModel", "eff_fit")):
    """Fundamental oscillator: ``eff_fit``, the DC-to-RF efficiency ratio versus frequency."""

    __slots__ = ()
    kind = BlockKind.OSCILLATOR


class MixerModel(_record("MixerModel", "fom_fit")):
    """Passive mixer: ``fom_fit``, the linear conversion gain per mW of DC power (1/mW)."""

    __slots__ = ()
    kind = BlockKind.MIXER


# One block at fixed levels: P_DC(f) = num / (scale * FoM(f)) mW, with FoM(f) = a * exp(b * f)
# the fitted trend ``fit`` in its survey unit, scale that unit as a plain number (0.01 for
# PAE in %), and 0 < FoM <= fom_hi, FoM finite, its physical range.
_Term = namedtuple("_Term", "a b num scale fom_hi kind fit")


def _term(kind: BlockKind, fit: ExpFitModel, num: float) -> _Term:
    """The term of a block with FoM trend ``fit`` and numerator ``num`` mW; its scale and
    physical range are the block's ``survey._METRIC_RANGE`` row."""
    fom_hi, _unit, scale, _problem = _METRIC_RANGE[kind]
    return tuple.__new__(_Term, (fit.a, fit.b, num, scale, fom_hi, kind, fit))


def _block_dc(term: _Term, f: FrequencyGhz) -> tuple[PowerMilliwatt, bool]:
    """The term's DC power at f and whether f is outside the fitted span. Raises at an unphysical
    FoM, one past the float range included, and at an inf power (a subnormal PAE's 1 % is 0)."""
    a, b, num, scale, fom_hi, kind, fit = term
    fom = _fom(a, b, ghz := f.value)
    if not 0.0 < fom < inf or fom > fom_hi:
        _check_metric(kind, fom, ghz)
    denominator = scale * fom
    if not denominator or (mw := num / denominator) == inf:
        raise ValueError(f"{kind.token} draw at {ghz} GHz: "
                         "power in mW must be finite (got inf)")
    return PowerMilliwatt(mw), ghz < fit.valid_lo.value or ghz > fit.valid_hi.value


def _dcs(term: _Term, freqs: Sequence[float]) -> tuple[list, list]:
    """``_block_dc`` over a column of plain frequencies, with the term's fields read once:
    the powers, inf where ``_block_dc`` raises, and the extrapolation flags."""
    a, b, num, scale, fom_hi, _kind, fit = term
    valid_lo, valid_hi = fit.valid_lo.value, fit.valid_hi.value
    powers = []
    for f in freqs:
        try:
            fom = a * exp(b * f)
        except OverflowError:
            fom = inf
        denominator = scale * fom if 0.0 < fom < inf and fom <= fom_hi else 0.0
        powers.append(num / denominator if denominator else inf)
    return powers, [f < valid_lo or f > valid_hi for f in freqs]


def _slope(terms: Sequence[tuple], f: float) -> tuple[float, float]:
    """-T'(f) = sum(b_i * P_i(f)) for T the total of ``terms``, each a ``_Term``'s (a, b, num,
    scale), and its derivative sum(-b_i**2 * P_i(f)). Every FoM must be physical at f, as on
    ``_admissible``'s interval. Each P_i is ``_block_dc``'s, and the first sum adds the same
    list in the same order, so that it is > 0 exactly where T falls."""
    parts, curvature = [], []
    for a, b, num, scale in terms:
        denominator = scale * (a * exp(b * f))
        parts.append(part := b * (num / denominator if denominator else inf))
        curvature.append(-b * part)
    return sum(parts), sum(curvature)


def _physical(a: float, b: float, fom_hi: float, f: float) -> bool:
    """Whether the FoM a * exp(b * f) is in (0, fom_hi], the range check of ``_block_dc``."""
    return 0.0 < (fom := _fom(a, b, f)) < inf and fom <= fom_hi


def _admissible(term: _Term, lo: float, hi: float, allow_extrapolation: bool) -> tuple:
    """[lo, hi] narrowed to the term's validity span, unless ``allow_extrapolation``, and to
    where its figure of merit is physical; (inf, -inf) if that is nowhere.

    FoM(f) = a * exp(b * f) is monotone, so that is one interval, and the range check of the
    evaluator settles each end of it to the float, at no point twice. An end that is not
    physical is cut back from one that is or, if neither is, from the closed-form f where
    the FoM is half its top, which then lies inside."""
    a, b, _num, _scale, fom_hi, _kind, fit = term  # b == 0 passes both ends or neither
    if not allow_extrapolation:
        lo, hi = max(lo, fit.valid_lo.value), min(hi, fit.valid_hi.value)
    if lo > hi:
        return inf, -inf
    ok_lo = _physical(a, b, fom_hi, lo)
    ok_hi = ok_lo if lo == hi else _physical(a, b, fom_hi, hi)
    if ok_lo and ok_hi:
        return lo, hi
    ok = partial(_physical, a, b, fom_hi)
    if ok_lo or ok_hi:
        good = lo if ok_lo else hi
    elif not (b and lo < (good := log(fom_hi / 2 / a) / b) < hi and ok(good)):
        return inf, -inf
    return (lo if ok_lo else _edge(ok, good, lo)), (hi if ok_hi else _edge(ok, good, hi))


def _edge(ok, good: float, bad: float) -> float:
    """The last point from ``good`` toward ``bad`` where ``ok`` holds, by bisection: ``ok(good)``
    holds, ``ok(bad)`` does not, ``ok`` holds on an interval, and each probe is the midpoint of
    the last two, strictly between them."""
    while (mid := good + (bad - good) / 2) not in (good, bad):
        good, bad = (mid, bad) if ok(mid) else (good, mid)
    return good


def _pa_numerator(p_in: PowerDbm, p_out: PowerDbm) -> float:
    """Added RF power in mW; the output must exceed the input."""
    if p_out.value <= p_in.value:
        raise ValueError(
            f"PA output must exceed input (got {p_out.value} dBm out, "
            f"{p_in.value} dBm in); omit the PA stage for zero gain"
        )
    return _dbm_mw(p_out.value) - _dbm_mw(p_in.value)


def _mixer_numerator(p_if_in: PowerDbm, p_rf_out: PowerDbm) -> float:
    """Linear conversion gain P_RF_out / P_IF_in (a loss when below one)."""
    return _dbm_mw(p_rf_out.value) / _dbm_mw(p_if_in.value)


def pa_dc_power(
    m: PaModel, f: FrequencyGhz, p_in: PowerDbm, p_out: PowerDbm
) -> tuple[PowerMilliwatt, bool]:
    """DC power of a PA delivering p_out from p_in at frequency f.

    Requires p_out > p_in; a zero-gain stage is modeled as PA absence by
    the chain composition, not evaluated here. PAE(f) must land in
    (0, 100] percent (100 is the ideal-efficiency floor where
    P_DC = P_out - P_in exactly).
    """
    return _block_dc(_term(m.kind, m.pae_fit, _pa_numerator(p_in, p_out)), f)


def osc_dc_power(
    m: OscModel, f: FrequencyGhz, p_rf: PowerDbm
) -> tuple[PowerMilliwatt, bool]:
    """DC power of an oscillator delivering p_rf at frequency f.

    The DC-to-RF efficiency must land in (0, 1], so the result is never
    below the delivered RF power.
    """
    return _block_dc(_term(m.kind, m.eff_fit, _dbm_mw(p_rf.value)), f)


def mixer_dc_power(
    m: MixerModel, f: FrequencyGhz, p_if_in: PowerDbm, p_rf_out: PowerDbm
) -> tuple[PowerMilliwatt, bool]:
    """DC power of a mixer producing p_rf_out from p_if_in at frequency f.

    The required linear conversion gain P_RF_out / P_IF_in (a loss when
    below one) divided by the gain-per-mW figure of merit gives the DC
    draw.
    """
    return _block_dc(_term(m.kind, m.fom_fit, _mixer_numerator(p_if_in, p_rf_out)), f)

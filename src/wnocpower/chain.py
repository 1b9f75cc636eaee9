"""TX front-end chain composition and design-space exploration.

The chain is mixer (IF to RF upconversion, driven by the oscillator LO)
followed by an optional PA; the mixer output level and the PA input
level are therefore one and the same parameter. Total DC power is the
plain sum of the three block draws: the oscillator's RF output is what
it delivers to the LO port, and the surveyed mixer figures already
include their LO-drive and bias power, so nothing is double counted.

Each block is one exponential term of the frequency (``blocks._Term``),
which ``blocks`` evaluates; this module only composes and searches. On
top of single-point breakdowns it provides frequency sweeps, the exact
minimum-power operating frequency (the total is a sum of positive
exponentials, hence convex), and a per-frequency dominant-block report.
Only ``chain_breakdown`` names a fault at a point (it checks the levels
only once a block call has failed): a sweep or a recommendation that
fails reports what it says there, so the three commands name the same
fault for the same inputs.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import compress, pairwise, product, repeat
from math import inf, isfinite, nan, nextafter

from .blocks import (MixerModel, OscModel, PaModel, _admissible, _dcs, _mixer_numerator,
                     _pa_numerator, _slope, _term, mixer_dc_power, osc_dc_power, pa_dc_power)
from .survey import BlockKind
from .units import FrequencyGhz, PowerDbm, PowerMilliwatt, _dbm_mw, _record, _Slotted


class NoAdmissiblePointError(ValueError):
    """No frequency in the search range is admissible: none is inside every used
    model's validity range (when extrapolation is not allowed) with every figure
    of merit physical."""


class ChainConfig(_record("ChainConfig", "frequency p_mixer_out p_if_in p_pa_out p_osc_rf")):
    """One operating point of the TX chain.

    ``p_mixer_out`` doubles as the PA input. ``p_pa_out`` absent means
    the chain has no PA and the chain output equals the mixer output. A
    ``p_pa_out`` that does not exceed ``p_mixer_out`` is rejected, zero
    gain included; the CLI maps an equal ``--p-pa-out`` to no PA instead.
    """

    __slots__ = ()

    def __new__(cls, frequency: FrequencyGhz, p_mixer_out: PowerDbm,
                p_if_in: PowerDbm = PowerDbm(-5.0), p_pa_out: PowerDbm | None = None,
                p_osc_rf: PowerDbm = PowerDbm(0.0)):
        if p_pa_out is not None and p_pa_out.value <= p_mixer_out.value:
            raise ValueError(f"PA output ({p_pa_out.value} dBm) must exceed mixer output "
                             f"({p_mixer_out.value} dBm); omit p_pa_out for a PA-less chain")
        return tuple.__new__(cls, (frequency, p_mixer_out, p_if_in, p_pa_out, p_osc_rf))


_ORDER = (BlockKind.PA, BlockKind.OSCILLATOR, BlockKind.MIXER)
# The extrapolated_blocks cell of every (PA, oscillator, mixer) flag combination.
_FLAG_TOKENS = {flags: ";".join(kind.token for kind, on in zip(_ORDER, flags) if on)
                for flags in product((False, True), repeat=3)}
_TOKEN_FLAGS = {token: flags for flags, token in _FLAG_TOKENS.items()}
_NO_PA = (PowerMilliwatt(0.0), False)  # the draw and flag of an absent PA stage


def _view(index: int | slice, make=lambda cell: cell) -> property:
    """A read-only view of ``row[index]``, a cell or a slice, built by ``make`` on access."""
    return property(lambda self: make(self.row[index]))


class PowerBreakdown(_record("PowerBreakdown", "row levels")):
    """Per-block DC power of one chain evaluation, with shares and flags.

    ``row`` is the plot-CSV row (frequency in GHz, PA/oscillator/mixer/total
    mW, the three shares, the extrapolated-blocks cell) as plain values;
    ``levels`` holds the config's p_mixer_out, p_if_in, p_pa_out and
    p_osc_rf. The unit-typed views below are built on access.
    """

    __slots__ = ()
    pa_mw, osc_mw, mixer_mw, total_mw = (_view(i, PowerMilliwatt) for i in range(1, 5))
    pa_fraction, osc_fraction, mixer_fraction = (_view(i) for i in range(5, 8))
    pa_extrapolated, osc_extrapolated, mixer_extrapolated = (
        _view(8, lambda cell, i=i: _TOKEN_FLAGS[cell][i]) for i in range(3))
    fractions = _view(slice(5, 8))
    extrapolated_blocks = _view(8, lambda cell: tuple(compress(_ORDER, _TOKEN_FLAGS[cell])))
    any_extrapolated = _view(8, bool)

    @property
    def config(self) -> ChainConfig:
        return ChainConfig(FrequencyGhz(self.row[0]), *self.levels)

    @property
    def per_block(self) -> tuple[tuple[BlockKind, PowerMilliwatt, float, bool], ...]:
        """(kind, DC power, share, extrapolated) of each block: PA, oscillator, mixer."""
        row = self.row
        return tuple(zip(_ORDER, map(PowerMilliwatt, row[1:4]), row[5:8], _TOKEN_FLAGS[row[8]]))


class SweepResult(_Slotted):
    """Chain evaluations over a strictly increasing frequency grid: the plot-CSV ``rows``, one
    per frequency, and their ``levels``, as in ``PowerBreakdown``; entries are built on access."""

    __slots__ = ("rows", "levels")

    def __init__(self, rows: tuple, levels: tuple) -> None:
        rows = tuple(rows)
        _check_increasing(row[0] for row in rows)
        self._set(rows, tuple(levels))

    @property
    def entries(self) -> tuple[tuple[FrequencyGhz, PowerBreakdown], ...]:
        return tuple((FrequencyGhz(row[0]), PowerBreakdown(row, self.levels)) for row in self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[FrequencyGhz, PowerBreakdown]]:
        return iter(self.entries)


def _check_increasing(frequencies: Iterable[float]) -> None:
    """Raise unless each frequency exceeds the one before it. Takes any iterable in O(1) memory."""
    if any(b <= a for a, b in pairwise(frequencies)):
        raise ValueError("sweep frequencies must be strictly increasing")


def _check_grid(lo: float, hi: float, n: int) -> None:
    """Raise unless ``frequency_grid`` takes lo, hi and n: finite lo < hi, 2 <= n <= 2**53."""
    for end in (lo, hi):  # a nan end would pass the order check, an inf one make a nan step
        if not isfinite(end):
            raise ValueError(f"frequency range ends must be finite (got {end} GHz)")
    if lo >= hi:
        raise ValueError(f"inverted frequency range [{lo}, {hi}] GHz")
    if n < 2:
        raise ValueError(f"frequency grid needs >= 2 points (got {n})")
    if n > 2**53:  # up to 2**53, n - 1 is exact as a float and the step is finite
        raise ValueError(f"frequency grid needs <= 2**53 points (got {n})")


def frequency_grid(lo: float, hi: float, n: int) -> Iterator[float]:
    """``n`` uniformly spaced frequencies from lo to hi GHz, both ends exact."""
    _check_grid(lo, hi, n)
    step = (hi - lo) / (n - 1)
    return (hi if i == n - 1 else lo + i * step for i in range(n))


def _terms(pa: PaModel | None, osc: OscModel, mix: MixerModel, cfg: ChainConfig) -> tuple:
    """The chain's block terms (see ``blocks._Term``) at ``cfg``'s levels: mixer,
    oscillator, then the PA if ``cfg`` has one."""
    _f, p_mixer_out, p_if_in, p_pa_out, p_osc_rf = cfg
    num_osc = _dbm_mw(p_osc_rf.value)  # a bad oscillator level is reported first
    terms = (_term(mix.kind, mix.fom_fit, _mixer_numerator(p_if_in, p_mixer_out)),
             _term(osc.kind, osc.eff_fit, num_osc))
    if p_pa_out is None:
        return terms
    if pa is None:
        raise ValueError("config requests a PA stage but no PA model was provided")
    return terms + (_term(pa.kind, pa.pae_fit, _pa_numerator(p_mixer_out, p_pa_out)),)


def _row(f: float, pa_mw: float, osc_mw: float, mixer_mw: float, flags: tuple) -> tuple:
    """The CSV row of one evaluation from its block powers and extrapolation flags."""
    total = pa_mw + osc_mw + mixer_mw
    return (f, pa_mw, osc_mw, mixer_mw, total, pa_mw / total, osc_mw / total, mixer_mw / total,
            _FLAG_TOKENS[flags])


def chain_breakdown(
    pa: PaModel | None,
    osc: OscModel,
    mix: MixerModel,
    cfg: ChainConfig,
) -> PowerBreakdown:
    """Evaluate the full chain at one operating point.

    The PA stage is present exactly when ``cfg.p_pa_out`` is set; in that case a PA model is
    required. This is the one place that names a fault at a point, in this order: the levels
    and the PA model (``_terms``, run only once a block call has failed), then the mixer, the
    oscillator and the PA at the frequency, then the total. A point goes through the public
    block functions, and so does a recommendation's answer, built here rather than from the
    terms its search read through ``blocks._slope``: ``benchmarks/tracing.py`` reads this
    call's span and the block spans under it. A sweep evaluates the terms over a column.
    """
    f, p_mixer_out, p_if_in, p_pa_out, p_osc_rf = cfg
    try:
        mixer, mixer_ex = mixer_dc_power(mix, f, p_if_in, p_mixer_out)
        osc_part, osc_ex = osc_dc_power(osc, f, p_osc_rf)
        pa_part, pa_ex = _NO_PA if p_pa_out is None else pa_dc_power(pa, f, p_mixer_out, p_pa_out)
    except (ValueError, AttributeError):  # the latter from pa_dc_power(None, ...)
        _terms(pa, osc, mix, cfg)  # a level or PA-model fault comes first
        raise
    row = _row(f.value, pa_part.value, osc_part.value, mixer.value, (pa_ex, osc_ex, mixer_ex))
    if row[4] == inf:  # every part is >= 0, so an overflowed power shows in the total
        raise ValueError(f"total draw at {row[0]} GHz: power in mW must be finite (got inf)")
    return PowerBreakdown(row, cfg[1:])


def sweep(
    pa: PaModel | None,
    osc: OscModel,
    mix: MixerModel,
    base_cfg: ChainConfig,
    frequencies: Sequence[FrequencyGhz],
) -> SweepResult:
    """Evaluate the chain on a strictly increasing frequency grid.

    All other config parameters stay fixed. A point fails exactly where
    its total is inf; the first such frequency is reported with what
    ``chain_breakdown`` says there. The result builds no breakdown until
    its entries are read.
    """
    if len(frequencies) == 0:
        raise ValueError("sweep needs at least one frequency")
    # Each term is evaluated over the whole column first. A point where ``chain_breakdown``
    # raises has an inf total: the same arithmetic, with ``blocks._dcs`` giving inf where
    # ``blocks._block_dc`` raises.
    freqs = [f.value for f in frequencies]
    (mixer_mw, mixer_ex), (osc_mw, osc_ex), *pa_dcs = [
        _dcs(term, freqs) for term in _terms(pa, osc, mix, base_cfg)]
    pa_mw, pa_ex = pa_dcs[0] if pa_dcs else (repeat(0.0), repeat(False))
    rows = [_row(f, p, o, m, flags) for f, p, o, m, flags
            in zip(freqs, pa_mw, osc_mw, mixer_mw, zip(pa_ex, osc_ex, mixer_ex))]
    failed = next((f for f, row in zip(frequencies, rows) if row[4] == inf), None)
    if failed is not None:
        try:
            chain_breakdown(pa, osc, mix, base_cfg._replace(frequency=failed))
        except ValueError as exc:
            raise ValueError(f"sweep failed at {failed.value} GHz: {exc}") from None
    return SweepResult(tuple(rows), base_cfg[1:])


def recommend_frequency(
    pa: PaModel | None,
    osc: OscModel,
    mix: MixerModel,
    base_cfg: ChainConfig,
    lo: FrequencyGhz,
    hi: FrequencyGhz,
    n_grid: int = 64,
    allow_extrapolation: bool = False,
) -> tuple[FrequencyGhz, PowerBreakdown]:
    """The frequency in [lo, hi] with minimum total DC power, and its breakdown.

    Each block draws P_i(f) = c_i * exp(-b_i * f) with c_i > 0, so the
    total is convex for any signs of the rates and its minimum is found
    exactly. The admissible frequencies are one interval: [lo, hi], inside
    every used model's validity range unless ``allow_extrapolation`` is
    set, where every figure of merit is physical. A bracketed Newton
    iteration on the slope of the total over that interval (``_argmin``)
    finds the minimum to the float. Exact ties, where every rate is 0, go
    to the lower end. ``n_grid`` is checked as ``frequency_grid`` checks it
    (2 to 2**53) and does not change the answer.
    """
    _check_grid(lo.value, hi.value, n_grid)
    terms = _terms(pa, osc, mix, base_cfg)
    f_lo, f_hi = _admissible_interval(terms, lo.value, hi.value, allow_extrapolation)
    if f_lo > f_hi:
        raise NoAdmissiblePointError(f"no frequency in [{lo.value}, {hi.value}] GHz " + (
            "has every figure of merit physical" if allow_extrapolation else
            "is inside all model validity ranges with every figure of merit physical; "
            "pass allow_extrapolation to search anyway"))
    f_best = FrequencyGhz(_argmin(terms, f_lo, f_hi))
    return f_best, chain_breakdown(pa, osc, mix, ChainConfig(f_best, *base_cfg[1:]))


def _admissible_interval(terms: tuple, lo: float, hi: float, allow_extrapolation: bool) -> tuple:
    """[lo, hi] narrowed by ``blocks._admissible`` for every term; (inf, -inf) if that is empty."""
    for term in terms:
        lo, hi = _admissible(term, lo, hi, allow_extrapolation)
    return lo, hi


def _argmin(terms: tuple, lo: float, hi: float) -> float:
    """The least f in [lo, hi] that minimises the convex total T of ``terms``.

    Every point of [lo, hi] is admissible. T is convex, so its slope
    T'(f) = sum(-b_i * P_i(f)) is negative on one interval from ``lo``: the answer is the
    last float of it, or ``lo`` if the slope there is not negative (every rate 0, an exact
    tie, included). A bracketed Newton iteration on the slope finds that float: it keeps a
    falling ``good`` and a ``bad`` that is not, and probes Newton's point when it lies
    strictly between them. Otherwise it probes the float next to Newton's point inside the
    bracket, and the midpoint on a second such stall in a row, or when six probes have not
    halved the bracket. It stops when ``good`` and ``bad`` are adjacent floats."""
    terms = [(t.a, t.b, t.num, t.scale) for t in terms if t.b]  # rate 0 adds 0, even to inf power
    if not (lo < hi and _slope(terms, lo)[0] > 0):
        return lo
    f, (h, dh) = hi, _slope(terms, hi)
    if h > 0:
        return hi
    good, bad, stalled, widths = lo, hi, False, [hi - lo] * 6
    while nextafter(good, bad) != bad:
        x = f - h / dh if dh else nan
        stall = not good < x < bad
        if stall and stalled or bad - good > widths[-6] / 2:
            x, stall = good + (bad - good) / 2, False
        elif stall:
            x = nextafter(bad, good) if x >= bad else nextafter(good, bad)
        stalled = stall
        widths.append(bad - good)
        f, (h, dh) = x, _slope(terms, x)
        good, bad = (x, bad) if h > 0 else (good, x)
    return good


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


_CSV_HEADER = ",".join(SWEEP_CSV_COLUMNS) + "\n"


def breakdowns_to_csv(breakdowns: SweepResult | Sequence[PowerBreakdown]) -> str:
    """Plot-ready CSV of a sweep's rows, or of any breakdown sequence (stacked sweeps).

    Numbers are written by ``repr``, the shortest form that reads back to
    the same float. No field ever needs quoting: every field is a number
    or an extrapolated-blocks cell, block tokens joined by ";", which
    holds no comma, quote or line break."""
    rows = breakdowns.rows if isinstance(breakdowns, SweepResult) else [bd.row for bd in breakdowns]
    return _CSV_HEADER + "".join([f"{f!r},{p!r},{o!r},{m!r},{t!r},{pf!r},{of!r},{mf!r},{cell}\n"
                                  for f, p, o, m, t, pf, of, mf, cell in rows])


def breakdown_to_dict(bd: PowerBreakdown) -> dict:
    """JSON-ready document mirroring the CSV columns plus the config echo."""
    cfg = bd.config
    return {
        "config": {
            "frequency_ghz": cfg.frequency.value,
            "p_if_in_dbm": cfg.p_if_in.value,
            "p_mixer_out_dbm": cfg.p_mixer_out.value,
            "p_pa_out_dbm": None if cfg.p_pa_out is None else cfg.p_pa_out.value,
            "p_osc_rf_dbm": cfg.p_osc_rf.value,
        },
        **dict(zip(SWEEP_CSV_COLUMNS[1:-1], bd.row[1:8])),
        "extrapolated_blocks": [kind.token for kind in bd.extrapolated_blocks],
    }

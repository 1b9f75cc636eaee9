"""The exact recommender against a 100,001-node grid on random convex models.

Each model is a chain of two or three blocks whose draws are positive
exponentials of the frequency, so its total is convex. The reference is
the best admissible node of a uniform 100,001-node grid over the search
range, computed here from the model formulas without the library:

* a node is admissible when every used fit is inside its validity span
  (unless extrapolation is allowed) and has a physical figure of merit;
* per block, admissibility is monotone along the grid, so the admissible
  nodes are one index range, found by binary search on the node checks;
* node totals are convex along the grid, so the best node is found by
  binary search on the sign of consecutive differences and a scan of the
  nodes around it. ``test_reference_matches_a_full_scan`` checks this
  shortcut against a scan of all nodes on a few models.

The recommendation must be admissible and no worse than that node, to
within 1e-12, and a refusal must mean that no node is admissible. The
slope search itself must give the answer of a plain bisection of the
slope sign (kept here as the reference), and on any valid chain the last
float where the total falls.
"""

import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import wnocpower.chain as chain_module
from test_library_contract import chains, frequencies
from wnocpower.blocks import MixerModel, OscModel, PaModel, _dcs
from wnocpower.chain import (ChainConfig, NoAdmissiblePointError, _admissible_interval, _argmin,
                             _terms, chain_breakdown, recommend_frequency)
from wnocpower.regression import ExpFitModel
from wnocpower.units import FrequencyGhz, PowerDbm

NODES = 100_001
TOP = {"PA": 100.0, "OSC": 1.0, "MIXER": math.inf}
WINDOW = 64


def fit(a, b, span):
    return ExpFitModel(a, b, FrequencyGhz(span[0]), FrequencyGhz(span[1]), 1.0, 1.0, 2, "test")


def random_case(seed):
    """A random chain, operating point and search range; the FoMs are set at mid-range."""
    rng = random.Random(seed)
    lo = rng.uniform(5.0, 120.0)
    hi = lo + rng.uniform(10.0, 250.0)
    mid = (lo + hi) / 2

    def span():
        if rng.random() < 0.5:
            return (min(lo, 1.0), hi + 50.0)
        a = rng.uniform(lo - 40.0, hi)
        return (max(a, 1.0), max(a, 1.0) + rng.uniform(5.0, 200.0))

    rates = {"PA": rng.uniform(-0.03, 0.02), "OSC": rng.uniform(-0.01, 0.03),
             "MIXER": rng.uniform(-0.03, 0.03)}
    at_mid = {"PA": rng.uniform(5.0, 60.0), "OSC": rng.uniform(0.02, 0.6),
              "MIXER": 10.0 ** rng.uniform(-2.0, 1.0)}
    fits = {k: fit(at_mid[k] * math.exp(-rates[k] * mid), rates[k], span()) for k in rates}
    p_mixer_out = rng.uniform(-15.0, 0.0)
    p_pa_out = p_mixer_out + rng.uniform(1.0, 15.0) if rng.random() < 0.5 else None
    cfg = ChainConfig(FrequencyGhz(lo), PowerDbm(p_mixer_out), PowerDbm(-5.0),
                      None if p_pa_out is None else PowerDbm(p_pa_out),
                      PowerDbm(rng.uniform(-5.0, 5.0)))
    return fits, cfg, lo, hi, rng.random() < 0.3


class Reference:
    """The model of one case, evaluated node by node from its formulas."""

    def __init__(self, fits, cfg, lo, hi, allow):
        mw = lambda dbm: 10.0 ** (dbm.value / 10.0)  # noqa: E731
        self.blocks = [("MIXER", fits["MIXER"], mw(cfg.p_mixer_out) / mw(cfg.p_if_in), 1.0),
                       ("OSC", fits["OSC"], mw(cfg.p_osc_rf), 1.0)]
        if cfg.p_pa_out is not None:
            self.blocks.append(("PA", fits["PA"], mw(cfg.p_pa_out) - mw(cfg.p_mixer_out), 0.01))
        self.lo, self.hi, self.allow = lo, hi, allow
        self.step = (hi - lo) / (NODES - 1)
        self.checks = []  # f -> bool, each monotone in f
        for kind, m, _, _ in self.blocks:
            self.checks += [lambda f, m=m: fom(m, f) > 0.0,
                            lambda f, m=m, top=TOP[kind]: fom(m, f) <= top and fom(m, f) < math.inf]
            if not allow:
                self.checks += [lambda f, m=m: f >= m.valid_lo.value,
                                lambda f, m=m: f <= m.valid_hi.value]

    def node(self, j):
        return self.hi if j == NODES - 1 else self.lo + j * self.step

    def admissible(self, f):
        return all(check(f) for check in self.checks)

    def total(self, f):
        return sum(num / (scale * fom(m, f)) for _, m, num, scale in self.blocks)

    def admissible_nodes(self):
        """The index range [first, last] of the admissible nodes (first > last if none)."""
        first, last = 0, NODES - 1
        for check in self.checks:
            holds = lambda j, check=check: check(self.node(j))  # noqa: E731
            if holds(0) and holds(NODES - 1):
                continue
            if not holds(0) and not holds(NODES - 1):
                return 1, 0
            if holds(NODES - 1):
                first = max(first, first_true(holds, 0, NODES))
            else:
                last = min(last, first_true(lambda j: not holds(j), 0, NODES) - 1)
        return first, last

    def best_node(self):
        """The least total over the admissible nodes (inf if there are none)."""
        first, last = self.admissible_nodes()
        if first > last:
            return math.inf
        rising = first_true(lambda j: self.total(self.node(j + 1)) >= self.total(self.node(j)),
                            first, last)
        near = range(max(first, rising - WINDOW), min(last, rising + WINDOW) + 1)
        return min(self.total(self.node(j)) for j in (first, last, *near))

    def best_node_by_full_scan(self):
        totals = [self.total(f) for f in map(self.node, range(NODES)) if self.admissible(f)]
        return min(totals, default=math.inf)


def fom(model, f):
    """The fit's figure of merit at f GHz; inf past the float range."""
    try:
        return model.a * math.exp(model.b * f)
    except OverflowError:
        return math.inf


def first_true(pred, lo, hi):
    """The least j in [lo, hi) where the monotone ``pred`` holds (hi if none)."""
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def models(fits, cfg):
    """The chain's PA (None without one), oscillator and mixer models."""
    pa = PaModel(fits["PA"]) if cfg.p_pa_out is not None else None
    return pa, OscModel(fits["OSC"]), MixerModel(fits["MIXER"])


def recommend(fits, cfg, lo, hi, allow):
    return recommend_frequency(*models(fits, cfg), cfg, FrequencyGhz(lo), FrequencyGhz(hi),
                               allow_extrapolation=allow)


def outcome(ref, fits, cfg, f):
    """Which constraint the answer f sits on."""
    if f in (ref.lo, ref.hi):
        return "range"
    if not ref.allow and any(f in (m.valid_lo.value, m.valid_hi.value) for _, m, _, _ in ref.blocks):
        return "span"
    if not (ref.admissible(math.nextafter(f, -math.inf)) and ref.admissible(math.nextafter(f, math.inf))):
        return "physical"
    return "interior"


def test_exact_recommendation_is_no_worse_than_the_best_grid_node():
    seen = Counter()
    for seed in range(400):
        fits, cfg, lo, hi, allow = random_case(seed)
        ref = Reference(fits, cfg, lo, hi, allow)
        best = ref.best_node()
        try:
            f, bd = recommend(fits, cfg, lo, hi, allow)
        except NoAdmissiblePointError:
            assert best == math.inf, f"seed {seed}: refused, but a node totals {best!r} mW"
            seen["refused", cfg.p_pa_out is None] += 1
            continue
        answer = cfg._replace(frequency=f)
        assert bd == chain_breakdown(*models(fits, cfg), answer), f"seed {seed}"
        assert bd.config == answer, f"seed {seed}"
        f = f.value
        assert lo <= f <= hi and ref.admissible(f), f"seed {seed}: {f} GHz is not admissible"
        total = bd.total_mw.value
        assert total == pytest.approx(ref.total(f), rel=1e-12), f"seed {seed}"
        assert total <= best * (1.0 + 1e-12), f"seed {seed}: {total!r} mW at {f} GHz > {best!r}"
        seen[outcome(ref, fits, cfg, f), cfg.p_pa_out is None] += 1
    for kind in ("refused", "range", "span", "physical", "interior"):
        for no_pa in (False, True):
            assert seen[kind, no_pa] >= 3, seen


@pytest.mark.parametrize("seed", [3, 11, 26])
def test_reference_matches_a_full_scan(seed):
    ref = Reference(*random_case(seed))
    assert ref.best_node() == ref.best_node_by_full_scan()


def falling(terms, f):
    """The total of ``terms`` falls at f: its slope, sum(-b_i * P_i(f)), is negative."""
    return sum([t.fit.b * _dcs(t, (f,))[0][0] for t in terms if t.fit.b]) > 0


def bisected_argmin(terms, lo, hi):
    """The last float of the interval from ``lo`` where the total falls, by plain bisection
    of the slope sign, or ``lo`` if it does not fall there; and the bisection's step count."""
    if not (lo < hi and falling(terms, lo)):
        return lo, 0
    if falling(terms, hi):
        return hi, 0
    good, bad, steps = lo, hi, 0
    while (mid := good + (bad - good) / 2) not in (good, bad):
        good, bad = (mid, bad) if falling(terms, mid) else (good, mid)
        steps += 1
    return good, steps


def argmin_and_probes(terms, lo, hi):
    """``_argmin(terms, lo, hi)`` and the number of slope probes it took."""
    probes = 0
    real = chain_module._slope

    def counted(*args):
        nonlocal probes
        probes += 1
        return real(*args)

    chain_module._slope = counted
    try:
        return _argmin(terms, lo, hi), probes
    finally:
        chain_module._slope = real


def test_slope_search_equals_a_plain_bisection():
    # The search probes the midpoint once six probes have not halved its bracket, so after
    # one probe at each end it should take at most six per step of the plain bisection.
    interior = 0
    for seed in range(400):
        fits, cfg, lo, hi, allow = random_case(seed)
        pa = PaModel(fits["PA"]) if cfg.p_pa_out is not None else None
        terms = _terms(pa, OscModel(fits["OSC"]), MixerModel(fits["MIXER"]), cfg)
        f_lo, f_hi = _admissible_interval(terms, lo, hi, allow)
        if f_lo > f_hi:
            continue
        f, probes = argmin_and_probes(terms, f_lo, f_hi)
        bisected, steps = bisected_argmin(terms, f_lo, f_hi)
        assert f == bisected, f"seed {seed}"
        assert probes <= 6 * steps + 2, f"seed {seed}: {probes} probes, {steps} steps"
        interior += f_lo < f < f_hi
    assert interior >= 20, interior


def assert_last_falling_float(terms, lo, hi):
    """``_argmin`` on [lo, hi] returns ``lo`` where the total does not fall there, else a float
    where it falls that is ``hi`` or where it does not fall at the next float, in at most
    six slope probes per step of a plain bisection after one probe at each end."""
    f, probes = argmin_and_probes(terms, lo, hi)
    assert probes <= 6 * bisected_argmin(terms, lo, hi)[1] + 2
    assert lo <= f <= hi
    if f == lo and not (lo < hi and falling(terms, lo)):
        return "lo"
    assert falling(terms, f) and (f == hi or not falling(terms, math.nextafter(f, hi)))
    return "hi" if f == hi else "interior"


# A rate of -1000/GHz beside +1000/GHz: with the guard's limit at twice the width six probes
# back rather than half of it, the search took 654 probes for a 55-step bisection here.
STEEP_CHAIN = (PaModel(fit(0.5, 1.0, (1.0, 2.0))),
               OscModel(fit(1.066482423435341e27, -1000.0, (1.0, 2.0))),
               MixerModel(fit(1.0, 1000.0, (1.0, 2.0))),
               ChainConfig(FrequencyGhz(1.0), *map(PowerDbm, (0.0, 0.0, 9.0, 0.0))))


@settings(max_examples=300, deadline=None)
@given(chain=chains(), ends=st.lists(frequencies, min_size=2, max_size=2), allow=st.booleans())
@example(chain=STEEP_CHAIN, ends=[1.0, 0.0625], allow=True)
def test_slope_search_returns_the_last_float_where_the_total_falls(chain, ends, allow):
    pa, osc, mix, cfg = chain
    try:
        terms = _terms(pa, osc, mix, cfg)
    except ValueError:  # a level past the float range
        return
    lo, hi = _admissible_interval(terms, min(ends), max(ends), allow)
    if lo <= hi:
        assert_last_falling_float(terms, lo, hi)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(400, 2**32))
def test_slope_search_returns_the_last_float_where_a_random_case_falls(seed):
    fits, cfg, lo, hi, _allow = random_case(seed)
    pa = PaModel(fits["PA"]) if cfg.p_pa_out is not None else None
    terms = _terms(pa, OscModel(fits["OSC"]), MixerModel(fits["MIXER"]), cfg)
    lo, hi = _admissible_interval(terms, lo, hi, True)
    if lo <= hi:
        assert_last_falling_float(terms, lo, hi)

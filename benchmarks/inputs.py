"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed (and, for recommend-scan,
of the validity spans the program fitted from seeded surveys), so one
seed always gives the same inputs. Nothing is filtered after drawing:
draws that the program must refuse (a range outside every span, a
malformed survey) are part of the inputs and are checked as refusals.

Sizes are fixed per workload and only values vary with the seed, so
that the end-to-end figures of two seeds measure the same amount of
work.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

EXAMPLES = Path("src") / "wnocpower" / "data" / "examples"
BUNDLE_CSV = {"PA": "pa_survey.csv", "OSC": "oscillator_survey.csv", "MIXER": "mixer_survey.csv"}
MODEL_JSON = {"PA": "pa.json", "OSC": "osc.json", "MIXER": "mix.json"}
SEARCH_LO_GHZ, SEARCH_HI_GHZ = 1.0, 400.0
MIXER_SPAN_END_GHZ = 140.0  # the bundle's mixer span ends here (bundle README)
README_LEVELS = "-15,-10,-5,0"
README_FREQS = "30,60,140,243"

_NODES = ("28nm CMOS", "40nm CMOS", "65nm CMOS", "22nm FDSOI", "130nm SiGe")


def _rng(seed: int, *salt) -> random.Random:
    return random.Random(":".join(str(s) for s in (seed,) + salt))


def _step(rng: random.Random, lo: float, hi: float, step: float) -> float:
    """Uniform draw on the grid lo, lo+step, ..., hi (exact decimal values)."""
    n = int(round((hi - lo) / step))
    return round(lo + step * rng.randint(0, n), 6)


# --- surveys --------------------------------------------------------------

# Synthetic technology trends metric = a * exp(b * f), drawn per seed. The
# multiplicative scatter stays in [0.5, 1.3] so every drawn metric is
# physical (PAE <= 100 %, efficiency <= 1); "rising" mixers improve with
# frequency, which gives chain totals with interior minima.
TRENDS = {
    "PA": dict(a=(35.0, 50.0), b=(-0.016, -0.009), f=((1.0, 5.0), (250.0, 320.0))),
    "OSC": dict(a=(0.30, 0.45), b=(-0.009, -0.005), f=((8.0, 15.0), (280.0, 320.0))),
    "MIXER": dict(a=(4.0, 8.0), b=(-0.016, -0.010), f=((1.0, 5.0), (120.0, 160.0))),
    "MIXER-rising": dict(a=(0.004, 0.012), b=(0.020, 0.035), f=((3.0, 10.0), (250.0, 300.0))),
}


def survey_csv(seed: int, trend: str, n_rows: int, tag: str) -> str:
    """A synthetic survey of n_rows rows on a 0.5 GHz frequency grid.

    The grid makes exact frequency ties common, and about one row in
    twenty repeats an earlier (frequency, metric) pair under a new
    label, so the frontier tie rules run.
    """
    rng = _rng(seed, "survey", trend, tag)
    spec = TRENDS[trend]
    block = trend.split("-")[0]
    a = rng.uniform(*spec["a"])
    b = rng.uniform(*spec["b"])
    f_lo = _step(rng, *spec["f"][0], 0.5)
    f_hi = _step(rng, *spec["f"][1], 0.5)
    lines = [f"# synthetic {block} survey ({tag}), benchmark seed {seed}",
             "block,frequency_ghz,metric,label,technology_node,notes"]
    drawn: list[tuple[float, float]] = []
    for i in range(n_rows):
        if drawn and rng.random() < 0.05:
            f, metric = drawn[rng.randrange(len(drawn))]
        else:
            f = f_lo if i == 0 else f_hi if i == 1 else _step(rng, f_lo, f_hi, 0.5)
            metric = float(f"{a * math.exp(b * f) * rng.uniform(0.5, 1.3):.6g}")
            drawn.append((f, metric))
        lines.append(f"{block},{f!r},{metric!r},syn-{tag}-{i:05d},{rng.choice(_NODES)},")
    return "\n".join(lines) + "\n"


_MALFORMED = (
    ("metric is not a number", lambda block, f: f"{block},{f!r},n/a,bad-row,28nm CMOS,"),
    ("metric out of range", lambda block, f: f"{block},{f!r},150.0,bad-row,28nm CMOS,"),
    ("missing fields", lambda block, f: f"{block},{f!r},12.5"),
    ("heterogeneous block", lambda block, f: f"OSC,{f!r},0.25,bad-row,28nm CMOS,"),
    ("non-positive frequency", lambda block, f: f"{block},-{f!r},12.5,bad-row,28nm CMOS,"),
)


def malformed_survey_csv(seed: int, good_csv: str) -> tuple[str, int, str]:
    """A PA survey with one bad row; returns (text, file line of that row, defect)."""
    rng = _rng(seed, "malformed")
    lines = good_csv.rstrip("\n").split("\n")
    pos = rng.randrange(3, len(lines))  # after the comment and header lines
    defect, make = _MALFORMED[rng.randrange(len(_MALFORMED))]
    lines.insert(pos, make("PA", _step(rng, 10.0, 200.0, 0.5)))
    return "\n".join(lines) + "\n", pos + 1, defect


# --- operating points -----------------------------------------------------


def operating_point(rng: random.Random, with_pa: bool) -> dict:
    """A TX-chain operating point in realistic dBm ranges.

    The PA, when present, has 3 to 20 dB of gain over the mixer output.
    """
    p_mix = _step(rng, -20.0, 0.0, 0.5)
    return {
        "p_if": _step(rng, -10.0, 0.0, 0.5),
        "p_mixer_out": p_mix,
        "p_pa_out": p_mix + _step(rng, 3.0, 20.0, 0.5) if with_pa else None,
        "p_osc_rf": _step(rng, -5.0, 5.0, 0.5),
    }


def point_flags(point: dict) -> list[str]:
    flags = ["--p-if", repr(point["p_if"]), "--p-osc-rf", repr(point["p_osc_rf"])]
    if point["p_pa_out"] is not None:
        flags += ["--p-pa-out", repr(point["p_pa_out"])]
    return flags


def model_flags(with_pa: bool = True) -> list[str]:
    flags = ["--pa-model", MODEL_JSON["PA"]] if with_pa else []
    return flags + ["--osc-model", MODEL_JSON["OSC"], "--mixer-model", MODEL_JSON["MIXER"]]


# --- CLI scripts ----------------------------------------------------------


def setup_fits(root: Path) -> list[list[str]]:
    """argv lists fitting the shipped bundle into pa.json, osc.json, mix.json."""
    return [["fit", str(root / EXAMPLES / BUNDLE_CSV[block]), "--block", block,
             "--out", MODEL_JSON[block]] for block in ("PA", "OSC", "MIXER")]


def cli_session(seed: int, tiny: bool = False) -> tuple[dict, list[dict]]:
    """Input files and the operations of one cli-session pass.

    Each operation is one cold CLI invocation with its expected exit code
    and what its outputs must hold.
    """
    rng = _rng(seed, "cli-session")
    big, small = (250, 50) if tiny else (2500, 500)
    pa_csv = survey_csv(seed, "PA", big, "pa")
    bad_csv, bad_line, defect = malformed_survey_csv(seed, survey_csv(seed, "PA", small, "pa-small"))
    files = {"survey_pa.csv": pa_csv,
             "survey_mix.csv": survey_csv(seed, "MIXER", small, "mix"),
             "survey_bad.csv": bad_csv}
    bins = rng.randint(6, 12)
    bd_point = operating_point(rng, with_pa=True)
    bd_freq = _step(rng, 13.0, 139.0, 0.1)
    strict_point = operating_point(rng, with_pa=rng.random() < 0.5)
    rec_point = operating_point(rng, with_pa=True)
    rec_lo = _step(rng, 13.0, 100.0, 0.1)
    rec_hi = min(MIXER_SPAN_END_GHZ, _step(rng, rec_lo + 10.0, MIXER_SPAN_END_GHZ, 0.1))
    out_point = operating_point(rng, with_pa=True)
    out_lo = _step(rng, 150.0, 300.0, 0.5)
    out_hi = min(SEARCH_HI_GHZ, _step(rng, out_lo + 10.0, SEARCH_HI_GHZ, 0.5))

    def mix_flag(p):
        return ["--p-mixer-out", repr(p["p_mixer_out"])]

    ops = [
        dict(name="fit-pareto", kind="fit", exit=0,
             argv=["fit", "survey_pa.csv", "--block", "PA", "--out", "fit_pa.json"],
             survey="survey_pa.csv", strategy="pareto-upper", block="PA",
             outputs=["fit_pa.json"]),
        dict(name="fit-binned", kind="fit", exit=0,
             argv=["fit", "survey_mix.csv", "--block", "MIXER", "--strategy", "binned-max",
                   "--bins", str(bins), "--out", "fit_mix.json"],
             survey="survey_mix.csv", strategy=f"binned-max:{bins}", block="MIXER",
             outputs=["fit_mix.json"]),
        dict(name="breakdown", kind="breakdown", exit=0,
             argv=["breakdown", *model_flags(), "--freq", repr(bd_freq), *mix_flag(bd_point),
                   *point_flags(bd_point), "--out-csv", "bd.csv", "--out-json", "bd.json"],
             freq=bd_freq, point=bd_point, outputs=["bd.csv", "bd.json"]),
        dict(name="breakdown-strict", kind="breakdown", exit=3,
             argv=["breakdown", *model_flags(strict_point["p_pa_out"] is not None),
                   "--freq", "243", *mix_flag(strict_point), *point_flags(strict_point),
                   "--strict"],
             freq=243.0, point=strict_point, outputs=[]),
        dict(name="sweep-readme", kind="sweep", exit=0,
             argv=["sweep", *model_flags(), "--levels", README_LEVELS, "--freqs", README_FREQS,
                   "--p-pa-out", "5", "--out", "sweep.csv"],
             freqs=[float(x) for x in README_FREQS.split(",")],
             levels=[float(x) for x in README_LEVELS.split(",")],
             point={"p_if": -5.0, "p_pa_out": 5.0, "p_osc_rf": 0.0}, outputs=["sweep.csv"]),
        dict(name="recommend-inside", kind="recommend", exit=0,
             argv=["recommend", *model_flags(), "--range", f"{rec_lo!r}:{rec_hi!r}",
                   *mix_flag(rec_point), *point_flags(rec_point)],
             lo=rec_lo, hi=rec_hi, point=rec_point, outputs=[]),
        dict(name="recommend-outside", kind="recommend", exit=3,
             argv=["recommend", *model_flags(), "--range", f"{out_lo!r}:{out_hi!r}",
                   *mix_flag(out_point), *point_flags(out_point)],
             lo=out_lo, hi=out_hi, point=out_point, outputs=[]),
        dict(name="validate-examples", kind="validate", exit=0,
             argv=["validate-examples"], outputs=[]),
        dict(name="fit-malformed", kind="malformed", exit=2,
             argv=["fit", "survey_bad.csv", "--block", "PA", "--out", "fit_bad.json"],
             bad_line=bad_line, defect=defect, outputs=[]),
    ]
    return files, ops


# Rows per invocation are fixed (levels x points = 20,000); the seed picks
# the range, the levels and the operating point. Calls without a PA are
# cheaper, and two of the three calls share one shape, so the median
# latency sits inside that shape's cluster instead of between two.
DENSE_SHAPES = ((4, 5000, True), (5, 4000, False), (4, 5000, True))


def dense_sweep(seed: int, tiny: bool = False) -> tuple[dict, list[dict]]:
    """The operations of one dense-sweep pass: large grids crossing 140 GHz."""
    rng = _rng(seed, "dense-sweep")
    ops = []
    for i, (n_levels, n_points, with_pa) in enumerate(DENSE_SHAPES):
        if tiny:
            n_points //= 50
        # The grid is symmetric about the mixer span end and stays inside
        # the other spans (the oscillator's starts at 12.7 GHz), so exactly
        # half its points extrapolate the mixer and no point extrapolates
        # another block: the per-row cost does not depend on the seed.
        lo = _step(rng, 13.0, 60.0, 0.5)
        hi = 2 * MIXER_SPAN_END_GHZ - lo
        levels = sorted(rng.sample(range(-40, 1), n_levels))
        levels = [lv / 2.0 for lv in levels]  # distinct, -20 to 0 dBm in 0.5 dB steps
        point = operating_point(rng, with_pa=False)
        if with_pa:
            point["p_pa_out"] = levels[-1] + _step(rng, 3.0, 20.0, 0.5)
        out = f"dense{i}.csv"
        ops.append(dict(
            name=f"sweep{i}-{n_levels}x{n_points}-{'pa' if with_pa else 'nopa'}", kind="sweep",
            exit=0,
            argv=["sweep", *model_flags(with_pa), "--range", f"{lo!r}:{hi!r}:{n_points}",
                  "--levels", ",".join(repr(lv) for lv in levels), *point_flags(point),
                  "--out", out],
            grid=(lo, hi, n_points), levels=levels, point=point, outputs=[out]))
    return {}, ops


# --- recommend-scan -------------------------------------------------------

# The seeded model set's surveys: (trend, rows, frontier strategy). Its
# mixer figure of merit improves with frequency, so its chain totals have
# interior minima; the bundle's minimum always sits at the range's low end.
SCAN_SEEDED = {"PA": ("PA", 400, "pareto-upper"),
               "OSC": ("OSC", 400, "pareto-upper"),
               "MIXER": ("MIXER-rising", 400, "binned-max:12")}
SCAN_KINDS = ("inside", "crossing", "outside", "extrapolate")
# PA presence of the calls per (kind, model set). Calls without a PA are
# cheaper; with an even split the median latency would sit between the two
# clusters and jump between them from run to run.
SCAN_PA_MIX = (True, True, True, False)
SCAN_BATCH_REPEATS = 2  # a batch is 2 x 4 kinds x 2 model sets x 4 = 64 calls


def scan_models(seed: int, root: Path, tiny: bool = False) -> tuple[dict, dict]:
    """Seeded survey files, and the (survey, strategy) of every scan model.

    Returns ``(files, models)`` with ``models[model_set][block]``.
    """
    files, seeded = {}, {}
    for block, (trend, n_rows, strategy) in SCAN_SEEDED.items():
        name = f"seeded_{block.lower()}.csv"
        files[name] = survey_csv(seed, trend, n_rows // 10 if tiny else n_rows, f"scan-{block.lower()}")
        seeded[block] = (name, strategy)
    bundle = {block: (str(root / EXAMPLES / csv), "pareto-upper") for block, csv in BUNDLE_CSV.items()}
    return files, {"bundle": bundle, "seeded": seeded}


def _scan_range(rng: random.Random, kind: str, span: tuple[float, float]) -> tuple[float, float]:
    a, b = span
    if kind == "inside":
        lo = max(a, _step(rng, a, a + 0.7 * (b - a), 0.1))
        return lo, min(b, _step(rng, lo + 0.1 * (b - a), b, 0.1))
    if kind == "crossing":
        if a > SEARCH_LO_GHZ + 1.0 and rng.random() < 0.5:
            lo = _step(rng, max(SEARCH_LO_GHZ, a - 50.0), a - 0.5, 0.5)
            return lo, _step(rng, a + 0.5, b, 0.5)
        lo = _step(rng, a, b - 0.5, 0.5)
        return lo, _step(rng, b + 0.5, min(SEARCH_HI_GHZ, b + 100.0), 0.5)
    if kind == "outside":
        lo = _step(rng, b + 0.5, SEARCH_HI_GHZ - 10.0, 0.5)
        return lo, min(SEARCH_HI_GHZ, _step(rng, lo + 5.0, SEARCH_HI_GHZ, 0.5))
    lo = _step(rng, SEARCH_LO_GHZ, 200.0, 0.5)
    return lo, min(SEARCH_HI_GHZ, _step(rng, lo + 20.0, SEARCH_HI_GHZ, 0.5))


def scan_batch(seed: int, index: int, spans: dict, tiny: bool = False) -> list[dict]:
    """Batch ``index`` of recommend_frequency calls.

    ``spans[model_set][block]`` is the fitted validity span. A batch holds
    the same calls for every range kind and model set, three in four of
    them with a PA; only the values change with the seed and the batch
    index, so no two batches repeat an input.
    """
    rng = _rng(seed, "scan", index)
    calls = []
    for _ in range(1 if tiny else SCAN_BATCH_REPEATS):
        for kind in SCAN_KINDS:
            for models in ("bundle", "seeded"):
                for with_pa in SCAN_PA_MIX:
                    used = ("PA", "OSC", "MIXER") if with_pa else ("OSC", "MIXER")
                    span = (max(spans[models][k][0] for k in used),
                            min(spans[models][k][1] for k in used))
                    lo, hi = _scan_range(rng, kind, span)
                    calls.append(dict(kind=kind, models=models, lo=lo, hi=hi,
                                      allow=kind == "extrapolate",
                                      **operating_point(rng, with_pa)))
    rng.shuffle(calls)
    return calls

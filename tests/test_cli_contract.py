"""The CLI error contract as a property.

Whatever the argv and whatever the input files hold, ``main`` returns 0,
1, 2 or 3 and never raises; a usage error (1), a data error (2) or a
refusal (3) prints exactly one line on stderr. The inputs are argv drawn
from the CLI's own vocabulary; fitted model documents with arbitrary
numbers for ``breakdown``, ``sweep`` and ``recommend`` (fits that reach
their physical bound inside the searched range included); and survey
CSVs, adjacent doubles included, for ``fit``. Grids stay small: at most
64 points.
"""

import contextlib
import io
import json
import math
import os
import shutil
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from wnocpower.cli import main
from wnocpower.exampledata import default_bundle

BUNDLE = default_bundle()
SURVEYS = {"PA": BUNDLE.pa_csv, "OSC": BUNDLE.oscillator_csv, "MIXER": BUNDLE.mixer_csv}
METRIC_MAX = {"PA": 100.0, "OSC": 1.0, "MIXER": math.inf}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding the bundle's three fitted model documents."""
    root = tmp_path_factory.mktemp("contract")
    for kind, survey in SURVEYS.items():
        assert run(["fit", str(survey), "--block", kind, "--out", str(root / f"{kind}.json")]) == 0
    return root


def run(argv):
    """``main(argv)``, checked against the contract; returns the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
    return code


def numbers(typical):
    """Any float, with extra weight on a typical range and on tiny positives."""
    return st.one_of(typical, st.floats(min_value=0.0, max_value=1e-300, exclude_min=True),
                     st.floats())


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(sorted(SURVEYS)),
    a=numbers(st.floats(0.0, 200.0)),
    b=numbers(st.floats(-3.0, 6.0)),
    lo=numbers(st.floats(0.0, 400.0)),
    hi=numbers(st.floats(0.0, 400.0)),
    freq=numbers(st.floats(0.0, 400.0)),
    p_pa_out=st.sampled_from([None, "-5", "0", "10"]),
    strict=st.booleans(),
)
def test_breakdown_with_any_model_numbers_keeps_the_contract(workdir, kind, a, b, lo, hi, freq,
                                                             p_pa_out, strict):
    doc = json.loads((workdir / f"{kind}.json").read_text())
    doc.update(a=a, b=b, valid_lo_ghz=lo, valid_hi_ghz=hi)
    (workdir / "fuzzed.json").write_text(json.dumps(doc))
    models = {k: workdir / ("fuzzed.json" if k == kind else f"{k}.json") for k in SURVEYS}
    argv = ["breakdown", "--pa-model", str(models["PA"]), "--osc-model", str(models["OSC"]),
            "--mixer-model", str(models["MIXER"]), f"--freq={freq!r}", "--p-mixer-out=-5"]
    if p_pa_out is not None:
        argv.append(f"--p-pa-out={p_pa_out}")
    if strict:
        argv.append("--strict")
    run(argv)


@st.composite
def surveys(draw):
    """(kind, CSV text): rows whose frequencies cluster, within a few ulps, around one base.
    The second row's label may open an unclosed quote or pass the csv module's field limit."""
    kind = draw(st.sampled_from(sorted(SURVEYS)))
    base = draw(numbers(st.floats(0.5, 1000.0)))
    odd = draw(st.sampled_from(["", '"', "x" * 131_072]))
    lines = ["block,frequency_ghz,metric,label"]
    for i in range(draw(st.integers(1, 6))):
        f = draw(st.one_of(st.just(base), numbers(st.floats(0.5, 1000.0))))
        for _ in range(draw(st.integers(0, 2))):
            f = math.nextafter(f, math.inf)
        metric = draw(st.one_of(st.floats(0.0, min(METRIC_MAX[kind], 1e6), exclude_min=True),
                                st.floats(min_value=0.0, max_value=METRIC_MAX[kind],
                                          exclude_min=True)))
        lines.append(f"{kind},{f!r},{metric!r},{odd if i == 1 else ''}r{i}")
    return kind, "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(
    survey=surveys(),
    strategy=st.sampled_from(["pareto-upper", "binned-max"]),
    bins=st.one_of(st.integers(1, 8), st.integers(-2, 10**400)),
)
def test_fit_of_any_survey_keeps_the_contract(workdir, survey, strategy, bins):
    kind, text = survey
    (workdir / "survey.csv").write_text(text)
    argv = ["fit", str(workdir / "survey.csv"), "--block", kind, "--strategy", strategy,
            "--out", str(workdir / "fitted.json")]
    if strategy == "binned-max":
        argv.append(f"--bins={bins}")
    run(argv)


@st.composite
def fuzzed_models(draw):
    """(models by kind, range lo, range hi): one model document with drawn numbers.

    Its (a, b) are arbitrary, or put the figure of merit on its physical
    bound at a frequency inside [lo, hi], so that the range crosses it."""
    kind = draw(st.sampled_from(sorted(SURVEYS)))
    lo, hi = draw(numbers(st.floats(0.0, 400.0))), draw(numbers(st.floats(0.0, 400.0)))
    a, b = draw(numbers(st.floats(0.0, 200.0))), draw(numbers(st.floats(-3.0, 6.0)))
    if draw(st.booleans()) and math.isfinite(lo) and math.isfinite(hi):
        b = draw(st.floats(-0.5, 0.5).filter(bool))
        cross = draw(st.floats(min(lo, hi), max(lo, hi)))
        a = math.exp(min(709.0, math.log(min(METRIC_MAX[kind], sys.float_info.max)) - b * cross))
    span = [draw(numbers(st.floats(0.0, 400.0))) for _ in range(2)]
    return kind, dict(a=a, b=b, valid_lo_ghz=span[0], valid_hi_ghz=span[1]), lo, hi


def fuzzed_model_flags(workdir, kind, numbers_):
    doc = json.loads((workdir / f"{kind}.json").read_text())
    doc.update(numbers_)
    (workdir / "fuzzed.json").write_text(json.dumps(doc))
    models = {k: workdir / ("fuzzed.json" if k == kind else f"{k}.json") for k in SURVEYS}
    return ["--pa-model", str(models["PA"]), "--osc-model", str(models["OSC"]),
            "--mixer-model", str(models["MIXER"])]


@settings(max_examples=250, deadline=None)
@given(
    model=fuzzed_models(),
    n=st.integers(-2, 64),
    freqs=st.one_of(st.none(), st.lists(numbers(st.floats(0.0, 400.0)), max_size=5)),
    levels=st.sampled_from([None, "-15,-5", "-5"]),
    p_pa_out=st.sampled_from([None, "-5", "0", "10"]),
    strict=st.booleans(),
)
def test_sweep_with_any_model_numbers_keeps_the_contract(workdir, model, n, freqs, levels,
                                                         p_pa_out, strict):
    kind, numbers_, lo, hi = model
    argv = ["sweep", *fuzzed_model_flags(workdir, kind, numbers_), "--out",
            str(workdir / "sweep.csv")]
    if freqs is None:
        argv.append(f"--range={lo!r}:{hi!r}:{n}")
    else:
        argv.append("--freqs=" + ",".join(map(repr, freqs)))
    argv.append("--p-mixer-out=-5" if levels is None else f"--levels={levels}")
    if p_pa_out is not None:
        argv.append(f"--p-pa-out={p_pa_out}")
    if strict:
        argv.append("--strict")
    run(argv)


@settings(max_examples=250, deadline=None)
@given(
    model=fuzzed_models(),
    n_grid=st.one_of(st.none(), st.integers(-2, 64)),
    p_pa_out=st.sampled_from([None, "-5", "0", "10"]),
    allow=st.booleans(),
)
def test_recommend_with_any_model_numbers_keeps_the_contract(workdir, model, n_grid, p_pa_out,
                                                             allow):
    kind, numbers_, lo, hi = model
    argv = ["recommend", *fuzzed_model_flags(workdir, kind, numbers_), f"--range={lo!r}:{hi!r}",
            "--p-mixer-out=-5"]
    if n_grid is not None:
        argv.append(f"--n-grid={n_grid}")
    if p_pa_out is not None:
        argv.append(f"--p-pa-out={p_pa_out}")
    if allow:
        argv.append("--allow-extrapolation")
    run(argv)


SCENARIO = ["--p-if", "--p-mixer-out", "--p-pa-out", "--p-osc-rf"]
MODEL_FLAGS = ["--pa-model", "PA.json", "--osc-model", "OSC.json", "--mixer-model", "MIXER.json"]
# One well-formed call per subcommand, which a drawn argv edits, and the subcommand's flags.
CALLS = {
    "fit": (["PA.csv", "--block", "PA", "--out", "out.json"],
            ["--block", "--strategy", "--bins", "--out"]),
    "breakdown": ([*MODEL_FLAGS, "--freq", "300", "--p-mixer-out", "-1e1", "--strict"],
                  [*MODEL_FLAGS[::2], "--freq", *SCENARIO, "--out-csv", "--out-json", "--strict"]),
    "sweep": ([*MODEL_FLAGS, "--range", "20:140:9", "--p-mixer-out", "-1e1", "--out", "out.csv"],
              [*MODEL_FLAGS[::2], "--freqs", "--range", *SCENARIO, "--levels", "--out",
               "--strict"]),
    "recommend": ([*MODEL_FLAGS, "--range", "20:140", "--p-mixer-out", "-1e1"],
                  [*MODEL_FLAGS[::2], "--range", "--n-grid", "--allow-extrapolation", *SCENARIO]),
    "validate-examples": ([], ["--data-dir"]),
}
FLAGS = sorted({"-h", "--help", "--version", *(f for _, flags in CALLS.values() for f in flags)})
# 300 GHz lies past the bundle's spans, so a breakdown there extrapolates.
VALUES = st.sampled_from([
    "-1e1", "-.5", "1e309", "nan", "-15,-10", "20:140", "20:140:9", "300", "PA", "OSC", "MIXER",
    "pareto-upper", "binned-max", "PA.json", "OSC.json", "MIXER.json", "PA.csv", "OSC.csv",
    "MIXER.csv", "", "x", "-", "-x", "--x", "=", ".", "out.csv", "missing/out.csv"])
TOKENS = st.one_of(VALUES, st.sampled_from([*CALLS, *FLAGS, "--"]))


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """The bundle's surveys and their fitted models, as KIND.csv and KIND.json."""
    root = tmp_path_factory.mktemp("argv")
    for kind, survey in SURVEYS.items():
        shutil.copy(survey, root / f"{kind}.csv")
        assert run(["fit", str(survey), "--block", kind, "--out", str(root / f"{kind}.json")]) == 0
    return sorted(root.glob("*.csv")) + sorted(root.glob("*.json"))


@st.composite
def argvs(draw):
    """A subcommand, bare or as a well-formed call, with tokens replaced, then its own flags
    with values, and any tokens, appended."""
    command = draw(st.sampled_from(sorted(CALLS)))
    call, flags = CALLS[command]
    argv = [command, *draw(st.sampled_from([call, call, []]))]
    for i, tok in draw(st.lists(st.tuples(st.integers(0, 40), TOKENS), max_size=1)):
        if i < len(argv):
            argv[i] = tok
    own = st.sampled_from(flags + ["--help"])
    parts = st.one_of(st.tuples(own, VALUES).map(list),
                      st.builds("{}={}".format, own, VALUES).map(lambda tok: [tok]),
                      own.map(lambda tok: [tok]),
                      TOKENS.map(lambda tok: [tok]))
    return argv + [tok for part in draw(st.lists(parts, max_size=3)) for tok in part]


@settings(max_examples=400, deadline=None)
@given(argv=argvs())
def test_any_argv_keeps_the_contract(argv_files, argv):
    # Each call runs in a fresh directory: every file it names or writes is there.
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        for path in argv_files:
            shutil.copy(path, root)
        os.chdir(root)
        try:
            run(argv)
        finally:
            os.chdir(cwd)

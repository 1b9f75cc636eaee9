"""Independent checks of the program's outputs.

Nothing here imports the program. Block powers are recomputed with plain
floats from the model JSON's ``a`` and ``b`` and compared at a relative
tolerance, not byte for byte, so a kernel that differs from today's in
the last ulp still passes. Fits are re-derived from the survey CSV with
a separate frontier and least-squares implementation. A recommendation
passes when it is admissible and no worse than the best admissible node
of the documented 512-point grid, so an exact recommender passes too.

Every check returns ``None`` when the output is right and a one-line
reason when it is not.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

REL_TOL = 1e-12  # breakdown and sweep values
FIT_TOL = 1e-9  # fitted coefficients and R^2 (numpy versus math.fsum sums)
RECOMMEND_SLACK = 1e-9
GRID_POINTS = 512
BLOCKS = ("PA", "OSC", "MIXER")
CSV_HEADER = ["frequency_ghz", "pa_mw", "osc_mw", "mixer_mw", "total_mw",
              "pa_frac", "osc_frac", "mixer_frac", "extrapolated_blocks"]
_VALUE_COLUMNS = CSV_HEADER[1:8]
# Physical range of each figure of merit: (exclusive low, inclusive high).
_PHYSICAL = {"PA": (0.0, 100.0), "OSC": (0.0, 1.0), "MIXER": (0.0, math.inf)}


@dataclass(frozen=True)
class Fit:
    """y(f) = a * exp(b * f) with its closed validity span [lo, hi]."""

    a: float
    b: float
    lo: float
    hi: float

    def value(self, f: float) -> float:
        return self.a * math.exp(self.b * f)

    def extrapolated(self, f: float) -> bool:
        return f < self.lo or f > self.hi


def read_fit(path: Path) -> Fit:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return Fit(doc["a"], doc["b"], doc["valid_lo_ghz"], doc["valid_hi_ghz"])


def mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def breakdown(fits: dict, f: float, p_if: float, p_mixer_out: float,
              p_pa_out: float | None, p_osc_rf: float) -> dict | None:
    """The chain breakdown at one point, or None if a figure of merit is unphysical."""
    used = BLOCKS if p_pa_out is not None else BLOCKS[1:]
    fom = {k: fits[k].value(f) for k in used}
    if any(not (_PHYSICAL[k][0] < fom[k] <= _PHYSICAL[k][1]) for k in used):
        return None
    pa = 0.0 if p_pa_out is None else (mw(p_pa_out) - mw(p_mixer_out)) / (0.01 * fom["PA"])
    osc = mw(p_osc_rf) / fom["OSC"]
    mixer = mw(p_mixer_out) / mw(p_if) / fom["MIXER"]
    total = pa + osc + mixer
    return {"frequency_ghz": f, "pa_mw": pa, "osc_mw": osc, "mixer_mw": mixer,
            "total_mw": total, "pa_frac": pa / total, "osc_frac": osc / total,
            "mixer_frac": mixer / total,
            "extrapolated_blocks": [k for k in used if fits[k].extrapolated(f)]}


def _close(x: float, y: float) -> bool:
    return x == y or math.isclose(x, y, rel_tol=REL_TOL, abs_tol=0.0)


def _row_problem(expected: dict, got: dict) -> str | None:
    for col in ("frequency_ghz",) + tuple(_VALUE_COLUMNS):
        if not _close(float(got[col]), expected[col]):
            return f"{col} = {got[col]} at {expected['frequency_ghz']} GHz, expected {expected[col]!r}"
    if list(got["extrapolated_blocks"]) != expected["extrapolated_blocks"]:
        return (f"extrapolated_blocks = {got['extrapolated_blocks']} at "
                f"{expected['frequency_ghz']} GHz, expected {expected['extrapolated_blocks']}")
    return None


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """The documented uniform grid: n points from lo to hi, both ends exact."""
    step = (hi - lo) / (n - 1)
    return [hi if i == n - 1 else lo + i * step for i in range(n)]


def _pa_out(point: dict, level: float) -> float | None:
    # The CLI treats a PA output equal to the mixer output as "no PA".
    p = point.get("p_pa_out")
    return None if p is None or p == level else p


def sweep_csv_problem(text: str, fits: dict, freqs: list[float], levels: list[float],
                      point: dict) -> tuple[str | None, bool]:
    """Check a sweep CSV row by row; returns (problem, any row extrapolated)."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_HEADER:
        return f"CSV header is {rows[0] if rows else None}", False
    if len(rows) - 1 != len(levels) * len(freqs):
        return f"{len(rows) - 1} CSV rows, expected {len(levels) * len(freqs)}", False
    any_ex = False
    it = iter(rows[1:])
    for level in levels:
        p_pa = _pa_out(point, level)
        for f in freqs:
            row = next(it)
            exp = breakdown(fits, f, point["p_if"], level, p_pa, point["p_osc_rf"])
            if exp is None:
                return f"a figure of merit is unphysical at {f} GHz, yet a row was written", any_ex
            got = dict(zip(CSV_HEADER, row))
            got["extrapolated_blocks"] = got["extrapolated_blocks"].split(";") if row[8] else []
            problem = _row_problem(exp, got)
            if problem:
                return f"level {level} dBm: {problem}", any_ex
            any_ex = any_ex or bool(exp["extrapolated_blocks"])
    return None, any_ex


def breakdown_json_problem(doc: dict, expected: dict, point: dict) -> str | None:
    cfg = doc.get("config", {})
    echo = {"frequency_ghz": expected["frequency_ghz"], "p_if_in_dbm": point["p_if"],
            "p_mixer_out_dbm": point["p_mixer_out"], "p_pa_out_dbm": point["p_pa_out"],
            "p_osc_rf_dbm": point["p_osc_rf"]}
    if cfg != echo:
        return f"config echo {cfg}, expected {echo}"
    got = {k: doc.get(k) for k in CSV_HEADER}
    got["frequency_ghz"] = cfg["frequency_ghz"]
    return _row_problem(expected, got)


# --- fits -----------------------------------------------------------------


def survey_points(text: str) -> list[tuple[float, float]]:
    """(frequency, metric) of every data row of a well-formed survey CSV."""
    points, header_seen = [], False
    for row in csv.reader(io.StringIO(text)):
        if not row or row[0].lstrip().startswith("#") or all(not c.strip() for c in row):
            continue
        if header_seen:
            points.append((float(row[1]), float(row[2])))
        header_seen = True
    return points


def pareto_upper(points: list) -> list[int]:
    """Indices of records no other record beats in both frequency and metric."""
    best_at: dict[float, float] = {}
    for f, m in points:
        best_at[f] = max(best_at.get(f, -math.inf), m)
    best_above, running = {}, -math.inf
    for f in sorted(best_at, reverse=True):
        best_above[f] = running
        running = max(running, best_at[f])
    kept, taken = [], set()
    for i, (f, m) in enumerate(points):
        if m == best_at[f] and m > best_above[f] and f not in taken:
            kept.append(i)  # exact ties keep the first record in input order
            taken.add(f)
    return kept


def binned_max(points: list, bins: int) -> list[int]:
    """Indices of the first maximum-metric record of each log-spaced bin."""
    f_lo = min(f for f, _ in points)
    f_hi = max(f for f, _ in points)
    span = math.log10(f_hi) - math.log10(f_lo)
    best: dict[int, int] = {}
    for i, (f, m) in enumerate(points):
        k = 0 if span == 0 else min(bins - 1, int(bins * (math.log10(f) - math.log10(f_lo)) / span))
        if k not in best or m > points[best[k]][1]:
            best[k] = i
    return sorted(best.values())


def _r2(obs: list[float], pred: list[float]) -> float:
    mean = math.fsum(obs) / len(obs)
    ss_tot = math.fsum((o - mean) ** 2 for o in obs)
    return 1.0 - math.fsum((o - p) ** 2 for o, p in zip(obs, pred)) / ss_tot


def expected_fit(survey_text: str, strategy: str) -> dict:
    """The model document fields a correct fit of this survey must carry."""
    points = survey_points(survey_text)
    if strategy == "pareto-upper":
        kept = [points[i] for i in pareto_upper(points)]
    else:
        kept = [points[i] for i in binned_max(points, int(strategy.split(":")[1]))]
    fs = [f for f, _ in kept]
    ys = [math.log(m) for _, m in kept]
    f_mean, y_mean = math.fsum(fs) / len(fs), math.fsum(ys) / len(ys)
    b = (math.fsum((f - f_mean) * (y - y_mean) for f, y in zip(fs, ys))
         / math.fsum((f - f_mean) ** 2 for f in fs))
    ln_a = y_mean - b * f_mean
    log_pred = [ln_a + b * f for f in fs]
    return {"a": math.exp(ln_a), "b": b, "valid_lo_ghz": min(fs), "valid_hi_ghz": max(fs),
            "n_points": len(kept), "strategy": strategy,
            "r2_log": _r2(ys, log_pred),
            "r2_linear": _r2([m for _, m in kept], [math.exp(p) for p in log_pred])}


def fit_problem(doc: dict, expected: dict, block: str) -> str | None:
    for key in ("n_points", "strategy", "valid_lo_ghz", "valid_hi_ghz"):
        if doc.get(key) != expected[key]:
            return f"{key} = {doc.get(key)!r}, expected {expected[key]!r}"
    if doc.get("block") != block:
        return f"block = {doc.get('block')!r}, expected {block!r}"
    for key in ("a", "b"):
        if not math.isclose(doc[key], expected[key], rel_tol=FIT_TOL, abs_tol=1e-15):
            return f"{key} = {doc[key]!r}, expected {expected[key]!r}"
    for key in ("r2_log", "r2_linear"):
        if abs(doc[key] - expected[key]) > FIT_TOL:
            return f"{key} = {doc[key]!r}, expected {expected[key]!r}"
    return None


# --- recommendations ------------------------------------------------------


def _admissible(fits: dict, point: dict, f: float, allow: bool) -> dict | None:
    bd = breakdown(fits, f, point["p_if"], point["p_mixer_out"], point["p_pa_out"],
                   point["p_osc_rf"])
    if bd is None or (bd["extrapolated_blocks"] and not allow):
        return None
    return bd


def grid_minimum(fits: dict, point: dict, lo: float, hi: float, allow: bool) -> float:
    """Least total over the admissible nodes of the 512-point grid (inf if none)."""
    best = math.inf
    for f in linspace(lo, hi, GRID_POINTS):
        bd = _admissible(fits, point, f, allow)
        if bd is not None and bd["total_mw"] < best:
            best = bd["total_mw"]
    return best


def recommendation_problem(fits: dict, call: dict, result: dict, best: float) -> str | None:
    """Check one library recommend_frequency outcome against the grid minimum."""
    status = result["status"]
    if status == "refused":
        return None if best == math.inf else f"refused, but the grid minimum is {best!r} mW"
    if status != "ok":
        return f"{result['type']}: {result['msg']}"
    f = result["f"]
    if not call["lo"] <= f <= call["hi"]:
        return f"recommended {f} GHz outside [{call['lo']}, {call['hi']}]"
    bd = _admissible(fits, call, f, call["allow"])
    if bd is None:
        return f"recommended {f} GHz is not admissible"
    for key, col in (("pa", "pa_mw"), ("osc", "osc_mw"), ("mixer", "mixer_mw"), ("total", "total_mw")):
        if not _close(result[key], bd[col]):
            return f"{col} = {result[key]!r} at {f} GHz, expected {bd[col]!r}"
    if result["extrapolated"] != bool(bd["extrapolated_blocks"]):
        return f"extrapolation flag {result['extrapolated']} at {f} GHz"
    if result["total"] > best * (1.0 + RECOMMEND_SLACK):
        return f"total {result['total']!r} mW exceeds the grid minimum {best!r} mW"
    return None


# --- CLI invocations ------------------------------------------------------


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest_problem(out: Path, cwd: Path) -> str | None:
    """The sidecar exists and its input digests match the input files."""
    sidecar = Path(str(out) + ".manifest.json")
    try:
        doc = json.loads(sidecar.read_text(encoding="utf-8"))
        missing = {"command", "parameters", "input_digests", "tool_version", "timestamp"} - set(doc)
        if missing:
            return f"manifest of {out.name} lacks {sorted(missing)}"
        for path, digest in doc["input_digests"].items():
            if _sha256((cwd / path).read_bytes()) != digest:
                return f"manifest of {out.name}: wrong digest for {path}"
    except (OSError, ValueError) as exc:
        return f"manifest of {out.name}: {exc}"
    return None


def output_digest(out: Path) -> str:
    """Digest of a result file and of its manifest without the timestamp."""
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text(encoding="utf-8"))
    manifest.pop("timestamp", None)
    return _sha256(out.read_bytes()) + _sha256(json.dumps(manifest, sort_keys=True).encode())


class CliChecker:
    """Checks CLI invocations of one work directory against the model JSONs."""

    def __init__(self, cwd: Path, files: dict):
        self.cwd = cwd
        self.files = files
        self.fits = {k: read_fit(cwd / name) for k, name in
                     (("PA", "pa.json"), ("OSC", "osc.json"), ("MIXER", "mix.json"))}
        self.first_digests: dict[str, list[str]] = {}
        self._cache: dict[str, object] = {}

    def _once(self, key: str, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def check(self, op: dict, code: int, stdout: str, stderr: str) -> tuple[str | None, int]:
        """(problem, CSV rows written) for one finished invocation."""
        if code != op["exit"]:
            return f"exit code {code}, expected {op['exit']}: {stderr.strip()[:200]}", 0
        err_lines = stderr.splitlines()
        if "Traceback" in stderr:
            return "traceback on stderr", 0
        outs = [self.cwd / name for name in op["outputs"]]
        for out in outs:
            problem = manifest_problem(out, self.cwd)
            if problem:
                return problem, 0
        digests = [output_digest(out) for out in outs]
        repeat = op["name"] in self.first_digests
        if repeat and digests != self.first_digests[op["name"]]:
            return "result files differ from the first pass", 0
        problem, rows, warned = getattr(self, "_" + op["kind"])(op, stdout, stderr, outs, repeat)
        if problem is None and len(err_lines) != (1 if warned or op["exit"] else 0):
            problem = f"{len(err_lines)} stderr lines, expected {1 if warned or op['exit'] else 0}"
        if problem is None:
            self.first_digests[op["name"]] = digests
        return problem, rows

    # Each returns (problem, CSV rows written, whether a warning line is due).
    # ``repeat`` means the files are byte-identical to a pass already checked.

    def _fit(self, op, stdout, stderr, outs, repeat):
        if repeat:
            return None, 0, False
        exp = self._once(op["name"], lambda: expected_fit(self.files[op["survey"]], op["strategy"]))
        doc = json.loads(outs[0].read_text(encoding="utf-8"))
        return fit_problem(doc, exp, op["block"]), 0, False

    def _breakdown(self, op, stdout, stderr, outs, repeat):
        p = op["point"]
        exp = breakdown(self.fits, op["freq"], p["p_if"], p["p_mixer_out"], p["p_pa_out"],
                        p["p_osc_rf"])
        if exp is None:
            return f"a figure of merit is unphysical at {op['freq']} GHz, yet the call succeeded", 0, False
        warned = bool(exp["extrapolated_blocks"])
        if op["exit"] == 3 and not warned:
            return "strict breakdown expected extrapolation", 0, warned
        if not outs:
            return None, 0, warned
        if repeat:
            return None, 1, warned
        problem, _ = sweep_csv_problem(outs[0].read_text(encoding="utf-8"), self.fits,
                                       [op["freq"]], [p["p_mixer_out"]], p)
        problem = problem or breakdown_json_problem(
            json.loads(outs[1].read_text(encoding="utf-8")), exp, p)
        return problem, 1, warned

    def _sweep(self, op, stdout, stderr, outs, repeat):
        freqs = op.get("freqs") or linspace(*op["grid"])
        rows = len(freqs) * len(op["levels"])
        if repeat:
            return None, rows, self._cache[op["name"]]
        problem, warned = sweep_csv_problem(outs[0].read_text(encoding="utf-8"), self.fits,
                                            freqs, op["levels"], op["point"])
        self._cache[op["name"]] = warned
        return problem, rows, warned

    def _recommend(self, op, stdout, stderr, outs, repeat):
        p = op["point"]
        best = self._once(op["name"], lambda: grid_minimum(self.fits, p, op["lo"], op["hi"], False))
        if op["exit"] == 3:
            return (None if best == math.inf else f"refused, grid minimum {best!r} mW"), 0, False
        lines = stdout.splitlines()
        try:
            f = float(lines[0].split(":")[1].split()[0])
            total = float(next(ln for ln in lines if ln.split()[:1] == ["total"]).split()[1])
        except (IndexError, ValueError, StopIteration):
            return f"unreadable recommendation: {stdout[:200]!r}", 0, False
        # stdout carries 6 significant digits of f and 6 decimals of the total.
        slack = 1e-5 * f
        if not (op["lo"] - slack <= f <= op["hi"] + slack):
            return f"recommended {f} GHz outside the range", 0, False
        used = BLOCKS if p["p_pa_out"] is not None else BLOCKS[1:]
        if any(f < self.fits[k].lo - slack or f > self.fits[k].hi + slack for k in used):
            return f"recommended {f} GHz outside a validity span", 0, False
        if total > best * (1.0 + RECOMMEND_SLACK) + 5e-7:
            return f"total {total} mW exceeds the grid minimum {best!r} mW", 0, False
        return None, 0, False

    def _validate(self, op, stdout, stderr, outs, repeat):
        lines = stdout.splitlines()
        if not lines or not (lines[-1].startswith("all ") and lines[-1].endswith("checks passed")):
            return f"validate-examples printed {lines[-1:]}", 0, False
        if any(ln.startswith("[FAIL]") for ln in lines):
            return "validate-examples reported a failed check", 0, False
        return None, 0, False

    def _malformed(self, op, stdout, stderr, outs, repeat):
        if f"row {op['bad_line']}:" not in stderr:
            return f"error does not name row {op['bad_line']} ({op['defect']}): {stderr.strip()}", 0, False
        return None, 0, False

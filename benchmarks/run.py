"""Benchmark of the wnocpower toolkit: one workload per run.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (each a closed loop with one client, one operation at a time):

- ``cli-session``: passes over a seeded script of cold
  ``python -m wnocpower.cli`` invocations (fit with both frontiers,
  breakdown with CSV and JSON output, a strict breakdown that must exit 3,
  the README sweep, recommend inside and outside the spans,
  validate-examples, and a malformed survey that must exit 2). Interpreter
  start and import dominate each call.
- ``dense-sweep``: passes of three cold ``sweep --range`` invocations of
  20,000 rows each, with and without a PA, over grids crossing the mixer
  span end at 140 GHz. Per-point chain cost and CSV output dominate.
- ``recommend-scan``: batches of 64 in-process ``recommend_frequency``
  calls on fresh seeded operating points and ranges (inside the spans,
  crossing a span end, outside every span, and with extrapolation
  allowed), on the shipped bundle and on seeded fits whose totals have
  interior minima.

The program runs from ``src`` (``PYTHONPATH=src``); nothing is installed.
Set-up (fitting the models the loop needs, with the program) is timed
``SETUP_REPEATS`` times and reported as the median. Every output is
checked by ``oracle.py``; a wrong or unexpected outcome counts as failed.

Pass and operation times are divided by the time of a fixed reference
loop run on the same core around and during each operation
(``reference.py``), which cancels the shared host's drifting speed. The
end-to-end timing metrics are in these reference units ("ref"); the
report gives the same figures in seconds, as measured.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run (see
``tracing.py``), whose first half runs untraced to measure the tracing
overhead. The line before it is a JSON report with provenance, the
failed share and details; both go to ``.bench_out/<workload>/report.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
import oracle
import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("cli-session", "dense-sweep", "recommend-scan")
SETUP_REPEATS = 5
PROBE_REPEATS = 7
OP_TIMEOUT_S = 120.0
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, failed set-up)."""


class Session:
    """Outcome of one pass: latencies, wall time, rows and failures.

    ``refs`` holds the reference time next to each operation, and
    ``wall_ref`` the pass's wall time in reference units.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.refs: list[float] = []
        self.wall = 0.0
        self.wall_ref = 0.0
        self.peak_rss_kib = 0
        self.rows = 0
        self.refused = 0
        self.failures: list[str] = []

    def add(self, name: str, seconds: float, ref: float, problem: str | None, rows: int,
            refused: bool):
        self.latencies.append(seconds)
        self.refs.append(ref)
        self.rows += rows
        self.refused += refused and problem is None
        if problem:
            self.failures.append(f"{name}: {problem}")


def _write_files(directory: Path, files: dict) -> None:
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# --- workloads ------------------------------------------------------------


class CliWorkload:
    """cli-session and dense-sweep: cold CLI invocations in a work directory."""

    def __init__(self, name: str, seed: int, work: Path, results: Path, tiny: bool, trace: bool):
        make = inputs.cli_session if name == "cli-session" else inputs.dense_sweep
        self.files, self.ops = make(seed, tiny)
        self.work, self.results, self.tiny, self.seed = work, results, tiny, seed
        _write_files(work, self.files)
        self.launcher = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")], env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.checker: oracle.CliChecker | None = None
        self.aggregates: dict = {}
        self.n_traced = 0

    def invoke(self, argv: list[str], spans: Path | None = None):
        """Run one CLI call: (exit code, stdout, stderr, seconds, reference seconds,
        peak RSS in KiB)."""
        if spans is None:
            cmd = [sys.executable, "-m", "wnocpower.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans), json.dumps([argv])]
        out, err = self.work / ".stdout", self.work / ".stderr"
        self.launcher.stdin.write(json.dumps({"argv": cmd, "cwd": str(self.work), "stdout": str(out),
                                              "stderr": str(err), "timeout": OP_TIMEOUT_S}) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise BenchError("the launcher process exited")
        reply = json.loads(line)
        return (reply["code"], out.read_text(encoding="utf-8"), err.read_text(encoding="utf-8"),
                reply["seconds"], reply["ref_s"], reply["maxrss_kib"])

    def reset(self) -> None:
        for name in inputs.MODEL_JSON.values():
            for path in (self.work / name, self.work / f"{name}.manifest.json"):
                path.unlink(missing_ok=True)

    def setup(self) -> None:
        for argv in inputs.setup_fits(ROOT):
            code, _, err, _, _, _ = self.invoke(argv)
            if code != 0:
                raise BenchError(f"set-up {' '.join(argv)} exited {code}: {err.strip()}")

    def after_setup(self) -> list[str]:
        """Check the set-up fits; returns problems."""
        self.checker = oracle.CliChecker(self.work, self.files)
        problems = []
        for block, csv_name in inputs.BUNDLE_CSV.items():
            text = (ROOT / inputs.EXAMPLES / csv_name).read_text(encoding="utf-8")
            doc = json.loads((self.work / inputs.MODEL_JSON[block]).read_text(encoding="utf-8"))
            problem = oracle.fit_problem(doc, oracle.expected_fit(text, "pareto-upper"), block)
            if problem:
                problems.append(f"set-up fit {block}: {problem}")
        return problems

    def set_tracing(self, on: bool) -> None:
        pass  # each traced invocation runs under traced_cli.py

    def collect_spans(self) -> None:
        pass  # merged after each traced invocation

    def session(self, traced: bool) -> Session:
        s = Session()
        for op in self.ops:
            for name in op["outputs"]:
                (self.work / name).unlink(missing_ok=True)
                (self.work / f"{name}.manifest.json").unlink(missing_ok=True)
            spans = None
            if traced:
                self.n_traced += 1
                spans = self.results / "spans" / f"op-{self.n_traced:05d}-{op['name']}.json"
            code, out, err, seconds, ref, rss_kib = self.invoke(op["argv"], spans)
            problem, rows = self.checker.check(op, code, out, err)
            s.add(op["name"], seconds, ref, problem, rows, op["exit"] != 0)
            s.wall += seconds
            s.wall_ref += seconds / ref
            s.peak_rss_kib = max(s.peak_rss_kib, rss_kib)
            if spans is not None and spans.is_file():
                tracing.merge(self.aggregates, json.loads(spans.read_text())["aggregates"])
        return s

    def close(self) -> None:
        if self.launcher.poll() is None:
            self.launcher.stdin.close()
            self.launcher.wait()
            self.launcher.stdout.close()


class ScanWorkload:
    """recommend-scan: batches of in-process calls in a worker process."""

    def __init__(self, name: str, seed: int, work: Path, results: Path, tiny: bool, trace: bool):
        files, self.models = inputs.scan_models(seed, ROOT, tiny)
        _write_files(work, files)
        self.work, self.results, self.tiny, self.seed = work, results, tiny, seed
        self.trace = trace
        self.proc: subprocess.Popen | None = None
        self.lines: queue.Queue = queue.Queue()
        self.batch_index = 0
        self.fits: dict = {}
        self.spans: dict = {}
        self.aggregates: dict = {}

    def _send(self, cmd: dict) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def _reply(self) -> dict:
        try:
            line = self.lines.get(timeout=OP_TIMEOUT_S)
        except queue.Empty:
            raise BenchError("recommend-scan worker did not answer") from None
        if line is None:
            stderr = (self.work / ".worker-stderr").read_text(encoding="utf-8")
            raise BenchError(f"recommend-scan worker exited: {stderr[-2000:]}")
        return json.loads(line)

    def reset(self) -> None:
        self.close()

    def setup(self) -> None:
        self.lines = queue.Queue()
        with open(self.work / ".worker-stderr", "wb") as stderr:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH / "worker.py"), str(self.work),
                 json.dumps(self.models), "1" if self.trace else "0"],
                cwd=self.work, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=stderr, text=True)

        def pump(stream, sink):
            for line in stream:
                sink.put(line)
            sink.put(None)

        threading.Thread(target=pump, args=(self.proc.stdout, self.lines), daemon=True).start()
        if not self._reply().get("ready"):
            raise BenchError("recommend-scan worker did not get ready")

    def after_setup(self) -> list[str]:
        problems = []
        for name, blocks in self.models.items():
            self.fits[name] = {}
            for block, (survey, strategy) in blocks.items():
                path = self.work / f"{name}-{block}.json"
                self.fits[name][block] = oracle.read_fit(path)
                text = (self.work / survey).read_text(encoding="utf-8")
                doc = json.loads(path.read_text(encoding="utf-8"))
                problem = oracle.fit_problem(doc, oracle.expected_fit(text, strategy), block)
                if problem:
                    problems.append(f"set-up fit {name} {block}: {problem}")
        self.spans = {name: {b: (fit.lo, fit.hi) for b, fit in blocks.items()}
                      for name, blocks in self.fits.items()}
        return problems

    def set_tracing(self, on: bool) -> None:
        self._send({"cmd": "trace", "on": on})

    def session(self, traced: bool) -> Session:
        calls = inputs.scan_batch(self.seed, self.batch_index, self.spans, self.tiny)
        self.batch_index += 1
        reply = self._send({"cmd": "batch", "calls": calls})
        s = Session()
        s.wall = reply["wall"]
        s.wall_ref = reply["wall"] / reply["ref_s"]
        s.peak_rss_kib = reply["peak_rss_kib"]
        for call, seconds, result in zip(calls, reply["latencies"], reply["results"]):
            fits = self.fits[call["models"]]
            best = oracle.grid_minimum(fits, call, call["lo"], call["hi"], call["allow"])
            problem = oracle.recommendation_problem(fits, call, result, best)
            ok = result["status"] == "ok" and problem is None
            s.add(f"recommend-{call['kind']}-{call['models']}", seconds, reply["ref_s"], problem,
                  int(ok), result["status"] == "refused")
        return s

    def collect_spans(self) -> None:
        path = self.results / "spans" / "worker.json"
        self._send({"cmd": "spans", "path": str(path)})
        tracing.merge(self.aggregates, json.loads(path.read_text())["aggregates"])

    def close(self) -> None:
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write(json.dumps({"cmd": "exit"}) + "\n")
                self.proc.stdin.flush()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc = None


# --- metrics --------------------------------------------------------------


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def timing(sessions: list[Session], unit: str) -> tuple[dict, dict]:
    """Pass wall time, throughput and latency, in seconds ("s") or reference units ("ref").

    Returns the metrics, named ``<name>_<unit>``, and the tail's
    percentile and sample count. The tail is taken within each pass, and
    its median over the passes is reported: a run-wide tail would be set
    by the few operations that met the host's busiest moments.
    """
    if unit == "ref":
        walls = [s.wall_ref for s in sessions]
        passes = [[x / r for x, r in zip(s.latencies, s.refs)] for s in sessions]
    else:
        walls = [s.wall for s in sessions]
        passes = [s.latencies for s in sessions]
    latencies = [x for lats in passes for x in lats]
    tails = [_tail(lats) for lats in passes]
    busy = sum(walls)
    metrics = {
        f"wall_{unit}": (statistics.median(walls), unit),
        f"ops_per_{unit}": (len(latencies) / busy, f"1/{unit}"),
        f"op_p50_{unit}": (statistics.median(latencies), unit),
        f"op_tail_{unit}": (statistics.median(t for t, _ in tails), unit),
        f"rows_per_{unit}": (sum(s.rows for s in sessions) / busy, f"1/{unit}"),
    }
    return metrics, {"op_tail_percentile": statistics.median(p for _, p in tails),
                     "op_samples_per_pass": statistics.median(len(lats) for lats in passes),
                     "op_samples": len(latencies)}


def end_to_end(sessions: list[Session], setup_times: list[float]) -> tuple[dict, dict]:
    """The gated metrics (timings in reference units) and the report details.

    The details carry the same timings in seconds, as measured.
    """
    timings, tail = timing(sessions, "ref")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        **timings,
        "peak_rss_mib": (statistics.median(s.peak_rss_kib for s in sessions) / 1024.0, "MiB"),
    }
    return metrics, {**tail, "sessions": len(sessions),
                     "wall_clock": {k: v for k, (v, _) in timing(sessions, "s")[0].items()},
                     "reference_s": statistics.median(r for s in sessions for r in s.refs),
                     "pass_peak_rss_mib": [s.peak_rss_kib / 1024.0 for s in sessions]}


def _sum(aggs: dict, key: str, what: str) -> float:
    """A field (count, total_ns, self_ns) or summed attribute of one aggregate."""
    agg = aggs.get(key)
    if agg is None:
        return 0
    return agg[what] if what in agg else agg["sums"].get(what, 0)


def _quot(key: str, num: str, den: str, scale: float = 1.0):
    """Metric function: num / den of one aggregate, in units of ``scale``."""
    def metric(aggs):
        den_value = _sum(aggs, key, den)
        return _sum(aggs, key, num) / den_value / scale if den_value else None
    return metric


def _frontier_kept_ratio(aggs):
    keys = [k for k in aggs if k.startswith("survey.best_in_class:")]
    n_in = sum(_sum(aggs, k, "n_in") for k in keys)
    return sum(_sum(aggs, k, "n_out") for k in keys) / n_in if n_in else None


def _blocks_calls(aggs):
    return sum(_sum(aggs, f"blocks.{k}_dc_power", "count") for k in ("pa", "osc", "mixer")) or None


US, S = 1e3, 1e9  # nanoseconds per microsecond, per second
LAYER_METRICS = {  # name: (unit, metric function of the merged span aggregates)
    **{f"cli.main_s.{sub}": ("s", _quot(f"cli.main:{sub}", "total_ns", "count", S))
       for sub in ("fit", "breakdown", "sweep", "recommend", "validate-examples")},
    "survey.parse_us_per_row": ("us", _quot("survey.parse_survey_csv", "total_ns", "rows", US)),
    "survey.frontier_s.pareto-upper": (
        "s", _quot("survey.best_in_class:pareto-upper", "total_ns", "count", S)),
    "survey.frontier_s.binned-max": (
        "s", _quot("survey.best_in_class:binned-max", "total_ns", "count", S)),
    "survey.frontier_kept_ratio": ("ratio", _frontier_kept_ratio),
    "survey.digest_s": ("s", _quot("survey.dataset_digest", "total_ns", "count", S)),
    "regression.fit_s": ("s", _quot("regression.fit_exponential", "total_ns", "count", S)),
    "regression.fit_points": ("count", _quot("regression.fit_exponential", "points", "count")),
    "regression.save_model_s": ("s", _quot("regression.save_model", "total_ns", "count", S)),
    "regression.load_model_s": ("s", _quot("regression.load_model", "total_ns", "count", S)),
    "blocks.pa_us": ("us", _quot("blocks.pa_dc_power", "total_ns", "count", US)),
    "blocks.osc_us": ("us", _quot("blocks.osc_dc_power", "total_ns", "count", US)),
    "blocks.mixer_us": ("us", _quot("blocks.mixer_dc_power", "total_ns", "count", US)),
    "blocks.calls": ("count", _blocks_calls),
    "chain.breakdown_us": ("us", _quot("chain.chain_breakdown", "total_ns", "count", US)),
    "chain.breakdown_self_us": ("us", _quot("chain.chain_breakdown", "self_ns", "count", US)),
    "chain.sweep_us_per_point": ("us", _quot("chain.sweep", "total_ns", "points", US)),
    "chain.csv_us_per_row": ("us", _quot("chain.breakdowns_to_csv", "total_ns", "rows", US)),
    "chain.csv_bytes": ("bytes", _quot("chain.breakdowns_to_csv", "bytes", "count")),
    "chain.recommend_s": ("s", _quot("chain.recommend_frequency", "total_ns", "count", S)),
    "chain.recommend_breakdowns_per_call": (
        "count", _quot("chain.recommend_frequency", "n:chain.chain_breakdown", "count")),
    "chain.recommend_admissible_ratio": (
        "ratio", _quot("chain.recommend_frequency", "chain.chain_breakdown.admissible",
                       "n:chain.chain_breakdown")),
    "exampledata.fit_bundle_s": ("s", _quot("exampledata.fit_bundle", "total_ns", "count", S)),
    "exampledata.validate_bundle_s": (
        "s", _quot("exampledata.validate_bundle", "total_ns", "count", S)),
}


def probe_startup() -> dict:
    """Median cold times of a bare interpreter and of importing the CLI module."""
    times: dict[str, list[float]] = {"pass": [], "import wnocpower.cli": []}
    for _ in range(PROBE_REPEATS):
        for code, sink in times.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True,
                           capture_output=True, timeout=OP_TIMEOUT_S)
            sink.append(time.perf_counter() - start)
    bare = statistics.median(times["pass"])
    return {"interpreter": bare, "import": statistics.median(times["import wnocpower.cli"]) - bare}


def coverage_pass(seed: int, work: Path, results: Path, tiny: bool) -> dict:
    """Span aggregates of the cli-session script run in one traced process.

    Layers that a workload's own operations do not reach (recommend-scan
    writes no CSV, dense-sweep fits nothing) are measured here.
    """
    cov = work / "coverage"
    cov.mkdir()
    files, ops = inputs.cli_session(seed, tiny)
    _write_files(cov, files)
    argv_lists = inputs.setup_fits(ROOT) + [op["argv"] for op in ops]
    spans = results / "spans" / "coverage.json"
    proc = subprocess.run([sys.executable, str(BENCH / "traced_cli.py"), str(spans),
                           json.dumps(argv_lists)], cwd=cov, env=child_env(),
                          capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    if not spans.is_file():
        raise BenchError(f"coverage pass failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(spans.read_text())["aggregates"]


def layer_metrics(own: dict, coverage, probes: dict, overhead: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from the workload's spans, else from the coverage pass."""
    metrics = {"cli.interpreter_s": (probes["interpreter"], "s"),
               "cli.import_s": (probes["import"], "s")}
    from_coverage, cov = [], None
    for name, (unit, metric) in LAYER_METRICS.items():
        value = metric(own)
        if value is None:
            cov = coverage() if cov is None else cov
            value = metric(cov)
            from_coverage.append(name)
        if value is None:
            raise BenchError(f"no spans for per-layer metric {name}")
        metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, from_coverage


# --- runs -----------------------------------------------------------------


def run_sessions(wl, seconds: float, traced: bool) -> list[Session]:
    """Whole passes until ``seconds`` have elapsed (at least one)."""
    sessions: list[Session] = []
    deadline = time.perf_counter() + seconds
    while not sessions or time.perf_counter() < deadline:
        sessions.append(wl.session(traced))
    return sessions


def provenance() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy, "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0))}


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    results = OUT / args.workload
    shutil.rmtree(results, ignore_errors=True)
    (results / "spans").mkdir(parents=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    kind = ScanWorkload if args.workload == "recommend-scan" else CliWorkload
    wl = kind(args.workload, args.seed, work, results, args.tiny, bool(args.trace))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            wl.reset()
            start = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - start)
        setup_problems = wl.after_setup()
        if not args.trace:
            sessions = run_sessions(wl, args.seconds, traced=False)
            wl.close()
            metrics, details = end_to_end(sessions, setup_times)
        else:
            wl.set_tracing(False)
            untraced = run_sessions(wl, args.seconds / 2, traced=False)
            wl.set_tracing(True)
            traced = run_sessions(wl, args.seconds / 2, traced=True)
            wl.collect_spans()
            wl.close()
            sessions = untraced + traced
            # Pass times in reference units, back in seconds at the run's
            # median reference time, so that host drift between the two
            # halves does not show as overhead.
            ref_s = statistics.median(r for s in sessions for r in s.refs)
            walls = [statistics.median(s.wall_ref for s in part) * ref_s
                     for part in (untraced, traced)]
            metrics, from_coverage = layer_metrics(
                wl.aggregates, lambda: coverage_pass(args.seed, work, results, args.tiny),
                probe_startup(), walls[1] - walls[0])
            details = {"untraced_wall_s": walls[0], "traced_wall_s": walls[1],
                       "reference_s": ref_s,
                       "untraced_sessions": len(untraced), "traced_sessions": len(traced),
                       "from_coverage_pass": from_coverage}
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(s.latencies) for s in sessions)
    failures = [f for s in sessions for f in s.failures]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, **provenance(),
              "failed_ratio": len(failures) / attempted,
              "refused_as_expected": sum(s.refused for s in sessions),
              "failures": failures[:20], "setup_problems": setup_problems,
              "setup_times_s": setup_times, **details}
    result = {"correct": not failures and not setup_problems, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (results / "report.json").write_text(
        json.dumps({"report": report, "result": result}, indent=2) + "\n", encoding="utf-8")
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (for the self-check)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wnocpower" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src' / 'wnocpower'}", file=sys.stderr)
        return 2
    try:
        report, result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

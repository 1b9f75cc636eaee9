"""Tiny-size self-check of the benchmark.

Usage (from the repository root)::

    python3 benchmarks/selfcheck.py

Runs every workload of BENCHMARK.json once on shrunken inputs
(``--tiny``), untraced and traced, and checks that each run passes its
output checks and that its last line names exactly the declared
end-to-end or per-layer metrics, each with its declared unit and a
finite value. It also checks that the benchmark exits non-zero, without
a result, when the program's source is missing. Exits 1 on any problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> str | None:
    proc = _run(ROOT, workload, trace)
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        return f"result keys {sorted(result)}"
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        report = json.loads(proc.stdout.strip().splitlines()[-2])["report"]
        return f"outputs failed their checks: {report['failures'][:3] or report['setup_problems']}"
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        return f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}"
    bad = [n for n, m in result["metrics"].items() if not math.isfinite(m["value"])]
    return f"non-finite values for {bad}" if bad else None


def check_without_program() -> str | None:
    bare = ROOT / ".bench_out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "benchmarks", bare / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "cli-session", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return f"exit {proc.returncode} with output {proc.stdout.strip()[:200]!r}"
    return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = 0
    checks = [(f"{w['name']} --trace {t}", lambda w=w["name"], t=t: check_run(spec, w, t))
              for w in spec["workloads"] for t in (0, 1)]
    checks.append(("without the program", check_without_program))
    for label, check in checks:
        problem = check()
        print(f"{label}: {problem or 'ok'}")
        problems += problem is not None
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

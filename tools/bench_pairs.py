"""Alternating parent/change pairs of the benchmark, summarised per metric.

Usage (from the repository root)::

    python3 tools/bench_pairs.py --pairs 10 --seeds 101-110 --seconds 30 \
        --workload recommend-scan --out BENCH_6.json [--trace 1]

Each side is a fresh checkout of its files in a temporary directory
(under ``--workdir`` if given), removed at the end:
``--parent REF`` (default ``HEAD``) is extracted with ``git archive``;
``--change REF`` is extracted the same way, and without it the change is
the working tree (tracked and untracked files that are not ignored). No
git worktree is registered, so the repository is left as it was.

Pair i runs ``benchmarks/run.py --workload W --seed S_i --seconds T
--trace X`` once from each checkout, one run at a time, the parent first
on even pairs and the change first on odd ones, so that slow drift of a
shared host does not favour one side. The output JSON holds, per workload
and metric of ``BENCHMARK.json`` (the end-to-end ones with ``--trace 0``,
the default, the per-layer ones with ``--trace 1``), each side's values,
median and quartiles, and how many pairs the change won (ties count for
neither side), plus the seeds, the failed counts and the host facts.
Per-layer metrics have no bound, so theirs is written as null. One pair
has no spread (its quartiles are its value); it checks that the tool and
the benchmark run, and supports no claim.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def checkout(ref: str | None, dest: Path) -> str:
    """Put the files of ``ref`` (the working tree if None) under ``dest``; returns a label."""
    dest.mkdir(parents=True)
    if ref is not None:
        subprocess.run(["tar", "-x", "-C", str(dest)], input=_git("archive", ref), check=True)
        return _git("rev-parse", ref).decode().strip()
    for name in _git("ls-files", "-z", "-c", "-o", "--exclude-standard").decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)
    return "working tree on " + _git("rev-parse", "HEAD").decode().strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree.name} {workload} seed {seed}: exit {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    """The median and quartiles of ``values``; of one value, that value three times."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                      else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarise(runs: dict, metrics: list[dict]) -> dict:
    """Per metric: both sides' quartiles and the change's wins over the pairs."""
    out = {}
    for spec in metrics:
        name, sign = spec["name"], (1 if spec["better"] == "higher" else -1)
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        p, c = quartiles(parent), quartiles(change)
        out[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec.get("bound"),
            "parent": p, "change": c,
            "change_wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
            "median_change_pct": (100.0 * (c["median"] - p["median"]) / p["median"]
                                  if p["median"] else None),
            "median_gap_over_parent_iqr": (abs(c["median"] - p["median"]) / (p["q3"] - p["q1"])
                                           if p["q3"] > p["q1"] else None),
        }
    return out


def host_facts() -> dict:
    model = ""
    try:
        model = next((line.split(":", 1)[1].strip() for line in
                      Path("/proc/cpuinfo").read_text().splitlines()
                      if line.startswith("model name")), "")
    except OSError:
        pass
    return {"platform": platform.platform(), "python": platform.python_version(),
            "cpu_model": model, "cpu_count": os.cpu_count(),
            "load_avg_at_end": list(os.getloadavg()) if hasattr(os, "getloadavg") else None,
            # benchmarks/run.py passes these on to every run, PYTHONDONTWRITEBYTECODE among them
            "python_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("PYTHON")}}


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git ref of the parent side")
    parser.add_argument("--change", default=None, help="git ref of the change side "
                        "(default: the working tree)")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of BENCHMARK.json; repeat for more")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seeds", type=seed_list, required=True,
                        help="comma-separated seeds or LO-HI, one per pair")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: run traced and summarise the per-layer metrics")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, default=None,
                        help="where the two checkouts go, made if missing (default: the "
                        "system temp directory)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("need at least 1 pair")
    if len(args.seeds) != args.pairs:
        parser.error(f"{args.pairs} pairs need {args.pairs} seeds (got {len(args.seeds)})")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    if args.workdir is not None:
        args.workdir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.workdir))
    try:
        trees = {"parent": scratch / "parent", "change": scratch / "change"}
        labels = {"parent": checkout(args.parent, trees["parent"]),
                  "change": checkout(args.change, trees["change"])}
        started = time.time()
        results = {}
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(args.seeds):
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    runs[side].append(run_once(trees[side], workload, seed, args.seconds,
                                               args.trace))
                    print(f"{workload} pair {i + 1}/{args.pairs} seed {seed} {side}: "
                          f"failed {runs[side][-1]['failed']}", file=sys.stderr)
            results[workload] = {
                "failed": {side: [r["failed"] for r in runs[side]] for side in runs},
                "correct": {side: all(r["correct"] for r in runs[side]) for side in runs},
                "metrics": summarise(runs, spec["per_layer" if args.trace else "end_to_end"]),
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    doc = {"parent": labels["parent"], "change": labels["change"], "pairs": args.pairs,
           "seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
           "order": "parent first on even pairs (0-based), change first on odd ones",
           "wall_s": round(time.time() - started, 1), "host": host_facts(),
           "workloads": results}
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-process recommend_frequency worker for the recommend-scan workload.

Usage: python3 benchmarks/worker.py WORKDIR MODELS_JSON TRACE

Set-up: import the program, fit every model set (parse, frontier, fit,
digest, save to ``WORKDIR/<set>-<block>.json``) and print a ``ready``
line. Then serve one JSON command per stdin line, one JSON reply per
stdout line:

- ``{"cmd": "batch", "calls": [...]}`` runs the calls one at a time and
  returns each outcome with its latency, the batch's wall time (the sum
  of the latencies), the median time of the reference loop
  (``reference.py``) before, between calls during, and after the batch,
  and the worker's peak RSS;
- ``{"cmd": "trace", "on": bool}`` switches the wrappers on or off
  (TRACE=1 installs them before set-up);
- ``{"cmd": "spans", "path": ...}`` writes the recorded spans;
- ``{"cmd": "exit"}`` ends the worker.
"""

import json
import resource
import statistics
import sys
import time
from pathlib import Path

import reference
from tracing import Recorder


def _fit_models(wnocpower, workdir: Path, models: dict) -> dict:
    wrappers = {"PA": wnocpower.PaModel, "OSC": wnocpower.OscModel, "MIXER": wnocpower.MixerModel}
    sets = {}
    for name, blocks in models.items():
        sets[name] = {}
        for block, (survey, tag) in blocks.items():
            strategy = (wnocpower.ParetoUpper() if tag == "pareto-upper"
                        else wnocpower.BinnedMax(bins=int(tag.split(":")[1])))
            data = wnocpower.load_survey_csv(workdir / survey)
            model, _ = wnocpower.fit_exponential(
                wnocpower.best_in_class(data, strategy).points(), strategy=strategy.tag)
            wnocpower.save_model(workdir / f"{name}-{block}.json",
                                 wnocpower.BlockKind.from_token(block), model,
                                 wnocpower.dataset_digest(data))
            sets[name][block] = wrappers[block](model)
    return sets


def _run_call(wnocpower, sets: dict, call: dict) -> tuple[float, dict]:
    models = sets[call["models"]]
    with_pa = call["p_pa_out"] is not None
    start = time.perf_counter()
    try:
        cfg = wnocpower.ChainConfig(
            frequency=wnocpower.FrequencyGhz(call["lo"]),
            p_mixer_out=wnocpower.PowerDbm(call["p_mixer_out"]),
            p_if_in=wnocpower.PowerDbm(call["p_if"]),
            p_pa_out=wnocpower.PowerDbm(call["p_pa_out"]) if with_pa else None,
            p_osc_rf=wnocpower.PowerDbm(call["p_osc_rf"]),
        )
        f, bd = wnocpower.recommend_frequency(
            models["PA"] if with_pa else None, models["OSC"], models["MIXER"], cfg,
            wnocpower.FrequencyGhz(call["lo"]), wnocpower.FrequencyGhz(call["hi"]),
            allow_extrapolation=call["allow"])
    except wnocpower.NoAdmissiblePointError as exc:
        return time.perf_counter() - start, {"status": "refused", "msg": str(exc)}
    except ValueError as exc:
        return time.perf_counter() - start, {"status": "error", "type": type(exc).__name__,
                                             "msg": str(exc)}
    seconds = time.perf_counter() - start
    return seconds, {"status": "ok", "f": f.value, "total": bd.total_mw.value,
                     "pa": bd.pa_mw.value, "osc": bd.osc_mw.value, "mixer": bd.mixer_mw.value,
                     "extrapolated": bd.any_extrapolated}


def _run_batch(wnocpower, sets: dict, calls: list[dict]) -> tuple[list, float]:
    """(latency, outcome) of each call, and the median reference time.

    The reference loop runs between calls, outside their timing, once
    ``reference.SAMPLE_PERIOD_S`` has passed since it last ran.
    """
    samples = [reference.seconds()]
    last = time.perf_counter()
    outcomes = []
    for call in calls:
        outcomes.append(_run_call(wnocpower, sets, call))
        if time.perf_counter() - last >= reference.SAMPLE_PERIOD_S:
            samples.append(reference.seconds())
            last = time.perf_counter()
    samples.append(reference.seconds())
    return outcomes, statistics.median(samples)


def _peak_rss_kib() -> int:
    """This process's own peak RSS since it started the program.

    ``getrusage`` would also count the spawning process's peak, which the
    child inherits until it executes; ``VmHWM`` does not.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    workdir, models, trace = Path(sys.argv[1]), json.loads(sys.argv[2]), sys.argv[3] == "1"
    reference.pin()
    import wnocpower

    recorder = Recorder()
    if trace:
        recorder.install()
    sets = _fit_models(wnocpower, workdir, models)
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        cmd = json.loads(line)
        reply: dict = {"ok": True}
        if cmd["cmd"] == "batch":
            outcomes, ref = _run_batch(wnocpower, sets, cmd["calls"])
            reply = {"wall": sum(s for s, _ in outcomes), "ref_s": ref,
                     "latencies": [s for s, _ in outcomes], "results": [r for _, r in outcomes],
                     "peak_rss_kib": _peak_rss_kib()}
        elif cmd["cmd"] == "trace":
            recorder.uninstall()
            if cmd["on"]:
                recorder.install()
        elif cmd["cmd"] == "spans":
            recorder.write(Path(cmd["path"]))
        elif cmd["cmd"] == "exit":
            break
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

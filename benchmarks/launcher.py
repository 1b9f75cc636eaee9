"""Spawns the program's CLI processes and reports their time and memory.

Usage: python3 benchmarks/launcher.py, then one JSON request per stdin
line ``{"argv", "cwd", "stdout", "stderr", "timeout"}``; one JSON reply
per stdout line ``{"code", "seconds", "ref_s", "maxrss_kib"}``. ``ref_s``
is the median time of the reference loop (``reference.py``) just before,
during and just after the call. The launcher pins itself, and so every
call, to one CPU.

The kernel reports a child's peak resident memory as at least the peak of
the process that spawned it, because the child runs in its parent's
address space until it executes the program. The benchmark's own process
grows while it checks large outputs, so it starts this small process
first and spawns every CLI call through it.
"""

import json
import os
import statistics
import subprocess
import sys
import threading
import time

import reference


def _sample(done: threading.Event, samples: list[float]) -> None:
    while not done.wait(reference.SAMPLE_PERIOD_S):
        samples.append(reference.seconds())


def main() -> int:
    reference.pin()
    for line in sys.stdin:
        req = json.loads(line)
        samples = [reference.seconds()]
        done = threading.Event()
        sampler = threading.Thread(target=_sample, args=(done, samples))
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            sampler.start()
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=out, stderr=err)
            watchdog = threading.Timer(req["timeout"], proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
                done.set()
            seconds = time.perf_counter() - start
        sampler.join()
        samples.append(reference.seconds())
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "seconds": seconds,
                          "ref_s": statistics.median(samples),
                          "maxrss_kib": usage.ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run CLI processes one at a time for the timed run and report their cost.

The timed run starts this program once and sends it one JSON request per
line: ``{"argv": [...], "cwd": ..., "log": ...}``. It runs the command to
its end, with stdout discarded and stderr written to ``log``, and answers
with one JSON line: wall seconds from spawn to exit, user+sys CPU seconds
and peak RSS of the child (both from ``os.wait4``), and the exit code.

Why a separate launcher: on Linux a child's ``ru_maxrss`` starts at the
high-water RSS of the process that forked it, so children forked straight
from the benchmark (which holds the check tables, several hundred MB on the
academic workloads) would all report the benchmark's own peak. This process
imports nothing heavy, so what it reports is the child's own peak.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                          "rss_mb": usage.ru_maxrss / 1024, "rc": proc.returncode}),
              flush=True)


if __name__ == "__main__":
    main()

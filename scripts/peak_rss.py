"""Wall time and peak RSS of one ``edulearn`` command at several ``--out``
path lengths.

    python scripts/peak_rss.py train --task academic --solver gd --n 76519 --seed 1 --json

The arguments are one ``python -m edulearn`` command without ``--out``. The
script runs it once per prefix length from 20 to 90 characters in steps of
7, each time with ``--out`` set to a relative prefix of that length inside a
new temporary directory under the current one, which it removes afterwards.
Each command runs on the ``src/`` beside this script, and its wall time and
peak RSS come from ``os.wait4``. It prints one line per length.

Where glibc places a large array can depend on what the process allocated
before it, the argument strings included, so a peak that moves with the
path length is allocator placement, not a change in what the program holds.
A memory change can show with this sweep that its peak does not depend on
the path. The script imports nothing heavy, because a child's ``ru_maxrss``
starts at the high-water RSS of the process that forked it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LENGTHS = range(20, 91, 7)


def main(argv: list[str]) -> int:
    if not argv or "--out" in argv:
        sys.exit("usage: python scripts/peak_rss.py COMMAND [ARGS...] (an edulearn command "
                 "without --out)")
    env = {k: v for k, v in os.environ.items() if k != "EDULEARN_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for length in LENGTHS:
        work = tempfile.mkdtemp(prefix="peak-", dir=".")
        try:
            directory = os.path.relpath(work) + os.sep
            if len(directory) + 1 > length:
                sys.exit(f"temporary directory {directory} leaves no room for a {length}-char prefix")
            prefix = directory + "p" * (length - len(directory) - 1) + "_"
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "edulearn", *argv, "--out", prefix],
                                    env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            shutil.rmtree(work)
        code = os.waitstatus_to_exitcode(status)
        print(f"prefix {length:3d} chars: wall {wall:6.2f} s  peak {usage.ru_maxrss / 1024:7.2f} MB"
              f"  exit {code}", flush=True)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The sha256 of every file the benchmark workloads' commands write.

    python scripts/output_digests.py > digests.txt

For each workload of ``perfbench/workloads.py`` at seed 0 and full size, the
script runs its set-up ``generate`` commands, then one round per set-up
input (one for the academic workloads, one per classroom for
style-classrooms): ``train`` and ``predict``. Each command runs as
``python -m edulearn`` on the ``src/`` beside this script, in a temporary
directory. After each command it prints one line per file the command
wrote: workload, command, file name and sha256. Outputs are byte-
deterministic per seed on one host, so running the script on two
checkouts on the same host and diffing the two outputs shows any change
in what the commands write. It takes about 20 s on a 2-vCPU x86-64 host.

Before the digests it prints one ``#`` line naming the two things on which
the model and prediction bits depend: the core of the OpenBLAS that numpy
bundles (``SkylakeX`` on an AVX-512 x86-64 host; ``unknown`` when numpy's
``numpy.libs`` holds no ``libscipy_openblas64_`` library with
``scipy_openblas_get_corename64_``), and the numpy dispatch targets in
use, those of ``__cpu_dispatch__`` that ``__cpu_features__`` enables. Two
digest files from different hosts then show why they differ.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x, which pyproject.toml admits
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import FULL, WORKLOADS  # noqa: E402

SEED = 0


def run(argv: list[str]) -> None:
    env = {k: v for k, v in os.environ.items() if k != "EDULEARN_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    r = subprocess.run([sys.executable, "-m", "edulearn", *argv], env=env,
                       capture_output=True, text=True)
    if r.returncode != 0:
        sys.exit(f"edulearn {' '.join(argv)} exited {r.returncode}:\n{r.stderr}")


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def openblas_core() -> str:
    """The core name of the OpenBLAS bundled with numpy, or ``unknown``."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return "unknown"


def main() -> None:
    dispatch = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    print(f"# openblas core {openblas_core()}; numpy dispatch {' '.join(dispatch) or 'none'}",
          flush=True)
    for name, cls in WORKLOADS.items():
        with tempfile.TemporaryDirectory(prefix="edulearn-digests-") as work:
            w = cls(SEED, FULL, Path(work), {})

            def command(label: str, argv: list[str], outputs: list[Path]) -> None:
                run(argv)
                for path in outputs:
                    print(f"{name} {label} {path.name} {digest(path)}", flush=True)

            for j in range(w.generates):
                command(f"generate[{j}]", w.generate_argv(j), w.generate_outputs(j))
            for r in range(w.generates):
                command(f"train[{r}]", w.train_argv(r), w.train_outputs())
                command(f"predict[{r}]", w.predict_argv(r), w.predict_outputs())


if __name__ == "__main__":
    main()

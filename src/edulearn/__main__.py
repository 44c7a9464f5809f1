"""The command-line entry point: ``python -m edulearn`` and the ``edulearn``
console script.

BLAS runs on one thread unless the environment sets a thread count, so a
fixed ``--seed`` writes the same bytes on any host and no second core
busy-waits in BLAS. The settings count only if made before numpy loads,
which holds because ``edulearn/__init__.py`` does not import numpy. Library
callers keep numpy's default.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .cli import main  # noqa: E402  (numpy loads here, after the settings)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

"""The command-line entry point: ``python -m edulearn`` and the ``edulearn``
console script.

BLAS runs on one thread unless the environment sets a thread count, so a
fixed ``--seed`` writes bytes that do not depend on the core count (they are
the same on one CPU family, Python minor version, numpy build and OpenBLAS
build) and no second core busy-waits in BLAS. The settings count only if
made before numpy loads, which holds because ``edulearn/__init__.py`` does
not import numpy.

OpenSSL is not loaded. The first ``np.random.default_rng`` imports
``secrets``, whose ``hmac`` import would load ``_hashlib`` and with it
``libcrypto`` (3.3 MB resident), though every edulearn ``Generator`` is
seeded. Marking ``_hashlib`` absent makes ``hashlib`` and ``hmac`` take the
builtin digests and ``_operator._compare_digest`` that CPython keeps for
builds without OpenSSL; ``secrets`` draws from ``os.urandom``, so an
unseeded ``default_rng()`` still works, and no random bit changes.

Library callers keep numpy's default thread count and OpenSSL.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.modules.setdefault("_hashlib", None)

from .cli import main  # noqa: E402  (numpy loads here, after the settings)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

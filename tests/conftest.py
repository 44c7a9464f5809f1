"""Shared helpers for the tests that start ``python -m edulearn`` as a child
process, and the report-schema check every test gets."""

import functools
import json
import os
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

# When a Hypothesis test fails, Hypothesis's pytest plugin imports this
# module to write a patch of the failing example. It imports libcst, which
# raises a DeprecationWarning; under pyproject.toml's error::DeprecationWarning
# filter that ends the session with an INTERNALERROR, and no later test runs.
# Imported once here, with that warning ignored, the module is cached, and a
# DeprecationWarning raised by edulearn itself stays an error.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def cli_env(env_extra=None):
    """Environment for a CLI child process started from any working directory.

    The checkout's ``src/`` goes first on ``PYTHONPATH`` as an absolute path, so
    the child imports this edulearn without an install and whatever its cwd;
    entries already on ``PYTHONPATH`` follow it. ``EDULEARN_SEED`` is dropped
    so an inherited seed cannot change the output, then ``env_extra`` applies;
    a ``None`` value in it removes that variable.
    """
    env = dict(os.environ)
    env.pop("EDULEARN_SEED", None)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), inherited]))
    for name, value in (env_extra or {}).items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


@functools.cache
def report_schema() -> dict:
    """``report_schema.json`` as shipped in the edulearn package."""
    ref = resources.files("edulearn").joinpath("report_schema.json")
    return json.loads(ref.read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def _reports_match_the_schema(request):
    """After each test that uses ``tmp_path``, every ``*report.json`` left
    under it must validate against ``report_schema.json``. The CLI does not
    check its own report, so this is where a schema break shows."""
    if "tmp_path" not in request.fixturenames:
        yield
        return
    tmp_path = request.getfixturevalue("tmp_path")  # set up now, so it is torn down after this
    yield
    for path in sorted(tmp_path.rglob("*report.json")):
        jsonschema.validate(json.loads(path.read_text(encoding="utf-8")), report_schema())

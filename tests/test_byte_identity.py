"""Every digest the benchmark checks, checked in-process on each test run.

``bench/expected.json`` holds the SHA-256 of the stdout of every CLI job
of ``bench/workloads.py`` and the row digest of the ``j-twisted`` library
job.  Here each CLI job runs through ``prymalg.cli.main`` in this
interpreter, and ``j-twisted`` through the functions ``bench/job.py``
runs it with.  The bench modules are compiled from their source text, so
nothing is written under ``bench/``.
"""

import contextlib
import hashlib
import io
import json
import sys
import types
from pathlib import Path

import pytest

from prymalg import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    """Run bench/<name>.py as a module, without writing its bytecode."""
    path = BENCH / (name + ".py")
    module = types.ModuleType("bench_" + name)
    module.__file__ = str(path)
    # dataclasses looks the defining module up in sys.modules
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    finally:
        del sys.modules[module.__name__]
    return module


EXPECTED = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
CLI_JOBS = {
    job.name: job.args
    for jobs in _load("workloads").WORKLOADS.values()
    for job in jobs
    if job.kind == "cli"
}


@pytest.mark.parametrize("name", sorted(CLI_JOBS))
def test_cli_job_stdout_matches_recorded_digest(name):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(CLI_JOBS[name]))
    assert code == 0, err.getvalue()
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == EXPECTED[name]


def test_j_twisted_rows_match_recorded_digest():
    prepare, call, check = _load("job").LIBRARY_JOBS["j-twisted"]
    ok, detail, digest = check(call(prepare(0)))
    assert ok, detail
    assert digest == EXPECTED["j-twisted"]


def test_every_recorded_digest_is_checked():
    assert sorted(EXPECTED) == sorted([*CLI_JOBS, "j-twisted"])

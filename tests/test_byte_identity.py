"""Every digest the benchmark checks, checked in-process on each test run.

``bench/expected.json`` holds the SHA-256 of the stdout of every CLI job
of ``bench/workloads.py`` and the row digest of the ``j-twisted`` library
job.  Here each CLI job runs through ``prymalg.cli.main`` in this
interpreter, and ``j-twisted`` through the functions ``bench/job.py``
runs it with.  The bench modules are compiled from their source text, so
nothing is written under ``bench/``.  The oracle counters the benchmark
reads off ``_oracle_ideal``'s return are checked the same way, with
``bench/instrument.py`` installed in a fresh interpreter, and so is the
presence of every function it wraps.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from prymalg import cli
from prymalg.abelian_group import parse_group_literal
from prymalg.algebra import Variant, _oracle_columns

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


# Compiles bench/instrument.py from its source text, as ``_load`` does.
_LOAD_INSTRUMENT = """
import contextlib, importlib, io, json, pkgutil, sys, types
path, argv = sys.argv[1], sys.argv[2:]
instrument = types.ModuleType("bench_instrument")
with open(path, encoding="utf-8") as fh:
    exec(compile(fh.read(), path, "exec"), vars(instrument))
"""

# Installs the instrument around one CLI run and prints the oracle metrics
# it reports.
_TRACED_RUN = _LOAD_INSTRUMENT + """
import prymalg.cli
tracer = instrument.install(0)
with contextlib.redirect_stdout(io.StringIO()):
    code = prymalg.cli.main(argv)
totals = instrument.Totals()
totals.add(instrument.collect(tracer))
print(json.dumps({"exit": code, "metrics": instrument.evaluate(totals)}))
"""


# Imports every prymalg module, installs the instrument and prints the
# names of the targets it found missing.
_INSTALL_ALL = _LOAD_INSTRUMENT + """
import prymalg
for info in pkgutil.iter_modules(prymalg.__path__):
    importlib.import_module("prymalg." + info.name)
print(json.dumps(sorted(instrument.install(0).absent)))
"""


def _run_with_instrument(script, *argv):
    """stdout of ``script`` as JSON, run in a fresh interpreter on this
    checkout's sources with bench/instrument.py's path and ``argv``."""
    src = str(BENCH.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(BENCH / "instrument.py"), *argv],
        capture_output=True, env=env, timeout=60, check=True,
    )
    return json.loads(proc.stdout)


def test_every_benchmark_target_exists():
    # a renamed or deleted function the benchmark wraps would read as an
    # absent metric, not as a failure
    assert _run_with_instrument(_INSTALL_ALL) == []


def test_oracle_counters_read_the_ideal_that_was_built():
    argv = ["oracle-check", "--max-r", "2", "--max-degree", "6",
            "--groups", "Z1,Z2", "--format", "csv"]
    record = _run_with_instrument(_TRACED_RUN, *argv)
    metrics = record["metrics"]
    assert record["exit"] == 0
    # every cell of the grid reads its ideal; the untwisted variants run on
    # the first group only, and Z1 is the trivial group they share
    groups = [parse_group_literal(g) for g in ("Z1", "Z2")]
    cells = [
        (r, group, d)
        for variant in Variant
        for group in (groups if variant.twisted else groups[:1])
        for r in range(3)
        for d in range(7)
    ]
    assert metrics["oracle.cells"] == len(cells)
    assert metrics["oracle.ideal_misses"] == len(set(cells))
    assert metrics["oracle.columns"] == sum(
        _oracle_columns(r, group.order(), d) for r, group, d in cells
    )
    assert metrics["oracle.rank"] is not None and metrics["oracle.rank"] > 0

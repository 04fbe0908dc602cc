"""The benchmark's own tests.

    python3 -m pytest bench/test_selfcheck.py

Run from the root of a checkout.  ``test_exercise_and_bypass`` makes one
traced run of every workload (about two minutes on two cores) and checks
that each layer's counters are non-zero where its workload exercises it
and exactly zero where the workload bypasses it, as predicted in
``NOTES.md``.  The other tests check the wrappers themselves in a fresh
interpreter, so this process's modules are never patched.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

# metric -> workloads where it must be > 0 and workloads where it must be 0
EXPECTATIONS = {
    "oracle.cells": ({"oracle-grid"}, {"formulas", "enumeration"}),
    "oracle.s": ({"oracle-grid"}, {"formulas", "enumeration"}),
    "oracle.columns": ({"oracle-grid"}, {"formulas", "enumeration"}),
    "oracle.ideal_misses": ({"oracle-grid"}, {"formulas", "enumeration"}),
    "linalg.rows": ({"oracle-grid"}, {"formulas", "enumeration"}),
    "polynomial.ops": ({"formulas"}, {"oracle-grid"}),
    "series.twisted.self_s": ({"formulas"}, {"oracle-grid"}),
    "series.j_factor.calls": ({"formulas"}, {"oracle-grid"}),
    "series.j_twisted.self_s": ({"formulas"}, {"oracle-grid"}),
    "partitions.relabel.calls": ({"enumeration"}, {"oracle-grid", "formulas"}),
    "cli.pool.wait_s": ({"oracle-grid"}, {"formulas", "enumeration", "cli-small"}),
}


def _run(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: _run(w) for w in ("oracle-grid", "formulas", "enumeration", "cli-small")}


def test_exercise_and_bypass(traced):
    for workload, result in traced.items():
        assert result["correct"], (workload, result)
        for name, metric in result["metrics"].items():
            assert not metric.get("absent"), (workload, name)
    for name, (exercised, bypassed) in EXPECTATIONS.items():
        for workload in exercised:
            assert traced[workload]["metrics"][name]["value"] > 0, (name, workload)
        for workload in bypassed:
            assert traced[workload]["metrics"][name]["value"] == 0, (name, workload)


def _in_fresh_interpreter(body):
    script = textwrap.dedent(
        """
        import json, sys
        sys.path.insert(0, %r)
        import prymalg.cli
        import instrument
        """ % BENCH
    ) + textwrap.dedent(body)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_wrappers_reach_every_import_site():
    out = _in_fresh_interpreter(
        """
        from prymalg import algebra, series, symmetry, cli
        tracer = instrument.install("t")
        series.twisted_cohomology_dims(2, 0, level=2, genus=24, max_k=4)
        cli.main(["dims", "--variant", "level-prime", "--r", "2", "--group", "Z3",
                  "--degree", "2", "--format", "csv"])
        symmetry.permutation_character(
            algebra.AlgebraSpec(algebra.Variant.LEVEL_PRIME, 2,
                                prymalg.abelian_group.parse_group_literal("Z3")), 2)
        print(json.dumps(instrument.collect(tracer)["stats"]))
        """
    )
    # reached through series.graded_dimension, cli.graded_dimension,
    # cli._COMMANDS["dims"], symmetry.basis and algebra.relabel
    assert out["algebra.graded_dimension"][0] >= 5 + 1 + 1
    assert out["cli.dims"][0] == 1
    assert out["algebra.basis"][0] == 1
    assert out["partitions.relabel"][0] > 0


def test_missing_names_are_reported_absent():
    out = _in_fresh_interpreter(
        """
        import prymalg.linalg, prymalg.algebra
        del prymalg.linalg.RowReducer
        del prymalg.algebra._oracle_ideal
        tracer = instrument.install("t")
        totals = instrument.Totals()
        totals.add(instrument.collect(tracer))
        print(json.dumps(instrument.evaluate(totals)))
        """
    )
    for name in ("linalg.rows", "linalg.eliminate_s", "oracle.columns",
                 "oracle.ideal_hits", "oracle.duplicate_builds"):
        assert out[name] is None, name
    assert out["oracle.cells"] == 0
    assert out["linalg.rref.s"] == 0

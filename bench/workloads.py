"""The benchmark's workloads: named lists of jobs, each run in a fresh interpreter.

A CLI job is an argv for ``prymalg``; it gets no ``--seed``, so its stdout
does not depend on the workload seed and is checked against a digest
recorded in ``expected.json``.  A library job names a function in
``job.py``; the workload seed chooses only its sampled inputs.

Why each workload exists, and which layers it should and should not
move, is written down in ``NOTES.md``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    name: str
    kind: str  # "cli" or "lib"
    args: tuple[str, ...]


def _cli(name, text):
    return Job(name, "cli", tuple(text.split()))


def _lib(name):
    return Job(name, "lib", (name,))


_ORACLE_SERIAL = _cli(
    "oracle-z1z2z3", "oracle-check --max-r 3 --max-degree 10 --groups Z1,Z2,Z3 --format csv")
_ORACLE_POOLED = _cli(
    "oracle-z4-workers2",
    "oracle-check --max-r 3 --max-degree 8 --groups Z4,Z2xZ2"
    " --variants level-full,level-prime --format csv --workers 2")

WORKLOADS = {
    # Exact elimination and ideal building; the only multi-worker job.  The
    # pooled job runs twice a pass: its two threads sometimes build the same
    # ideal twice, which makes its time bimodal, so its median needs more
    # samples.  Samples of one job name are pooled and it counts once.
    "oracle-grid": (_ORACLE_SERIAL, _ORACLE_POOLED, _ORACLE_POOLED),
    # Counting, not enumerating: closed forms, series, IntPoly, dense rref.
    "formulas": (
        _cli("dims-full-r24-symbolic",
             "dims --variant level-full --r 24 --symbolic --max-degree 200 --format csv"),
        _cli("dims-prime-r20-h1",
             "dims --variant level-prime --r 20 --group H1(g=50,l=3)"
             " --max-degree 200 --format csv"),
        _cli("twisted-r12",
             "twisted --r 12 --p 2 --level 5 --genus 200 --max-k 200 --format csv"
             " --allow-extrapolated"),
        _cli("twisted-r3-symbolic",
             "twisted --r 3 --p 2 --max-k 200 --format json --allow-extrapolated"),
        _cli("gap-r6", "gap --r 6 --k 8 --level 7 --genus 300 --format json"),
        _cli("strata-r30", "strata --r 30 --level 3 --genus 100 --format csv"),
        _cli("commutant-h8",
             "commutant --h 8 --fixture rotation --format json --include-basis"),
        _lib("j-twisted"),
    ),
    # Basis enumeration, relabel, multiply, group arithmetic.
    "enumeration": (
        _cli("character-prime-r6",
             "character --variant level-prime --r 6 --degree 10 --group Z2 --format json"),
        _cli("character-full-r4",
             "character --variant level-full --r 4 --degree 6 --group Z2xZ2 --format csv"),
        _cli("character-prime-r5",
             "character --variant level-prime --r 5 --degree 8 --group Z3 --format json"),
        _lib("relabel-action"),
        _lib("multiply-commutes"),
    ),
    # The documented traffic: ACCEPTANCE_COMMANDS of tests/test_acceptance.py.
    "cli-small": (
        _cli("acc-01", "dims --variant level-prime --r 2 --group Z3 --max-degree 8 --format csv"),
        _cli("acc-02", "dims --variant level-full --r 2 --symbolic --max-degree 8 --format json"),
        _cli("acc-03", "twisted --r 2 --p 0 --level 2 --genus 24 --max-k 4 --format csv"),
        _cli("acc-04", "twisted --r 1 --p 1 --max-k 8 --format json --allow-extrapolated"),
        _cli("acc-05", "gap --r 2 --k 2 --level 2 --genus 24 --format json"),
        _cli("acc-06", "gap --r 1 --k 4 --level 5 --genus 100 --format pretty"),
        _cli("acc-07", "character --r 2 --degree 2 --group Z3 --format json"),
        _cli("acc-08", "character --variant level-full --r 3 --degree 4 --group Z2 --format csv"),
        _cli("acc-09", "commutant --h 2 --fixture plane-swap --format json"),
        _cli("acc-10", "commutant --h 1 --fixture scalar --format csv"),
        _cli("acc-11", "oracle-check --max-r 2 --max-degree 6 --groups Z1,Z2 --format csv"),
        _cli("acc-12", "strata --r 4 --group Z3 --format csv"),
        _cli("acc-13", "strata --r 3 --format pretty"),
    ),
}

"""Run one benchmark job in this (fresh) interpreter and write its record.

    python3 bench/job.py RECORD TRACE JOB_ID SEED cli ARGV...
    python3 bench/job.py RECORD TRACE JOB_ID SEED lib NAME

A CLI job imports ``prymalg.cli`` and calls ``main(ARGV)`` with stdout
going where this process's stdout goes.  A library job builds its inputs
from SEED, makes the library calls, then checks invariants that hold for
every seed.  With TRACE 1 the wrappers of ``instrument.py`` are installed
after the import and before the call.

The record (JSON at RECORD) holds the import time, the time of the call
itself, the time this harness spent on inputs and checks, the check
verdict, the peak RSS and, when traced, the spans and per-module totals.
The driver takes ``process wall - call_s - harness_s`` as the job's
set-up time.
"""

import sys
import time

_now = time.perf_counter

RELABEL_TRIPLES = 20000
MULTIPLY_PAIRS = 5476
J_VECTOR = (0, 1, 0, 1, 0, 0)
J_LEVEL, J_GENUS, J_MAX_K = 3, 60, 60


def _relabel_inputs(seed):
    import itertools
    import random

    rng = random.Random(seed)
    perms = list(itertools.permutations(range(1, 6)))
    picks = []
    for _ in range(RELABEL_TRIPLES):
        sigma = perms[rng.randrange(len(perms))]
        tau = perms[rng.randrange(len(perms))]
        sigma_tau = tuple(sigma[t - 1] for t in tau)
        picks.append((rng.random(), sigma, tau, sigma_tau))
    return picks


def _relabel_call(picks):
    """relabel is a group action: relabel(p, s.t) == relabel(relabel(p, t), s)."""
    from prymalg import enumerate_d_weighted_partitions, parse_group_literal, relabel

    parts = enumerate_d_weighted_partitions(5, parse_group_literal("Z3"))
    broken = moved = 0
    for u, sigma, tau, sigma_tau in picks:
        p = parts[int(u * len(parts))]
        q = relabel(relabel(p, tau), sigma)
        if relabel(p, sigma_tau) != q:
            broken += 1
        if q != p:
            moved += 1
    return broken, moved


def _relabel_check(result):
    broken, moved = result
    # moved > 0 guards against an action that fixes everything
    return broken == 0 and moved > 0, "broken=%d moved=%d" % (broken, moved), None


def _multiply_inputs(seed):
    import random

    rng = random.Random(seed)
    return [(rng.random(), rng.random()) for _ in range(MULTIPLY_PAIRS)]


def _multiply_call(pairs):
    """multiply is commutative on the degree-4 basis of level-full r=4 over Z2."""
    from prymalg import AlgebraSpec, Variant, basis, multiply, parse_group_literal

    spec = AlgebraSpec(Variant.LEVEL_FULL, 4, parse_group_literal("Z2"))
    monomials = basis(spec, 4)
    broken = nonzero = 0
    for u, v in pairs:
        x = monomials[int(u * len(monomials))]
        y = monomials[int(v * len(monomials))]
        xy = multiply(spec, x, y)
        if xy != multiply(spec, y, x):
            broken += 1
        if not xy.is_zero():
            nonzero += 1
    return broken, nonzero


def _multiply_check(result):
    broken, nonzero = result
    return broken == 0 and nonzero > 0, "broken=%d nonzero=%d" % (broken, nonzero), None


def _j_twisted_inputs(seed):
    return None


def _j_twisted_call(_):
    from prymalg import j_twisted_dims

    return j_twisted_dims(J_VECTOR, level=J_LEVEL, genus=J_GENUS, max_k=J_MAX_K)


def _j_twisted_check(table):
    import hashlib

    m = J_LEVEL ** (2 * J_GENUS)
    bad = [k for k in table.entries if table.poly_entries[k].evaluate(m) != table.entries[k]]
    digest = hashlib.sha256(repr(table.rows()).encode()).hexdigest()
    return not bad, "symbolic != concrete at k=%s" % bad if bad else "", digest


LIBRARY_JOBS = {
    "relabel-action": (_relabel_inputs, _relabel_call, _relabel_check),
    "multiply-commutes": (_multiply_inputs, _multiply_call, _multiply_check),
    "j-twisted": (_j_twisted_inputs, _j_twisted_call, _j_twisted_check),
}


def _peak_rss_kb():
    """Peak RSS of this process or of any child it waited for.

    Read here rather than from the driver's wait4: a spawned process
    starts with the spawning process's high-water mark.
    """
    import resource

    own = 0
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                own = int(line.split()[1])
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main(argv):
    record_path, trace, job_id, seed, kind, *rest = argv
    record = {"harness_s": 0.0, "ok": True, "detail": "", "digest": None}
    t0 = _now()
    if kind == "cli":
        import prymalg.cli
    else:
        import prymalg
    record["import_s"] = _now() - t0
    record["package"] = sys.modules["prymalg"].__file__

    tracer = None
    if trace == "1":
        import instrument

        tracer = instrument.install(job_id)

    if kind == "cli":
        call = sys.modules["prymalg.cli"].main
        if tracer is not None:
            call = tracer.wrap(call, "job", instrument.SPAN)
        c0 = _now()
        code = call(rest)
        sys.stdout.flush()
        record["call_s"] = _now() - c0
    else:
        prepare, call, check = LIBRARY_JOBS[rest[0]]
        h0 = _now()
        inputs = prepare(int(seed))
        harness = _now() - h0
        if tracer is not None:
            call = tracer.wrap(call, "job", instrument.SPAN)
        c0 = _now()
        result = call(inputs)
        c1 = _now()
        record["ok"], record["detail"], record["digest"] = check(result)
        record["call_s"] = c1 - c0
        record["harness_s"] = harness + (_now() - c1)
        code = 0 if record["ok"] else 1
    record["exit"] = code
    record["rss_kb"] = _peak_rss_kb()
    if tracer is not None:
        record["trace"] = instrument.collect(tracer)

    import json

    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

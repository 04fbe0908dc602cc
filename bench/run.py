"""prymalg benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it uses the sources under ``src/``
and nothing installed.  Every job of the workload runs in its own fresh
interpreter, one at a time, spawned by this process (see ``job.py``);
that is how a user runs the CLI, so per-process caches start cold.  The
whole job list (a pass) repeats while another pass still fits in S
seconds.  Each job's times are scaled by the machine speed measured while
it ran (see ``speed.py``) and averaged over passes; per-module figures
are medians over traced passes.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end ones, each summed over the workload's jobs:

    wall_s       spawn-to-exit wall time
    setup_s      wall time outside the job's call: interpreter start,
                 package import, teardown
    cpu_s        user + system CPU time of the job process (os.wait4)
    peak_rss_mb  the largest job's maximum resident set size (VmHWM)

A job fails on a nonzero exit, a traceback, or a failed output check (a
stdout digest that differs from ``expected.json``, or a broken library
invariant).  Failed jobs count in ``failed`` and ``failed_frac`` and their
times are left out.

With ``--trace 1`` passes alternate between untraced and traced; the JSON
metrics are the per-module ones of ``instrument.METRICS`` from the traced
passes plus ``trace.overhead_s`` (traced minus untraced wall time), and
the end-to-end figures of the untraced passes are printed above it.

A run record (Python version, CPU count, git SHA when the checkout is a
repository, seed, load average before and after) is printed and written,
with the per-job figures, to ``.bench_out/``; a traced run also writes
the spans of its last traced pass there.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import instrument  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HARD_LIMIT_S = 170.0  # the whole run ends before this, whatever the program does
OUT_DIR = ".bench_out"
EXPECTED = os.path.join(BENCH_DIR, "expected.json")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
_now = time.perf_counter


class Context:
    def __init__(self, root, seed, tmp, deadline, expected):
        self.src = os.path.join(root, "src")
        self.seed = seed
        self.tmp = tmp
        self.deadline = deadline
        self.job_py = os.path.join(BENCH_DIR, "job.py")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, os.environ.get("PYTHONPATH")) if p
        )
        # fixed string hashing, so set iteration order is the same in every run
        self.env["PYTHONHASHSEED"] = "0"
        self.expected = expected  # job name -> digest; None records instead of checking
        self.slowdown = 1.0  # of the last job that was sampled


def run_job(ctx, job, job_id, traced):
    """Spawn one job, wait for it, and check what it produced."""
    base = os.path.join(ctx.tmp, job_id)
    record_path, out_path, err_path = base + ".json", base + ".out", base + ".err"
    argv = [sys.executable, ctx.job_py, record_path, "1" if traced else "0", job_id,
            str(ctx.seed), job.kind, *job.args]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out_fd = os.open(out_path, flags, 0o644)
    err_fd = os.open(err_path, flags, 0o644)
    try:
        t0 = _now()
        pid = os.posix_spawn(sys.executable, argv, ctx.env, file_actions=[
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out_fd, 1),
            (os.POSIX_SPAWN_DUP2, err_fd, 2),
        ])
    finally:
        os.close(out_fd)
        os.close(err_fd)
    exited, bursts = speed.wait(pid, ctx.deadline - _now())
    if not exited:
        os.kill(pid, signal.SIGKILL)
    _, status, usage = os.wait4(pid, 0)
    wall = _now() - t0
    if bursts:
        ctx.slowdown = statistics.fmean(bursts) / speed.REFERENCE_S
    cpu = usage.ru_utime + usage.ru_stime

    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    record = None
    if os.path.exists(record_path):
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)
    for path in (record_path, out_path, err_path):
        if os.path.exists(path):
            os.remove(path)

    code = os.waitstatus_to_exitcode(status)
    reason = None
    if not exited:
        reason = "killed at the run's time limit"
    elif b"Traceback (most recent call last)" in stderr:
        reason = "traceback: " + stderr.decode(errors="replace").strip().splitlines()[-1]
    elif record is not None and not record["ok"]:
        reason = "check failed: " + record["detail"]
    elif code != 0:
        reason = "exit %d: %s" % (code, stderr.decode(errors="replace").strip()[-200:])
    elif record is None:
        reason = "no job record"
    elif not os.path.abspath(record["package"]).startswith(ctx.src + os.sep):
        reason = "imported prymalg from %s" % record["package"]
    if job.kind == "cli":
        digest = hashlib.sha256(stdout).hexdigest()
    else:
        digest = (record or {}).get("digest")
    checked = reason is None and ctx.expected is not None and digest is not None
    if checked and digest != ctx.expected.get(job.name):
        reason = "output digest %s differs from %s" % (digest[:12], EXPECTED)
    result = {
        "job": job.name,
        "kind": job.kind,
        "ok": reason is None,
        "reason": reason,
        "digest": digest,
        "wall_raw_s": wall,
        "cpu_raw_s": cpu,
        "slowdown": ctx.slowdown,
        "speed_samples": len(bursts),
        "wall_s": wall / ctx.slowdown,
        "cpu_s": cpu / ctx.slowdown,
        "stdout_bytes": len(stdout),
    }
    if record is not None:
        result["import_s"] = record["import_s"]
        result["call_s"] = record.get("call_s")
        result["harness_s"] = record["harness_s"]
        result["rss_mb"] = record["rss_kb"] / 1024.0
        if reason is None and record.get("call_s") is not None:
            result["setup_s"] = (wall - record["call_s"] - record["harness_s"]) / ctx.slowdown
        result["trace"] = record.get("trace")
    return result


def run_passes(ctx, jobs, seconds, traced_run):
    """Repeat the job list while another round still fits in `seconds`.

    A round is one untraced pass, followed by one traced pass when
    traced_run is set.  At least one round runs.
    """
    kinds = (False, True) if traced_run else (False,)
    passes = []
    window = _now()
    while True:
        round_start = _now()
        for traced in kinds:
            index = len(passes)
            results = []
            for j, job in enumerate(jobs):
                if _now() >= ctx.deadline:
                    results.append({"job": job.name, "kind": job.kind, "ok": False,
                                    "reason": "not run: the run's time limit passed"})
                    continue
                job_id = "p%d-j%d%s" % (index, j, "t" if traced else "")
                results.append(run_job(ctx, job, job_id, traced))
            passes.append({"traced": traced, "jobs": results})
            if _now() >= ctx.deadline:
                return passes
        round_s = _now() - round_start
        if _now() - window + round_s > seconds:
            return passes


def _mean_by_job(passes, key, traced):
    """{job: mean of key over the passes of one kind where the job succeeded}.

    A mean, not a median: the pooled oracle-check job takes one of two
    times, depending on whether its threads race to build one ideal twice,
    and the median of a few such samples jumps from one to the other.
    """
    values = {}
    for p in passes:
        if p["traced"] != traced:
            continue
        for r in p["jobs"]:
            if r["ok"] and r.get(key) is not None:
                values.setdefault(r["job"], []).append(r[key])
    return {job: statistics.fmean(v) for job, v in values.items()}


def end_to_end(passes, traced=False):
    rss = _mean_by_job(passes, "rss_mb", traced)
    return {
        "wall_s": sum(_mean_by_job(passes, "wall_s", traced).values()),
        "setup_s": sum(_mean_by_job(passes, "setup_s", traced).values()),
        "cpu_s": sum(_mean_by_job(passes, "cpu_s", traced).values()),
        "peak_rss_mb": max(rss.values()) if rss else 0.0,
    }


def per_layer(passes):
    """Per-module metrics: median over traced passes; None when absent."""
    samples = []
    for p in passes:
        if not p["traced"]:
            continue
        totals = instrument.Totals()
        cli_jobs = [r for r in p["jobs"] if r["kind"] == "cli"]
        totals.extra["cli.import_s"] = sum(r.get("import_s", 0.0) for r in cli_jobs)
        totals.extra["cli.output_bytes"] = sum(r.get("stdout_bytes", 0) for r in cli_jobs)
        for r in p["jobs"]:
            if r.get("trace"):
                totals.add(r["trace"])
        samples.append(instrument.evaluate(totals))
    out = {}
    for name, _, _ in instrument.METRICS:
        values = [s[name] for s in samples]
        out[name] = None if not values or None in values else statistics.median(values)
    out["trace.overhead_s"] = (
        end_to_end(passes, traced=True)["wall_s"] - end_to_end(passes)["wall_s"]
    )
    return out


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def _git_sha(root):
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _strip_trace(result):
    return {k: v for k, v in result.items() if k != "trace"}


def _spans(passes):
    """Spans of the last traced pass, one row per span."""
    traced = [p for p in passes if p["traced"]]
    if not traced:
        return None
    rows, jobs = [], {}
    for r in traced[-1]["jobs"]:
        for span in (r.get("trace") or {}).get("spans", ()):
            rows.append(span)
            jobs[span[-1]] = r["job"]
    return {"fields": ["name", "start", "end", "id", "parent", "job_id"],
            "jobs": jobs, "spans": rows}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    started = _now()
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "prymalg", "__init__.py")):
        print("error: no prymalg sources under %s; run from the root of a checkout" % src,
              file=sys.stderr)
        return 2

    # byte-compile once, as an installed package would be, so no job pays for it
    compileall.compile_dir(os.path.join(src, "prymalg"), quiet=1)

    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(root),
        "loadavg_before": _loadavg(),
    }
    tmp = tempfile.mkdtemp(prefix="jobs-", dir=out_dir)
    try:
        with open(EXPECTED, encoding="utf-8") as fh:
            expected = json.load(fh)
        ctx = Context(root, args.seed, tmp, started + HARD_LIMIT_S, expected)
        passes = run_passes(ctx, WORKLOADS[args.workload], args.seconds, args.trace == 1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record["loadavg_after"] = _loadavg()
    record["passes"] = len(passes)

    runs = [r for p in passes for r in p["jobs"]]
    attempted = len(runs)
    failed = sum(1 for r in runs if not r["ok"])
    e2e = end_to_end(passes)
    layers = per_layer(passes) if args.trace else None

    stem = os.path.join(out_dir, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"record": record, "end_to_end": e2e, "per_layer": layers,
                   "failed_frac": failed / attempted,
                   "passes": [dict(p, jobs=[_strip_trace(r) for r in p["jobs"]])
                              for p in passes]}, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(_spans(passes), fh)

    print("# run record: %s" % json.dumps(record))
    for r in runs:
        if not r["ok"]:
            print("# FAILED %s: %s" % (r["job"], r["reason"]))
    for name, unit in END_TO_END:
        print("%-34s %14.6f %s" % (name, e2e[name], unit))
    print("%-34s %14.6f ratio (%d of %d jobs)" % ("failed_frac", failed / attempted,
                                                     failed, attempted))
    if layers is not None:
        units = {name: unit for name, unit, _ in instrument.METRICS}
        units["trace.overhead_s"] = "s"
        for name, value in layers.items():
            shown = "absent" if value is None else "%14.6f" % value
            print("%-34s %14s %s" % (name, shown, units[name]))
        metrics = {
            name: ({"value": 0, "unit": units[name], "absent": True} if value is None
                   else {"value": value, "unit": units[name]})
            for name, value in layers.items()
        }
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the output digests that the benchmark checks every job against.

    python3 bench/record_expected.py

Run it from the root of a checkout whose output is known to be right.  It
runs every job of every workload once, untraced, and rewrites
``bench/expected.json`` with the SHA-256 of each CLI job's stdout and the
row digest of each library job that has one.  It refuses to record a job
that fails for any reason other than its digest.
"""

import json
import os
import shutil
import sys
import tempfile
import time

import run
from workloads import WORKLOADS


def main():
    out_dir = os.path.join(os.getcwd(), run.OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="record-", dir=out_dir)
    expected, problems = {}, []
    try:
        for workload, jobs in WORKLOADS.items():
            for j, job in enumerate(jobs):
                ctx = run.Context(os.getcwd(), 0, tmp,
                                  time.perf_counter() + run.HARD_LIMIT_S, None)
                result = run.run_job(ctx, job, "%s-%d" % (workload, j), False)
                if not result["ok"]:
                    problems.append("%s: %s" % (job.name, result["reason"]))
                elif result["digest"] is not None:
                    expected[job.name] = result["digest"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded %d digests in %s" % (len(expected), run.EXPECTED))
    return 0


if __name__ == "__main__":
    sys.exit(main())

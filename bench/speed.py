"""Sample the machine's speed on the CPUs a job runs on, while it runs.

On a shared host the speed of a virtual CPU changes by up to 2x within
seconds, as other tenants load the physical core under it.  CPU time
rises with wall time when that happens, so neither is steady on its own:
single runs of the same job differ by 15-30%.  So while a job runs the
driver wakes every ``PERIOD_S``, finds the CPUs on which the job's
runnable threads (and those of its child processes) sit, moves itself to
each in turn and times a fixed pure-Python burst by its own thread CPU
time, which excludes any time it waits for the CPU.  The mean burst time
over the job divided by ``REFERENCE_S`` is the job's slowdown; the
driver divides the job's wall, set-up and CPU times by it.

The bursts take 1-2% of a CPU the job is using.  ``REFERENCE_S``
is a fixed scale (about one burst on an unloaded core of the 2-vCPU Xeon
machine the benchmark was written on), so figures are comparable across
runs and commits on one machine, not across machines.
"""

import os
import select
import time

FIRST_S = 0.005
PERIOD_S = 0.04
REFERENCE_S = 0.0005


def burst():
    """Thread CPU time of a fixed mix of tuple, dict and int work."""
    t0 = time.thread_time()
    counts = {}
    acc = 0
    for i in range(1500):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + 1
        acc += sum(key) * 3 // 2
    return time.thread_time() - t0


def _running_cpus(pid):
    """CPUs of the runnable threads of pid and of its descendants."""
    cpus = []
    pids = [pid]
    for p in pids:
        try:
            tids = os.listdir("/proc/%d/task" % p)
        except OSError:
            continue
        for tid in tids:
            base = "/proc/%d/task/%s/" % (p, tid)
            try:
                with open(base + "stat", "rb") as fh:
                    fields = fh.read().rsplit(b")", 1)[1].split()
                with open(base + "children", "rb") as fh:
                    pids.extend(int(c) for c in fh.read().split())
            except (OSError, IndexError, ValueError):
                continue
            if fields[0] == b"R":
                cpus.append(int(fields[36]))
    return cpus


def wait(pid, timeout):
    """Sample speed until pid exits or timeout passes; pid stays unreaped.

    Returns (exited, burst times).
    """
    home = os.sched_getaffinity(0)
    fd = os.pidfd_open(pid)
    deadline = time.perf_counter() + timeout
    samples = []
    pause = FIRST_S
    try:
        while True:
            left = deadline - time.perf_counter()
            ready, _, _ = select.select([fd], [], [], max(min(pause, left), 0.0))
            if ready:
                return True, samples
            if left <= 0:
                return False, samples
            for cpu in _running_cpus(pid):
                if cpu not in home:
                    continue
                try:
                    os.sched_setaffinity(0, {cpu})
                except OSError:  # the CPU went offline since it was read
                    continue
                samples.append(burst())
            pause = PERIOD_S
    finally:
        os.close(fd)
        os.sched_setaffinity(0, home)

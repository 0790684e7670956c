"""Reference seconds: wall time corrected for the speed of a shared CPU.

On a shared machine the speed of a core changes by tens of percent for
seconds at a time, as other tenants come and go, and any timer reads that
change. So the benchmark runs on one CPU, and while a child process works
on it the parent interrupts every PERIOD seconds to time a fixed probe
(a small exact elimination over Fractions, lefalg's kind of work). The
time of a job is its wall time, less the probes that ran inside it, scaled
by PROBE_S over the mean probe time around the job. The probe never runs
code under test, so a slower lefalg still reads slower.
"""

from __future__ import annotations

import bisect
import os
import select
import statistics
import subprocess
from fractions import Fraction
from time import perf_counter

PERIOD = 0.02
PROBE_S = 0.0012     # the probe at the usual speed of the baseline machine
MIN_PROBES = 8       # nearest probes used for a job shorter than a few periods
CLIP = 1.5           # probes longer than this many typical ones were interrupted


def probe(n: int = 6) -> None:
    """Exact Gauss-Jordan elimination of a fixed n x n integer matrix."""
    x = 12345
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (x * 1103515245 + 12345) % 2147483648
            row.append(Fraction((x >> 16) % 19 - 9))
        rows.append(row)
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [inv * v for v in rows[col]]
        for i in range(n):
            if i != col and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]


def pin_to_one_cpu() -> None:
    """Keep this process and its children on the one CPU the probes measure."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # unpinned, the probes may measure the other CPU: noisier, still valid


class Clock:
    """Runs children one at a time, probing the CPU while they work."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def run(self, argv: list[str], cwd: str, env: dict, timeout: float):
        """Run a child to its end; return (exit code or None, stdout, stderr, interval).

        The interval holds perf_counter() readings at its start and its end.
        A child still running after ``timeout`` seconds is killed.
        """
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
        chunks = {out_fd: [], err_fd: []}
        open_fds = [out_fd, err_fd]
        try:
            while open_fds:
                if perf_counter() - t0 > timeout:
                    proc.kill()
                    proc.wait()
                    return None, "", "timed out", (t0, perf_counter())
                ready, _, _ = select.select(open_fds, [], [], PERIOD)
                if not ready:
                    s = perf_counter()
                    probe()
                    self.starts.append(s)
                    self.ends.append(perf_counter())
                for fd in ready:
                    data = os.read(fd, 1 << 16)
                    if data:
                        chunks[fd].append(data)
                    else:
                        open_fds.remove(fd)
            code = proc.wait()
            t1 = perf_counter()
        finally:
            proc.stdout.close()
            proc.stderr.close()
        out, err = (b"".join(chunks[fd]).decode("utf-8", "replace")
                    for fd in (out_fd, err_fd))
        return code, out, err, (t0, t1)

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the work done on the probed CPU from t0 to t1."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.starts, t1)
        inside = [min(e, t1) - max(s, t0)
                  for s, e in zip(self.starts[lo:hi], self.ends[lo:hi])]
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.starts)):
            if lo > 0:
                lo -= 1
            if hi < len(self.starts) and hi - lo < MIN_PROBES:
                hi += 1
        times = [e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi])]
        if not times:
            return t1 - t0
        # a probe that the child preempted, or the host stalled, reads long:
        # count it as a typical probe, both in the speed and in what it took
        typical = statistics.median(times)
        probe_s = statistics.fmean(min(t, CLIP * typical) for t in times)
        busy = sum(min(t, typical) for t in inside)
        return (t1 - t0 - busy) * PROBE_S / probe_s

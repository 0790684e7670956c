"""Child process of the benchmark: one in-process workload run, or one set-up sample.

    python3 perfbench/worker.py --workload lefschetz-ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/worker.py --workload verify-ladder --seed 1 --setup-only

It prints one JSON object: the interval of its set-up, or every pass with
the interval of each job, its failures and (for traced passes) per-layer
values, and this process's peak resident memory. Intervals are pairs of
perf_counter() readings, which run.py turns into reference seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import traceback
from time import perf_counter

import jobs
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", "_work")

MIN_PASSES = 3


def measure(run_pass, seconds: float, trace: bool) -> list[dict]:
    """Run passes for ``seconds``; traced runs alternate plain and timed passes.

    A traced run ends with one memory pass. Each pass is a dict with its
    ``mode`` (plain, time or memory), each job's interval in ``times``,
    ``failures`` and, for traced passes, ``layers``.
    """
    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES + trace or perf_counter() - start < seconds:
        mode = "time" if trace and len(passes) % 2 else "plain"
        passes.append(run_pass(mode))
    if trace:
        passes.append(run_pass("memory"))
    return passes


def traced(mode: str, body):
    """Run ``body()`` under a tracer for ``mode``; return its result and layers."""
    if mode == "plain":
        return body(), None
    tracer = Tracer(memory=mode == "memory")
    tracer.install()
    try:
        out = body()
    finally:
        tracer.uninstall()
    return out, tracer.take()


def timed_job(name: str, expected, body, times: dict, failures: list) -> None:
    t0 = perf_counter()
    try:
        got = body()
    except Exception:  # a job that raises is a failed job; the pass goes on
        times[name] = (t0, perf_counter())
        failures.append(f"{name}: raised {traceback.format_exc(limit=3)}")
        return
    times[name] = (t0, perf_counter())
    if got != expected:
        failures.append(f"{name}: got {got!r}, expected {expected!r}")


def lefschetz_pass(lefalg, rungs, clear, rng: random.Random, mode: str) -> dict:
    order = list(rungs)
    rng.shuffle(order)

    def body():
        times, failures = {}, []
        for rung in order:
            coeffs = jobs.draw_coefficients(rng, len(rung.factors))
            for fn in clear:
                fn()
            timed_job(rung.name, rung.answer,
                      lambda: jobs.analyse(lefalg, *rung.build(lefalg, coeffs)),
                      times, failures)
        return times, failures

    (times, failures), layers = traced(mode, body)
    return {"mode": mode, "times": times, "failures": failures, "layers": layers}


def verify_pass(lefalg, algebras: dict, rng: random.Random, mode: str) -> dict:
    order = sorted(algebras)
    rng.shuffle(order)

    def body():
        times, failures = {}, []
        for name in order:
            timed_job(name, (),
                      lambda: lefalg.verify_algebra(algebras[name]).violations,
                      times, failures)
        return times, failures

    (times, failures), layers = traced(mode, body)
    return {"mode": mode, "times": times, "failures": failures, "layers": layers}


def workload_rungs(workload: str, max_basis: int) -> list:
    if workload == "lefschetz-ladder":
        rungs = jobs.LADDER
    else:
        rungs = [r for r in jobs.LADDER if r.name in jobs.VERIFY_LADDER]
    return [r for r in rungs if r.basis_size <= max_basis]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("lefschetz-ladder", "verify-ladder", "cli-files"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-basis", type=int, default=10 ** 9)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    t0 = perf_counter()
    sys.path.insert(0, SRC)
    import lefalg
    if args.workload == "cli-files":
        if not args.setup_only:
            p.error("cli-files runs from run.py; the worker only samples its set-up")
        os.makedirs(WORK, exist_ok=True)
        directory = tempfile.mkdtemp(dir=WORK)
        try:
            jobs.write_build_files(directory)
            setup = (t0, perf_counter())
        finally:
            shutil.rmtree(directory)
        print(json.dumps({"setup": setup}))
        return 0

    rungs = workload_rungs(args.workload, args.max_basis)
    rng = random.Random(args.seed)
    if args.workload == "lefschetz-ladder":
        # cleared before every job: every CLI process pays the build too
        clear = (lefalg.catalog.get.cache_clear,
                 lefalg.schubert.grassmannian.cache_clear)

        def run_pass(mode):
            return lefschetz_pass(lefalg, rungs, clear, rng, mode)
    else:
        algebras = {r.name: r.build(lefalg, ())[0] for r in rungs}

        def run_pass(mode):
            return verify_pass(lefalg, algebras, rng, mode)
    setup = (t0, perf_counter())
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    passes = measure(run_pass, args.seconds, bool(args.trace))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"passes": passes, "peak_rss_mb": peak_kib / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

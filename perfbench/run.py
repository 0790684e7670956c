"""Benchmark of lefalg's whole pipeline: time to every verdict, end to end.

    python3 perfbench/run.py --workload lefschetz-ladder --seed 1 --seconds 20 --trace 0

Workloads (perfbench/README.md gives their job lists and why each is there):

- lefschetz-ladder: build each rung, then the subalgebra, the three
  predicates and the primitive dims, in one process;
- verify-ladder: verify_algebra on algebras built during set-up;
- cli-files: `lefalg` commands, one child process each, on catalog names
  and on files written by `lefalg build`.

Each run is a closed loop, one job at a time, with at most one child process
alive, all on one CPU. It checks every job's answer, prints a JSON line of
details, and ends with one JSON line: ``correct``, ``attempted``, ``failed``
and ``metrics``, the end-to-end metrics with ``--trace 0`` and the
per-layer ones with ``--trace 1``. Times are reference seconds (clock.py).
``--max-basis N`` keeps only the jobs on algebras of at most N basis
classes, for quick self-tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile

import jobs
import tracing
from clock import Clock, pin_to_one_cpu
from worker import measure, workload_rungs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
WORKER = os.path.join(HERE, "worker.py")
LAUNCHER = os.path.join(HERE, "lefalg_cli.py")

WORKLOADS = ("lefschetz-ladder", "verify-ladder", "cli-files")
SETUP_SAMPLES = 7
NOOP_SAMPLES = 24  # half before the passes, half after: two windows of machine state
IMPORT_SAMPLES = 9
CHILD_TIMEOUT = 150

END_TO_END = {"setup_s": "s", "pass_s": "s", "geomean_s": "s",
              "peak_rss_mb": "MiB", "noop_cmd_s": "s"}
PER_LAYER = {name: ("count" if name.endswith((".calls", ".cells"))
                    or name == "ring.table_cells" else
                    "bytes" if name == "serialize.file_bytes" else "s")
             for name in tracing.LAYER_METRICS}
PER_LAYER.update({name: "MiB" for name in tracing.PEAK_METRICS})
PER_LAYER.update({"cli.import_s": "s", "trace.overhead_frac": "ratio"})

class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Bench:
    """One run: its arguments, and the clock every child runs under."""

    def __init__(self, args):
        self.args = args
        self.clock = Clock()

    def child(self, argv: list[str], cwd: str = ROOT, **env: str):
        """Run ``python3 -S argv``: (exit code or None, stdout, stderr, interval).

        -S skips the site hooks of whatever packages the host has installed
        (on the baseline machine a .pth file that imports certifi, 57 ms of
        noisy start-up); lefalg needs nothing from site-packages.
        """
        return self.clock.run([sys.executable, "-S"] + argv, cwd,
                              dict(os.environ, PYTHONIOENCODING="utf-8", **env),
                              CHILD_TIMEOUT)

    def worker(self, *argv: str) -> dict:
        a = self.args
        code, out, err, _ = self.child([WORKER, "--workload", a.workload,
                                        "--seed", str(a.seed),
                                        "--max-basis", str(a.max_basis), *argv])
        if code != 0:
            raise BenchError(f"worker {' '.join(argv)} exited {code}: "
                             f"{err.strip()[-500:]}")
        return json.loads(out.strip().splitlines()[-1])

    # cli-files -----------------------------------------------------------------

    def cli_pass(self, directory: str, rng: random.Random, mode: str) -> dict:
        todo = [j for j in jobs.cli_jobs(jobs.draw_coefficients(rng, 3))
                if j.basis_size <= self.args.max_basis]
        order = []
        for phase in (1, 2):
            batch = [j for j in todo if j.phase == phase]
            rng.shuffle(batch)
            order += batch
        trace_file = os.path.join(directory, "trace.json")
        env = {}
        if mode != "plain":
            env["PERFBENCH_TRACE_OUT"] = trace_file
        if mode == "memory":
            env["PERFBENCH_TRACE_MEMORY"] = "1"
        times, failures, layers = {}, [], None
        for job in order:
            code, out, _, times[job.name] = self.child([LAUNCHER, *job.argv],
                                                       directory, **env)
            problem = job.check(code, out)
            if problem:
                failures.append(problem)
            if mode != "plain" and code is not None:
                with open(trace_file, encoding="utf-8") as fh:
                    layers = merge_layers(layers, json.load(fh))
        return {"mode": mode, "times": times, "failures": failures,
                "layers": layers}

    def cli_files(self) -> tuple[list[dict], float]:
        os.makedirs(WORK, exist_ok=True)
        directory = tempfile.mkdtemp(dir=WORK)
        try:
            jobs.write_build_files(directory)
            rng = random.Random(self.args.seed)
            passes = measure(lambda mode: self.cli_pass(directory, rng, mode),
                             self.args.seconds, bool(self.args.trace))
        finally:
            shutil.rmtree(directory)
        # the largest child: the command processes dominate the samples
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return passes, peak_kib / 1024.0

    # fresh-interpreter samples -------------------------------------------------

    def noop_samples(self, count: int) -> tuple[list, list[str]]:
        """`lefalg catalog` in fresh interpreters: the start-up every CLI user pays."""
        intervals, failures = [], []
        for _ in range(count):
            code, out, _, interval = self.child([LAUNCHER, "catalog"])
            intervals.append(interval)
            if code != 0 or out != jobs.CATALOG_LISTING:
                failures.append(f"catalog: exit {code}, output {out[:200]!r}")
        return intervals, failures

    def import_seconds(self) -> float:
        """Median time to import lefalg.cli, less a bare interpreter's start-up."""
        prefix = f"import sys; sys.path.insert(0, {SRC!r})"
        bare, full = [], []
        for _ in range(IMPORT_SAMPLES):
            for code, bucket in ((prefix, bare),
                                 (prefix + "; import lefalg.cli", full)):
                status, _, err, interval = self.child(["-c", code])
                if status != 0:
                    raise BenchError(f"cannot import lefalg.cli: {err[-500:]}")
                bucket.append(interval)
        seconds = self.clock.seconds
        return (statistics.median(seconds(*i) for i in full)
                - statistics.median(seconds(*i) for i in bare))


def merge_layers(total, one: dict) -> dict:
    """Per-pass layer values of several processes: sums, and maxima of peaks."""
    if total is None:
        return dict(one)
    for name, value in one.items():
        if name in tracing.PEAK_METRICS:
            total[name] = max(total[name], value)
        else:
            total[name] += value
    return total


# metrics -------------------------------------------------------------------------

def job_records(workload: str, max_basis: int) -> list[dict]:
    if workload == "cli-files":
        todo = [j for j in jobs.cli_jobs((1, 1, 1)) if j.basis_size <= max_basis]
        return [{"name": j.name, "basis_size": j.basis_size, "dims": j.dims}
                for j in todo]
    return [{"name": r.name, "basis_size": r.basis_size, "dims": r.answer.dims}
            for r in workload_rungs(workload, max_basis)]


def pass_seconds(p: dict) -> float:
    return sum(p["seconds"].values())


def end_to_end(passes, setup, peak_rss_mb, noop) -> tuple[dict, dict]:
    plain = [p for p in passes if p["mode"] == "plain"]
    per_job = {name: statistics.median(p["seconds"][name] for p in plain)
               for name in plain[0]["seconds"]}
    values = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(pass_seconds(p) for p in plain),
        "geomean_s": math.exp(statistics.fmean(math.log(t)
                                               for t in per_job.values())),
        "peak_rss_mb": peak_rss_mb,
        "noop_cmd_s": statistics.median(noop),
    }
    samples = {"passes": len(plain), "setup": len(setup), "noop": len(noop),
               "pass_s": [pass_seconds(p) for p in plain],
               "pass_wall_s": [sum(t1 - t0 for t0, t1 in p["times"].values())
                               for p in plain],
               "setup_s": setup, "noop_cmd_s": noop}
    return values, {"per_job_median_s": per_job, "samples": samples}


def per_layer(passes, import_s: float) -> tuple[dict, dict]:
    plain = [p for p in passes if p["mode"] == "plain"]
    timed = [p for p in passes if p["mode"] == "time"]
    memory = [p for p in passes if p["mode"] == "memory"]
    values = {name: statistics.median(p["layers"][name] for p in timed)
              for name in tracing.LAYER_METRICS}
    values.update({name: max(p["layers"][name] for p in memory)
                   for name in tracing.PEAK_METRICS})
    values["cli.import_s"] = import_s
    plain_s = statistics.median(pass_seconds(p) for p in plain)
    timed_s = statistics.median(pass_seconds(p) for p in timed)
    values["trace.overhead_frac"] = timed_s / plain_s - 1
    samples = {"plain_passes": len(plain), "traced_passes": len(timed),
               "memory_passes": len(memory), "plain_pass_s": plain_s,
               "traced_pass_s": timed_s, "import_samples": IMPORT_SAMPLES}
    return values, {"samples": samples}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-basis", type=int, default=10 ** 9)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lefalg", "cli.py")):
        print(f"error: no lefalg sources under {SRC}", file=sys.stderr)
        return 2
    records = job_records(args.workload, args.max_basis)
    if not records:
        print("error: --max-basis leaves no jobs", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    bench = Bench(args)
    try:
        # compiles the byte code once, so that no sample below pays for it
        bench.child([LAUNCHER, "catalog"])
        setup, noop, failures = [], [], []
        if not args.trace:
            setup = [bench.worker("--setup-only")["setup"]
                     for _ in range(SETUP_SAMPLES)]
            noop, failures = bench.noop_samples(NOOP_SAMPLES // 2)
        if args.workload == "cli-files":
            passes, peak_rss_mb = bench.cli_files()
        else:
            data = bench.worker("--seconds", str(args.seconds),
                                "--trace", str(args.trace))
            passes, peak_rss_mb = data["passes"], data["peak_rss_mb"]
        if args.trace:
            import_s = bench.import_seconds()
        else:
            more, more_failures = bench.noop_samples(NOOP_SAMPLES - len(noop))
            noop += more
            failures += more_failures
        failures += [f for p in passes for f in p["failures"]]
        attempted = len(noop) + sum(len(p["times"]) for p in passes)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    # every probe is in: turn each interval into reference seconds, and the
    # layer times of a traced pass with the factor of that pass
    seconds = bench.clock.seconds
    for p in passes:
        p["seconds"] = {name: seconds(*i) for name, i in p["times"].items()}
        if p["layers"]:
            factor = pass_seconds(p) / sum(t1 - t0 for t0, t1 in p["times"].values())
            for name, value in p["layers"].items():
                if PER_LAYER[name] == "s":
                    p["layers"][name] = value * factor
    if args.trace:
        values, detail = per_layer(passes, import_s)
        units = PER_LAYER
    else:
        values, detail = end_to_end(passes, [seconds(*i) for i in setup],
                                    peak_rss_mb, [seconds(*i) for i in noop])
        units = END_TO_END
    detail.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "jobs": records, "failed_frac": len(failures) / attempted,
                   "failures": failures[:20],
                   "probes": len(bench.clock.starts)})
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

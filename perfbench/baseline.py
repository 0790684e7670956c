"""Record a baseline: one plain and one traced run of every workload.

    python3 perfbench/baseline.py perfbench/results/BENCH_2.json [--seed 1]

The file holds each run's detail and result lines, with the seed, the git
SHA of the measured tree, the Python version and the CPU count.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone

from run import ROOT, WORKLOADS


def git(*args: str) -> str:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    runs = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            runs.append({"workload": workload, "trace": trace,
                         "detail": json.loads(lines[-2])["detail"],
                         "result": json.loads(lines[-1])})
            print(workload, trace, lines[-1][:160], flush=True)

    record = {
        "seed": args.seed,
        "run_seconds": seconds,
        "git_sha": git("rev-parse", "HEAD") or None,
        "src_modified": bool(git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "recorded": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import jobs
import run
import tracing
import worker

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def bench(*args: str, cwd: str = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result(workload: str, seed: int, trace: int, max_basis: int) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace), "--max-basis", str(max_basis))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind: str) -> dict:
    with open(BENCHMARK, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_benchmark_json_matches_the_harness():
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_minimal_run_reports_every_metric(workload):
    out = result(workload, seed=1, trace=0, max_basis=14)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_counts_repeat_exactly():
    for workload in ("lefschetz-ladder", "cli-files"):
        first = result(workload, seed=1, trace=1, max_basis=32)
        second = result(workload, seed=2, trace=1, max_basis=32)
        assert first["correct"] and second["correct"]
        assert {k: v["unit"] for k, v in first["metrics"].items()} == run.PER_LAYER
        for name in tracing.COUNT_METRICS:
            assert first["metrics"][name] == second["metrics"][name], name
        assert first["metrics"]["linalg.rref.calls"]["value"] > 0
        assert first["metrics"]["ring.table_cells"]["value"] > 0
    assert first["metrics"]["serialize.file_bytes"]["value"] > 0


def test_wrong_expected_answer_counts_as_failed():
    sys.path.insert(0, run.SRC)
    import lefalg
    rung = replace(jobs.LADDER[0], answer=replace(jobs.EXAMPLE1, ldims=(1,) * 6))
    clear = (lefalg.catalog.get.cache_clear,)
    out = worker.lefschetz_pass(lefalg, [rung], clear, random.Random(1), "plain")
    assert len(out["failures"]) == 1 and "example1" in out["failures"][0]


def test_wrong_exit_code_counts_in_failed_frac(monkeypatch, capsys):
    real = jobs.cli_jobs

    def broken(coeffs):
        todo = real(coeffs)
        return [replace(j, exit_code=0) if j.name.startswith("check --hl") else j
                for j in todo]

    monkeypatch.setattr(jobs, "cli_jobs", broken)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "NOOP_SAMPLES", 1)
    assert run.main(["--workload", "cli-files", "--seed", "1", "--seconds", "0",
                     "--max-basis", "14"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    out, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    assert not out["correct"] and out["failed"] == worker.MIN_PASSES
    assert detail["failed_frac"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCHMARK, tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = bench("--workload", "lefschetz-ladder", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0 and proc.stdout == ""


def test_kunneth_and_partition_counts():
    assert jobs.Gr(2, 5).dims == (1, 1, 2, 2, 2, 1, 1)
    assert jobs.convolve((1, 1), (1, 1), (1, 1)) == (1, 3, 3, 1)
    assert jobs.ample_answer((jobs.P(1),) * 8).ldims == (1, 8, 28, 56, 70, 56, 28, 8, 1)

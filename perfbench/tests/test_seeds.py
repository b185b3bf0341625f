"""Held-out seeds pass, the failure counter counts, and the benchmark refuses
to run without the program's sources.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from overchain.config import Expectation

BENCH_DIR = Path(run.__file__).resolve().parent


def test_held_out_seed_has_no_failed_checks(capsys):
    # seed 2 is not rollout_mix's default (23); one repeat is enough
    assert run.main(["--workload", "rollout_mix", "--seed", "2",
                     "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}


def test_impossible_expectation_is_counted_as_failed(monkeypatch):
    load_config = run.load_config

    def with_impossible_expectation(workload, seed):
        config = load_config(workload, seed)
        impossible = Expectation("traffic.sent", "lt", 0)
        return dataclasses.replace(
            config, expectations=config.expectations + (impossible,))

    monkeypatch.setattr(run, "load_config", with_impossible_expectation)
    result = run.run_once("rollout_mix", 23)
    assert result["failed"] == 1
    assert result["failed"] / result["attempted"] > 0


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "flood",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Simulated numbers depend on ``--seed`` and on nothing else."""

import json
import os
import subprocess
import sys

import pytest

from perf.spec import ROOT


def _quick(workload, seed, hashseed, out):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    done = subprocess.run(
        [sys.executable, "-m", "perf.run", "--workload", workload, "--quick",
         "--seed", str(seed), "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    detail = json.loads(out.read_text())
    assert detail["correct"] and detail["comparable"] is False
    sim = {k: v for k, v in detail["metrics"].items() if k.startswith("sim_")}
    return sim, detail["sim_digest"]


@pytest.mark.parametrize("workload", ["ssd_serve", "cluster_chash"])
def test_sim_metrics_ignore_hash_seed_and_follow_seed(workload, tmp_path):
    first = _quick(workload, 13, 1, tmp_path / "a.json")
    second = _quick(workload, 13, 2, tmp_path / "b.json")
    other = _quick(workload, 14, 1, tmp_path / "c.json")
    assert first == second
    assert other[1] != first[1]
    assert other[0] != first[0]

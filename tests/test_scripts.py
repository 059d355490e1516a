"""Smoke runs of every script under scripts/, at their smallest arguments,
so that the scripts stay in step with the library."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv,expect", [
    (["balayage_decay.py", "--k-max", "2", "--n-points", "5"],
     "slope of log max Phi_h vs log h"),
    (["kernel_norm_table.py"], "rel err"),
    (["packing_coverage_sweep.py", "--instances", "2", "--grid-points",
      "500"], "worst coverage"),
])
def test_script_runs(argv, expect):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script = ROOT / "scripts" / argv[0]
    out = subprocess.run([sys.executable, str(script), *argv[1:]], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert expect in out.stdout


def test_report_digests_writes_one_digest_per_op(tmp_path):
    out = tmp_path / "digests.json"
    script = ROOT / "scripts" / "report_digests.py"
    argv = [sys.executable, str(script), "--workload", "packing",
            "--seeds", "0:1"]
    run = subprocess.run(argv + ["--out", str(out)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    table = json.loads(out.read_text())
    assert len(table) == 12
    assert all(len(v) == 64 for v in table.values())
    # --against: the table matches itself, and a changed digest is named
    run = subprocess.run(argv + ["--against", str(out)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "0 of 12 op keys differ" in run.stdout
    key = sorted(table)[0]
    out.write_text(json.dumps({**table, key: "0" * 64}))
    run = subprocess.run(argv + ["--against", str(out)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 1
    assert f"differs: {key}" in run.stdout


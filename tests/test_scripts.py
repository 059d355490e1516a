"""Smoke runs of every script under scripts/, at their smallest arguments,
so that the scripts stay in step with the library."""

import importlib.util
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
    (["op_peaks.py", "--workload", "verdicts", "--seed", "0", "--ops", "3"],
     "verdicts seed 0: 3 ops, peak"),
    (["op_times.py", "--workload", "verdicts", "--seed", "0", "--passes",
      "1"], "volume path"),
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



def test_report_digests_compares_kept_reports(tmp_path, monkeypatch,
                                               capsys):
    # --reports keeps each op's report under its op key; --against-reports
    # names a number's change without failing, and fails on an exit code
    # or on any other field that differs
    script = ROOT / "scripts" / "report_digests.py"
    argv = [sys.executable, str(script), "--workload", "packing",
            "--seeds", "0:1"]
    old = tmp_path / "old"
    run = subprocess.run(argv + ["--reports", str(old)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    kept = sorted(old.glob("*.json"))
    assert len(kept) == 12
    run = subprocess.run(argv + ["--against-reports", str(old)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "0 of 12 op reports differ" in run.stdout
    # the comparison itself, in process, against edited copies
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("report_digests", script)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    reports = {f.stem: json.loads(f.read_text()) for f in kept}
    doc = json.loads(kept[0].read_text())
    assert doc["exit"] == 0 and doc["report"]["command"] == "pack"

    def against(**edit):
        for path, value in edit.items():
            *where, key = path.split("__")
            node = doc
            for k in where:
                node = node[k]
            node[key] = value
        kept[0].write_text(json.dumps(doc))
        code = digests.against_reports(reports, old)
        return code, capsys.readouterr().out

    code, out = against(report__h=doc["report"]["h"] * (1 + 2.0 ** -40))
    assert code == 0
    assert (f"{kept[0].stem}: exit codes match (0); largest relative "
            "change 9.09e-13\n") in out
    code, out = against(report__disjoint="no")
    assert code == 1
    assert "other fields differ: .report.disjoint" in out
    code, out = against(report__disjoint=True, exit=1)
    assert code == 1
    assert "exit codes differ (1 -> 0)" in out


def test_report_digests_tallies_changes_by_subcommand_and_d(
        tmp_path, monkeypatch, capsys):
    # --against-reports ends with a tally by subcommand and d: reports that
    # differ, those that differ only in an arg_extremal label, exit-code
    # transitions and verdict fields, old value to new
    monkeypatch.setattr(sys, "path", list(sys.path))
    script = ROOT / "scripts" / "report_digests.py"
    spec = importlib.util.spec_from_file_location("report_digests", script)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)

    def kept(command, dim, code, verdict="positive", arg=(0.5, 0.0),
             value=0.25):
        return {"exit": code, "curves": {}, "report": {
            "command": command, "config": {"dim": dim},
            "conditions": {"i": {"verdict": verdict, "arg_extremal": list(arg),
                                 "trend": [value]}}}}

    old = {"a": kept("equivalence", 2, 3, value=0.3),
           "b": kept("equivalence", 2, 3, value=0.4),
           "c": kept("criteria", 3, 0),
           "d": kept("criteria", 1, 0)}
    new = {"a": kept("equivalence", 2, 0, "degenerate", value=0.1),
           "b": kept("equivalence", 2, 0, "degenerate", value=0.2),
           "c": kept("criteria", 3, 0, arg=(0.0, 0.5)),
           "d": kept("criteria", 1, 0)}
    old_dir = tmp_path / "old"
    old_dir.mkdir()
    for key, rep in old.items():
        (old_dir / f"{key}.json").write_text(json.dumps(rep))
    code = digests.against_reports(new, old_dir)
    out = capsys.readouterr().out
    assert code == 1
    assert "3 of 4 op reports differ" in out
    assert out.endswith(
        "by subcommand and d:\n"
        "  criteria d=3: 1 differ, 1 label-only\n"
        "  equivalence d=2: 2 differ, 0 label-only; "
        ".report.conditions.i.verdict positive -> degenerate: 2; "
        "exit 3 -> 0: 2\n"
        "exit-code transitions: equivalence 3 -> 0: 2\n")

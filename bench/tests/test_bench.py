"""Tests of the benchmark itself: seeded inputs, output checks, the tail
percentile, the tracer and the metric names declared in BENCHMARK.json.

Run from the repository root: python3 -m pytest bench/tests
"""

import contextlib
import copy
import io
import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import checks
import hostspeed
import run
import workloads
from tracing import LAYERS, Tracer

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# seeded inputs

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    a, b = workloads.generate(name, 7), workloads.generate(name, 7)
    assert [op.argv for op in a.ops] == [op.argv for op in b.ops]
    assert {k: v.encode() for k, v in a.files.items()} == \
        {k: v.encode() for k, v in b.files.items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_other_inputs(name):
    a, b = workloads.generate(name, 7), workloads.generate(name, 8)
    assert len(a.ops) == len(b.ops)
    assert ([op.argv for op in a.ops], a.files) != \
        ([op.argv for op in b.ops], b.files)
    keys_a = {op.key(a.files) for op in a.ops}
    assert keys_a != {op.key(b.files) for op in b.ops}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_named_file_is_generated(name):
    wl = workloads.generate(name, 3)
    for op in wl.ops:
        named = [op.argv[i + 1] for i, a in enumerate(op.argv)
                 if a in ("--measure", "--symbol", "--points")]
        assert all(f in wl.files for f in named)


def test_packing_draws_like_criterion_05():
    wl = workloads.generate("packing", 11)
    params = [op.checks[0][1] for op in wl.ops]
    assert sum(p["dim"] == 2 for p in params) == 3 * len(params) // 4
    for p in params:
        assert 0.15 <= p["delta"] <= 0.6
        assert p["delta"] / 16 <= p["h"] <= p["delta"] / 5


def test_packing_cost_ladder_is_the_same_for_every_seed():
    def ladder(seed):
        params = [op.checks[0][1] for op in
                  workloads.generate("packing", seed).ops]
        return sorted((p["dim"], round(p["h"] / p["delta"], 12))
                      for p in params)

    assert ladder(1) == ladder(2)
    deltas = [[op.checks[0][1]["delta"] for op in
               workloads.generate("packing", s).ops] for s in (1, 2)]
    assert deltas[0] != deltas[1]


# ---------------------------------------------------------------------------
# output checks

def _run_op(op, files, tmp_path):
    indir = tmp_path / "in"
    indir.mkdir(exist_ok=True)
    for name, text in files.items():
        (indir / name).write_text(text)
    out = tmp_path / "report.json"
    argv = [str(indir / a) if a in files else a for a in op.argv]
    from revcarleson.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


def _checked_op(workload, check, dim=None):
    wl = workloads.generate(workload, 0)
    for op in wl.ops:
        for name, params in op.checks:
            if name == check and (dim is None or params.get("dim") == dim):
                return op, wl.files
    raise AssertionError(f"no op carries the {check} check")


def _set(path, value):
    def corrupt(rep):
        node = rep
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = value
    return corrupt


def _duplicate_center(rep):
    rep["centers"].append(rep["centers"][0])
    rep["n_balls"] += 1


def _far_center(rep):
    rep["centers"][0] = [[-1.0, 0.0]] + rep["centers"][0][1:]


CORRUPTIONS = {
    ("pack", 2): [_set(["disjoint"], False), _far_center,
                  _set(["n_balls"], 0)],
    ("pack", 1): [_duplicate_center, _set(["doubled_cover_fraction"], 0.99)],
    ("criteria_sigma", None): [
        _set(["profiles", "iii", "extremal"], 1.0 + 1e-9)],
    ("origin_degenerate", None): [
        _set(["conditions", t, "verdict"], "positive") for t in ("i", "ii",
                                                                 "iii")],
    ("dbr_constant", None): [
        lambda rep: rep.update(necessary_constant=rep["necessary_constant"]
                               * (1 + 1e-9)),
        _set(["necessary_constant"], "inf"),
        _set(["one_minus_b", "verdict"], "inconclusive")],
    ("refute_inconclusive", None): [_set(["verdict"], "refuted")],
}
WORKLOAD_OF = {"pack": "packing", "criteria_sigma": "verdicts",
               "origin_degenerate": "verdicts", "dbr_constant": "verdicts",
               "refute_inconclusive": "verdicts"}


@pytest.mark.parametrize("check, dim", sorted(CORRUPTIONS, key=str))
def test_corrupted_report_fails(check, dim, tmp_path):
    op, files = _checked_op(WORKLOAD_OF[check], check, dim)
    code, rep = _run_op(op, files, tmp_path)
    assert checks.check_op(op, code, json.dumps(rep)) == []
    for corrupt in CORRUPTIONS[check, dim]:
        bad = copy.deepcopy(rep)
        corrupt(bad)
        assert checks.check_op(op, code, json.dumps(bad)), corrupt


def test_generic_report_failures(tmp_path):
    op, files = _checked_op("verdicts", "criteria_sigma")
    code, rep = _run_op(op, files, tmp_path)
    text = json.dumps(rep)
    assert checks.check_op(op, code, text) == []
    assert checks.check_op(op, 2, text)
    assert checks.check_op(op, "raised RuntimeError: boom", text)
    assert checks.check_op(op, code, None)
    assert checks.check_op(op, code, text[:-5])
    assert checks.check_op(op, code, json.dumps(dict(rep, command="pack")))
    nan = copy.deepcopy(rep)
    nan["profiles"]["ii"]["values"][0] = float("nan")
    assert checks.check_op(op, code, json.dumps(nan))


# ---------------------------------------------------------------------------
# tail percentile

@pytest.mark.parametrize("n, pct, value, beyond", [
    (40, 75, 30.75, 10), (60, 75, 45.75, 15), (100, 90, 90.9, 10),
    (130, 90, 117.9, 13)])
def test_tail_is_the_fixed_percentile(n, pct, value, beyond):
    lat = [float(i) for i in range(n, 0, -1)]
    assert run.op_tail(lat, pct) == (pytest.approx(value), beyond, n)


def test_tail_is_taken_over_every_op_run():
    passes = [{"latencies": [float(i) for i in range(1, 25)]}
              for _ in range(2)]
    passes.append({"latencies": [1.0, 2.0]})            # cut by the deadline
    metrics, extra = run.end_to_end(passes, [0.5], 80)
    assert (extra["op_tail_count"], extra["op_tail_percentile"],
            extra["op_tail_beyond"]) == (50, 80, 10)
    assert metrics["op_tail_s"] == pytest.approx(19.8)  # 20 .. 24 beyond
    assert metrics["op_p50_s"] == 12.5
    assert metrics["wall_s"] == 300.0


# ---------------------------------------------------------------------------
# set-up probes

def test_setup_probes_are_spread_over_the_window(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(run, "setup_probe", lambda scratch: clock[0])
    probes = run.SetupProbes(Path("."), 16.0)
    for now in range(16):
        clock[0] = float(now)
        probes.take_due()
    assert len(probes.times) == run.SETUP_PROBES
    assert probes.times == [math.ceil(16.0 * (k + 0.5) / run.SETUP_PROBES)
                            for k in range(run.SETUP_PROBES)]
    late = run.SetupProbes(Path("."), 16.0)
    assert len(late.finish()) == run.SETUP_PROBES


# ---------------------------------------------------------------------------
# tracing

def _module_holders(fn):
    return sorted(f"{name}.{attr}" for name, mod in sys.modules.items()
                  if name.split(".")[0] == "revcarleson"
                  for attr, value in vars(mod).items() if value is fn)


def test_tracer_wraps_every_holder_and_restores(tmp_path):
    import revcarleson.cli  # noqa: F401  loads every module
    originals = {(layer, f): getattr(sys.modules[f"revcarleson.{layer}"], f)
                 for layer, names in LAYERS.items() for f in names}
    holders = {k: _module_holders(fn) for k, fn in originals.items()}
    tracer = Tracer()
    tracer.install()
    try:
        patched = set(tracer.patched_names())
        for names in holders.values():
            assert set(names) <= patched
        for name in ("revcarleson.cli.greedy_packing",
                     "revcarleson.cli.integrate_sphere",
                     "revcarleson.cli.kernel_norm",
                     "revcarleson.criteria.measure_of_ball",
                     "revcarleson.criteria.integrate_measure",
                     "revcarleson.criteria.hp_norm",
                     "revcarleson.measures.integrate_window",
                     "revcarleson.dbr.refine",
                     "revcarleson.dbr.integrate_measure"):
            assert name in patched
    finally:
        tracer.restore()
    for k, fn in originals.items():
        assert _module_holders(fn) == holders[k]


def test_traced_pass_matches_untraced(tmp_path):
    from revcarleson.cli import main
    wl = workloads.Workload()
    m = wl.add_file("m.yaml", {"dimension": 1,
                               "interior_density": {"pow": [{"abs_z": None},
                                                            2.0]}})
    wl.add("criteria", "--dim", 1, "--resolution", 64, "--measure", m)
    wl.add("pack", "--dim", 1, "--delta", 0.3, "--h", 0.05,
           "--grid-points", 100)
    indir = tmp_path / "in"
    indir.mkdir()
    (indir / m).write_text(wl.files[m])
    plain = run.run_pass(main, wl, indir, tmp_path / "p0")
    run.inspect_pass(wl, plain)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.run_pass(main, wl, indir, tmp_path / "p1", tracer)
    finally:
        tracer.restore()
    run.inspect_pass(wl, traced)
    assert plain["digests"] == traced["digests"]
    spans, counts = tracer.take()
    names = {s[3] for s in spans}
    assert {"cli.criteria", "cli.pack", "geometry.greedy_packing",
            "quadrature.integrate_window"} <= names
    assert counts["geometry.balls"] > 0
    assert counts["quadrature.integrate_window.radial_nodes"] > 0
    roots = [s for s in spans if s[1] is None]
    assert [s[3] for s in roots] == ["cli.criteria", "cli.pack"]


def test_per_layer_uses_whole_pairs_and_splits_volume_ops():
    wl = workloads.generate("verdicts", 0)
    n, vol = len(wl.ops), wl.volume_ops
    assert 0 < vol.start < vol.stop == n

    def fake(k, ops, window_in):
        spans = [(0, None, f"p{k}.{i}", "quadrature.integrate_window",
                  0.0, 0.25) for i in window_in]
        return {"spans": spans, "counts": Counter(), "latencies": [1.0] * ops,
                "codes": [0] * ops, "report_bytes": 1, "wall": float(ops),
                "digests": ["0"] * ops}

    whole = fake(1, n, [0, vol.start, vol.start + 1])
    cut = fake(3, n - 1, [vol.start] * 8)
    produced = run.per_layer(wl, [whole, cut], [fake(0, n, []),
                                                fake(2, n, [])], {})
    assert produced["quadrature.integrate_window.calls"] == 3
    assert produced["quadrature.integrate_window.volume_share"] == \
        pytest.approx(0.5 / len(vol))
    assert produced["trace.overhead"] == 0.0


# ---------------------------------------------------------------------------
# host-speed reference

def test_host_reference_is_spaced_and_scales_to_the_anchor(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(hostspeed.time, "perf_counter", lambda: clock[0])

    def reference():                  # takes 2 ms at first, then 4 ms
        clock[0] += 0.002 if not host.times else 0.004

    monkeypatch.setattr(hostspeed, "reference", reference)
    host = hostspeed.HostSpeed()
    for now in (0.0, 0.1, 0.6, 0.7, 1.2):
        clock[0] = now
        host.take_due()
    assert host.times == pytest.approx([0.002, 0.004, 0.004])
    assert host.factor() == pytest.approx(hostspeed.REFERENCE_S / 0.004)


# ---------------------------------------------------------------------------
# BENCHMARK.json

def test_declared_metrics_match_output():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    wl = workloads.generate("verdicts", 0)
    fake = {"spans": [], "counts": Counter(), "latencies": [1.0] * len(wl.ops),
            "codes": [0] * len(wl.ops), "report_bytes": 1, "wall": 1.0,
            "digests": ["0"] * len(wl.ops)}
    produced = run.per_layer(wl, [fake], [fake], {})
    assert [m["name"] for m in spec["per_layer"]] == list(produced)
    assert all(m["unit"] == run.unit_of(m["name"])
               for m in spec["per_layer"] + spec["end_to_end"])


def test_fails_without_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verdicts", "--seed",
         "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

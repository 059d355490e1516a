"""End-to-end runs of the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from revcarleson import cli
from revcarleson.cli import main
from revcarleson.criteria import SearchGrid, forward_profile, window_profile
from revcarleson.measures import load_measure
from revcarleson.quadrature import radial_rule, sphere_grid

ROOT = Path(__file__).resolve().parents[1]
CONST_SYMBOL = "kind: constant\ndimension: 1\ndata: {value: [0.5, 0.0]}\n"
POINTS = ("points:\n- [[0.5, 0.0]]\n- [[0.75, 0.0]]\n- [[0.875, 0.0]]\n")
ATOM_MEASURE = ("dimension: 1\n"
                "interior_atoms:\n- {point: [[0.0, 0.0]], mass: 1.0}\n")
VOLUME_MEASURE = ("dimension: 1\n"
                  "interior_density: {pow: [{abs_z: null}, 2.0]}\n"
                  "boundary_density: 0.5\n"
                  "interior_atoms:\n- {point: [[0.9, 0.0]], mass: 0.2}\n")


def run(argv):
    return main(argv)


def test_verify_kernels_p2_passes(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run(["verify-kernels", "--dim", "1", "--p", "2",
                "--resolution", "512", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["max_rel_err"] <= 1e-6


def test_verify_kernels_general_p_checks_exact_norm(tmp_path):
    # the closed form is exact only at p = 2; at p = 4 the check is against
    # closed * 2F1(d - pd/2, d - pd/2; d; |w|^2)^(1/p), which the spectrally
    # exact d = 1 rule meets, and the report carries both values
    out = tmp_path / "r.json"
    code = run(["verify-kernels", "--dim", "1", "--p", "4",
                "--resolution", "512", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())["kernel_norms"]
    for row in rows:
        assert row["rel_err"] == \
            abs(row["quadrature"] - row["exact"]) / row["exact"]
    assert rows[-1]["exact"] > 1.1 * rows[-1]["closed_form"]


def test_criteria_writes_csv_curves(tmp_path, capsys):
    out = tmp_path / "c.json"
    code = run(["criteria", "--dim", "1", "--resolution", "512",
                "--out", str(out)])
    assert code == 0
    for name in ("ii", "iii", "window", "forward"):
        assert (tmp_path / f"c.{name}.csv").exists()
    doc = json.loads(out.read_text())
    assert set(doc["profiles"]) == {"i", "ii", "iii", "window", "forward"} - {"i"}


def test_criteria_window_and_forward_profiles_match_library(tmp_path):
    # the CLI reads both profiles off one pass over the cells
    mu_path = tmp_path / "mu.yaml"
    mu_path.write_text(VOLUME_MEASURE)
    out = tmp_path / "c.json"
    assert run(["criteria", "--dim", "1", "--resolution", "256",
                "--measure", str(mu_path), "--out", str(out)]) == 0
    profiles = json.loads(out.read_text())["profiles"]
    mu, grid, rad = load_measure(mu_path), sphere_grid(1, 256), \
        radial_rule(1, 24)
    sg = SearchGrid(1, 8, 6)
    for name, prof in (("window", window_profile(mu, sg, grid, rad)),
                       ("forward", forward_profile(mu, sg, grid, rad))):
        assert profiles[name]["values"] == prof.values.tolist()
        assert profiles[name]["extremal"] == prof.extremal
    assert profiles["window"]["extremal"] < profiles["forward"]["extremal"]


def test_equivalence_sigma(tmp_path):
    out = tmp_path / "e.json"
    code = run(["equivalence", "--dim", "1", "--resolution", "512",
                "--refinements", "2", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["agreement"] is True
    assert set(doc["conditions"]) == {"i", "ii", "iii"}


def test_equivalence_with_measure_file(tmp_path):
    mu = tmp_path / "mu.yaml"
    mu.write_text(ATOM_MEASURE)
    code = run(["equivalence", "--dim", "1", "--resolution", "512",
                "--refinements", "2", "--measure", str(mu),
                "--out", str(tmp_path / "e.json")])
    assert code == 0


def test_pack(tmp_path):
    out = tmp_path / "p.json"
    code = run(["pack", "--dim", "1", "--delta", "0.5", "--h", "0.05",
                "--grid-points", "2000", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["disjoint"] is True
    assert doc["n_balls"] >= 1


@pytest.mark.parametrize("points", ["0", "-5"])
def test_pack_rejects_nonpositive_grid_points(tmp_path, capsys, points):
    code = run(["pack", "--dim", "1", "--delta", "0.5", "--h", "0.05",
                "--grid-points", points, "--out", str(tmp_path / "p.json")])
    assert code == 2
    assert "--grid-points must be positive" in capsys.readouterr().err
    assert not (tmp_path / "p.json").exists()


def test_dbr_check(tmp_path):
    sym = tmp_path / "b.yaml"
    sym.write_text(CONST_SYMBOL)
    out = tmp_path / "d.json"
    code = run(["dbr-check", "--dim", "1", "--symbol", str(sym),
                "--resolution", "512", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["necessary_constant"] == pytest.approx(4.0 / 3.0)
    assert doc["inner_fraction"] == 0.0


def test_refute_sampling(tmp_path):
    sym = tmp_path / "b.yaml"
    sym.write_text(CONST_SYMBOL)
    pts = tmp_path / "w.yaml"
    pts.write_text(POINTS)
    out = tmp_path / "s.json"
    code = run(["refute-sampling", "--dim", "1", "--symbol", str(sym),
                "--points", str(pts), "--resolution", "512",
                "--refinements", "2", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "refuted"


def test_missing_file_is_input_error(tmp_path, capsys):
    code = run(["dbr-check", "--dim", "1",
                "--symbol", str(tmp_path / "nope.yaml")])
    assert code == 2


def test_bad_dimension_is_input_error():
    assert run(["criteria", "--dim", "0"]) == 2


def test_dimension_mismatch_is_input_error(tmp_path):
    sym = tmp_path / "b.yaml"
    sym.write_text(CONST_SYMBOL)
    assert run(["dbr-check", "--dim", "2", "--symbol", str(sym),
                "--resolution", "8"]) == 2


def test_config_file_sets_defaults(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("dim: 1\nresolution: 512\nseed: 5\n")
    out = tmp_path / "r.json"
    assert run(["criteria", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["seed"] == 5


@pytest.mark.parametrize("text,message", [
    ("dim: 1\nresolution: abc\n",
     "config field 'resolution' must be int, got 'abc'"),
    ("seed: null\n", "config field 'seed' must be int, got None"),
    ("5\n", "config file must hold a mapping"),
])
def test_malformed_config_value_is_input_error(tmp_path, capsys, text,
                                               message):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    assert run(["criteria", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("points: []\n", "needs at least one point"),
    ("[]\n", "points file must hold a mapping"),
])
def test_empty_sampling_points_is_input_error(tmp_path, capsys, text,
                                              message):
    sym = tmp_path / "b.yaml"
    sym.write_text(CONST_SYMBOL)
    pts = tmp_path / "w.yaml"
    pts.write_text(text)
    assert run(["refute-sampling", "--dim", "1", "--symbol", str(sym),
                "--points", str(pts), "--resolution", "64"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("points: 5\n", "points field 'points' must be a list, got 5"),
    ("points:\n- [[0.5, 0.0]]\n- [[0.5]]\n",
     "points field 'points' entry 1 must be [[re, im], ...], got [[0.5]]"),
])
def test_malformed_sampling_points_is_input_error(tmp_path, capsys, text,
                                                  message):
    sym = tmp_path / "b.yaml"
    sym.write_text(CONST_SYMBOL)
    pts = tmp_path / "w.yaml"
    pts.write_text(text)
    assert run(["refute-sampling", "--dim", "1", "--symbol", str(sym),
                "--points", str(pts), "--resolution", "64"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("part", ["interior_density", "boundary_density"])
def test_fractional_power_of_negative_density_is_input_error(
        tmp_path, capsys, part):
    mu = tmp_path / "mu.yaml"
    mu.write_text(f"dimension: 1\n{part}: {{pow: [{{re: 0}}, 0.5]}}\n")
    assert run(["criteria", "--dim", "1", "--resolution", "64",
                "--measure", str(mu), "--out", str(tmp_path / "c.json")]) == 2
    err = capsys.readouterr().err
    assert "density node {'pow': [{'re': 0}, 0.5]}" in err
    assert "non-integer power" in err


@pytest.mark.parametrize("node", [
    "{abs_inner: {w: [[0.5]]}}",
    "{indicator: {center: [[0.5]], delta: 0.5}}",
])
def test_malformed_density_point_is_input_error(tmp_path, capsys, node):
    mu = tmp_path / "mu.yaml"
    mu.write_text(f"dimension: 1\nboundary_density: {node}\n")
    assert run(["criteria", "--dim", "1", "--resolution", "64",
                "--measure", str(mu), "--out", str(tmp_path / "c.json")]) == 2
    assert "a point must be a list [[re, im], ...] of finite numbers, " \
        "one pair per coordinate, got [[0.5]]" in capsys.readouterr().err


@pytest.mark.parametrize("node,message", [
    ("{abs_inner: 5}",
     "density node {'abs_inner': 5} must take a mapping {w: point}"),
    ("{indicator: [0.5]}", "density node {'indicator': [0.5]} must take "
     "a mapping {center: point, delta: number}"),
    ("{sum: 5}", "density node {'sum': 5} must take a list of nodes"),
    ("{prod: {re: 0}}",
     "density node {'prod': {'re': 0}} must take a list of nodes"),
    ("{pow: 3}", "density node {'pow': 3} must take a list [node, exponent]"),
    ("{pow: [{re: 0}]}",
     "density node {'pow': [{'re': 0}]} must take a list [node, exponent]"),
    ("{const: null}", "density node {'const': None} must take a number"),
    ("{re: 1}", "density node {'re': 1} reads coordinate 1, but the measure "
     "has dimension 1"),
    ("{sum: [1, {abs_inner: {w: [[0.5, 0.0], [0.1, 0.0]]}}]}",
     "density node {'abs_inner': {'w': [[0.5, 0.0], [0.1, 0.0]]}} has a "
     "point with 2 coordinates, but the measure has dimension 1"),
    ("{indicator: {center: [[1.0, 0.0], [0.0, 0.0]], delta: 0.5}}",
     "has a point with 2 coordinates, but the measure has dimension 1"),
])
@pytest.mark.parametrize("part", ["interior_density", "boundary_density"])
def test_malformed_density_node_is_input_error(tmp_path, capsys, part, node,
                                               message):
    mu = tmp_path / "mu.yaml"
    mu.write_text(f"dimension: 1\n{part}: {node}\n")
    assert run(["criteria", "--dim", "1", "--resolution", "64",
                "--measure", str(mu), "--out", str(tmp_path / "c.json")]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_unknown_config_field_is_input_error(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("frobnicate: 3\n")
    assert run(["criteria", "--config", str(cfg)]) == 2


def test_one_parser_serves_every_call(tmp_path):
    # main builds its parser once per process: calls with different
    # subcommands in one process write the reports that fresh processes do
    runs = [["verify-kernels", "--dim", "1", "--resolution", "64"],
            ["pack", "--dim", "1", "--delta", "0.5", "--h", "0.1",
             "--grid-points", "1000"],
            ["verify-kernels", "--dim", "1", "--p", "4", "--resolution",
             "64"]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for i, argv in enumerate(runs):
        here, fresh = tmp_path / f"here{i}.json", tmp_path / f"fresh{i}.json"
        code = run(argv + ["--out", str(here)])
        out = subprocess.run(
            [sys.executable, "-m", "revcarleson.cli", *argv,
             "--out", str(fresh)], env=env, capture_output=True, text=True,
            timeout=120)
        assert out.returncode == code, out.stderr
        assert here.read_bytes() == fresh.read_bytes()
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("argv", [
    ["verify-kernels", "--dim", "1", "--resolution", "512"],
    ["criteria", "--dim", "1", "--resolution", "512"],
    ["equivalence", "--dim", "1", "--resolution", "512",
     "--refinements", "2"],
    ["pack", "--dim", "1", "--delta", "0.5", "--h", "0.1",
     "--grid-points", "1000"],
])
def test_reports_byte_identical_across_runs(argv, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("text,message", [
    ("dimension: 1\ninterior_atoms: 3\n",
     "measure field 'interior_atoms' must be a list, got 3"),
    ("dimension: 1\nboundary_atoms:\n- 7\n",
     "measure field 'boundary_atoms' entry 0 must be"),
    ("dimension: 1\ninterior_atoms:\n- {point: 0.5, mass: 1.0}\n",
     "measure field 'interior_atoms' entry 0 must be"),
    ("dimension: [1]\n", "measure field 'dimension' must be an integer"),
    ("[1, 2]\n", "measure file must hold a mapping"),
    ("dimension: [1\n", "while parsing a flow sequence"),
])
def test_malformed_measure_is_input_error(tmp_path, capsys, text, message):
    mu = tmp_path / "mu.yaml"
    mu.write_text(text)
    assert run(["criteria", "--dim", "1", "--resolution", "64",
                "--measure", str(mu), "--out", str(tmp_path / "c.json")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["dbr-check", "refute-sampling"])
@pytest.mark.parametrize("text,message", [
    ("kind: constant\ndimension: 1\ndata: 5\n",
     "symbol field 'data' of kind 'constant' must be {value: [re, im]}"),
    ("kind: polynomial\ndimension: 1\ndata: {terms: [{coeff: 1}]}\n",
     "symbol field 'data' of kind 'polynomial' must be"),
    ("kind: blaschke\ndimension: 1\ndata: {zeros: [0.5]}\n",
     "symbol field 'data' of kind 'blaschke' must be"),
    ("kind: constant\ndimension: one\ndata: {value: [0.5, 0]}\n",
     "symbol field 'dimension' must be an integer"),
    ("kind: [constant]\ndata: {value: [0.5, 0]}\n",
     "unknown symbol kind ['constant']"),
    ("5\n", "symbol file must hold a mapping"),
])
def test_malformed_symbol_is_input_error(tmp_path, capsys, command, text,
                                         message):
    sym = tmp_path / "b.yaml"
    sym.write_text(text)
    pts = tmp_path / "w.yaml"
    pts.write_text(POINTS)
    argv = [command, "--dim", "1", "--symbol", str(sym),
            "--resolution", "64", "--out", str(tmp_path / "r.json")]
    if command == "refute-sampling":
        argv += ["--points", str(pts)]
    assert run(argv) == 2
    assert message in capsys.readouterr().err

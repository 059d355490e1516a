"""End-to-end runs of the command-line interface."""

import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from revcarleson import cli, criteria
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


# 10^400 as a YAML integer: Python reads it whole, and no float holds it
BIG = "1" + "0" * 400


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
    # the CLI reads both profiles off one walk over the cells
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


def test_criteria_walks_each_cell_once_on_one_table(tmp_path, monkeypatch):
    # condition (iii), the window and the forward profile are read off one
    # walk, one cap pass per centre, and condition (ii) off the same node
    # table: 8 centres x 7 deltas
    builds, calls = [], Counter()
    real_build = criteria._NodeTable.build.__func__
    real_caps = criteria._NodeTable.caps

    def counting_build(cls, *args, **kwargs):
        builds.append(args)
        return real_build(cls, *args, **kwargs)

    def counting_caps(self, c, deltas, t=None):
        calls[tuple(c)] += len(deltas)
        return real_caps(self, c, deltas, t)

    monkeypatch.setattr(criteria._NodeTable, "build",
                        classmethod(counting_build))
    monkeypatch.setattr(criteria._NodeTable, "caps", counting_caps)
    assert run(["criteria", "--dim", "1", "--resolution", "2048",
                "--out", str(tmp_path / "c.json")]) == 0
    assert len(builds) == 1
    assert list(calls.values()) == [7] * 8


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


def test_two_kernel_combinations_set_condition_i(tmp_path, monkeypatch):
    # condition (i)'s random two-kernel witnesses can set its minimum: on
    # |z|^k with no boundary mass, whose true answer is degenerate, they
    # give condition (i) that verdict, and the kernels alone do not
    mu = tmp_path / "mu.yaml"
    mu.write_text("dimension: 1\n"
                  "interior_density: {pow: [{abs_z: null}, "
                  "1.5627191561438336]}\n")
    out = tmp_path / "e.json"
    argv = ["equivalence", "--dim", "1", "--resolution", "2048", "--seed",
            "920", "--refinements", "2", "--measure", str(mu),
            "--out", str(out)]
    run(argv)
    cond = json.loads(out.read_text())["conditions"]["i"]
    assert cond["verdict"] == "degenerate"
    assert cond["trend"] == pytest.approx([0.0834, 0.0439], abs=1e-4)
    ws = criteria._w_points(SearchGrid(1, 8, 6, seed=920).refine())
    combos = criteria._combinations(1, ws, 920)
    assert cond["arg_extremal"] in [repr(f)[:120] for f in combos]
    monkeypatch.setattr(criteria, "_N_COMBOS", 0)
    run(argv)
    cond = json.loads(out.read_text())["conditions"]["i"]
    assert cond["verdict"] == "positive"
    assert cond["trend"] == pytest.approx([0.0869, 0.0532], abs=1e-4)


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


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_verify_kernels_rejects_tol_not_finite_nonnegative(tmp_path, capsys,
                                                         monkeypatch, tol):
    # rejected before any quadrature: no sphere grid is built
    monkeypatch.setattr(cli.ExperimentConfig, "sphere", None)
    code = run(["verify-kernels", "--dim", "1", "--tol", tol,
                "--out", str(tmp_path / "v.json")])
    assert code == 2
    assert (f"--tol must be a finite number >= 0, got {float(tol)}"
            in capsys.readouterr().err)
    assert not (tmp_path / "v.json").exists()


@pytest.mark.parametrize("h", ["nan", "0", "0.5"])
def test_pack_rejects_h_outside_zero_delta(tmp_path, capsys, h):
    code = run(["pack", "--dim", "1", "--delta", "0.5", "--h", h,
                "--out", str(tmp_path / "p.json")])
    assert code == 2
    assert (f"packing radius h must lie in (0, delta) = (0, 0.5), "
            f"got {float(h)}") in capsys.readouterr().err
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("argv,message", [
    # an arc of 6.6e9 candidates at step h/8 (49 GiB)
    (["--dim", "1", "--h", "1e-9"], "its arc of candidates would hold more "
     "than 1000000 points"),
    # 8 (2 delta / (h/4))^2 overflows
    (["--dim", "2", "--h", "1e-300"], "of candidate cells overflows"),
])
def test_pack_rejects_tiny_h_before_building_arrays(tmp_path, capsys, argv,
                                                    message):
    code = run(["pack", "--delta", "0.4", *argv,
                "--out", str(tmp_path / "p.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"input error: --h {float(argv[-1])}: packing radius h" in err
    assert message in err
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


@pytest.mark.parametrize("zero", [0.99999, 0.999999])
def test_dbr_check_reads_symbol_at_boundary_atom(tmp_path, capsys, zero):
    # a Blaschke product extends continuously to the closed disc (b(1) = -1
    # here), so a boundary atom at 1 next to a zero near it is no input error
    sym = tmp_path / "b.yaml"
    sym.write_text(f"kind: blaschke\ndimension: 1\n"
                   f"data: {{zeros: [[{zero}, 0.0]]}}\n")
    mu = tmp_path / "mu.yaml"
    mu.write_text("dimension: 1\nboundary_density: 1.0\n"
                  "boundary_atoms:\n- {point: [[1.0, 0.0]], mass: 0.5}\n")
    out = tmp_path / "d.json"
    code = run(["dbr-check", "--dim", "1", "--resolution", "256", "--symbol",
                str(sym), "--measure", str(mu), "--out", str(out)])
    assert code == 0
    assert "kernel_test_min" in capsys.readouterr().out
    assert math.isfinite(json.loads(out.read_text())["kernel_test"]["extremal"])


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


NEAR_ONE_SYMBOL = ("kind: constant\ndimension: 1\n"
                   "data: {value: [0.9999999, 0.0]}\n")


def test_dbr_check_constant_near_one_is_not_inner(tmp_path):
    # |b| = 0.9999999 < 1 everywhere: not inner, and the pointwise constant
    # on sigma is 1 / (1 - |c|^2), about 5e6, with no node exempt
    sym = tmp_path / "b.yaml"
    sym.write_text(NEAR_ONE_SYMBOL)
    out = tmp_path / "d.json"
    assert run(["dbr-check", "--dim", "1", "--symbol", str(sym),
                "--resolution", "512", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["inner_fraction"] == 0.0
    assert doc["necessary_constant"] == pytest.approx(
        1.0 / (1.0 - 0.9999999 ** 2), rel=1e-12)
    assert "exempt_fraction" not in doc


def test_refute_sampling_constant_near_one_is_not_inner(tmp_path):
    sym = tmp_path / "b.yaml"
    sym.write_text(NEAR_ONE_SYMBOL)
    pts = tmp_path / "w.yaml"
    pts.write_text(POINTS)
    out = tmp_path / "s.json"
    assert run(["refute-sampling", "--dim", "1", "--symbol", str(sym),
                "--points", str(pts), "--resolution", "512",
                "--refinements", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["inner_fraction"] == 0.0
    assert "inner-like symbol" not in doc["detail"]


def test_dbr_check_polynomial_touching_one_is_not_inner(tmp_path):
    # |(1 + z) / 2| = 1 only at z = 1, a sigma-null set
    sym = tmp_path / "b.yaml"
    sym.write_text("kind: polynomial\ndimension: 1\ndata: {terms: ["
                   "{coeff: [0.5, 0.0], exponents: [0]}, "
                   "{coeff: [0.5, 0.0], exponents: [1]}]}\n")
    out = tmp_path / "d.json"
    assert run(["dbr-check", "--dim", "1", "--symbol", str(sym),
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["inner_fraction"] == 0.0


@pytest.mark.parametrize("dim,exponents", [
    (3, [40, 0, 0]),
    (2, [200, 0]),
])
def test_one_term_symbol_above_one_is_input_error(tmp_path, capsys, dim,
                                                  exponents):
    # sup |1.001 z1^k| = 1.001 at e1, which the sampled sphere points miss
    sym = tmp_path / "b.yaml"
    sym.write_text(f"kind: polynomial\ndimension: {dim}\ndata: {{terms: "
                   f"[{{coeff: [1.001, 0.0], exponents: {exponents}}}]}}\n")
    out = tmp_path / "d.json"
    assert run(["dbr-check", "--dim", str(dim), "--symbol", str(sym),
                "--resolution", "64", "--out", str(out)]) == 2
    assert "polynomial symbol has sup |b| ~ 1.001 > 1" in \
        capsys.readouterr().err
    assert not out.exists()


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
    (f"threshold: {BIG}\n", f"config field 'threshold' must be float, "
     f"got {BIG}"),
    (f"resolution: -{BIG}\n", f"config field 'resolution' must be int, "
     f"got -{BIG}"),
    ("eps_inner: 1e-6\n", "unknown config fields: ['eps_inner']"),
    ("5\n", "config file must hold a mapping"),
])
def test_malformed_config_value_is_input_error(tmp_path, capsys, text,
                                               message):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    assert run(["criteria", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flags,text,message", [
    (["--seed", "-1"], "", "seed must be >= 0, got -1"),
    (["--threshold", "nan"], "",
     "threshold must be a finite number >= 0, got nan"),
    ([], "radial_resolution: 0\n", "radial_resolution must be >= 1, got 0"),
    ([], "search_centers: 0\n", "search_centers must be >= 1, got 0"),
    ([], "search_kmax: 60\n", "search_kmax must be >= 1 with search_kmax + "
     "refinements - 1 <= 53, got 60"),
])
def test_out_of_range_config_value_is_input_error(tmp_path, capsys, flags,
                                                  text, message):
    # refute-sampling reads every one of these fields; a bad value exits 2
    # with a message naming its field, before any report is written
    sym, pts, cfg = (tmp_path / "b.yaml", tmp_path / "w.yaml",
                     tmp_path / "cfg.yaml")
    sym.write_text(CONST_SYMBOL)
    pts.write_text(POINTS)
    cfg.write_text("dim: 1\n" + text)
    out = tmp_path / "s.json"
    assert run(["refute-sampling", "--symbol", str(sym), "--points", str(pts),
                "--config", str(cfg), "--out", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["criteria", "equivalence"])
def test_negative_interior_density_is_input_error(tmp_path, capsys, command):
    # checked on the nodes where the density is evaluated, as the boundary
    # density is: Re z_1 is negative on half the disc
    mu = tmp_path / "mu.yaml"
    mu.write_text("dimension: 1\ninterior_density: {re: 0}\n")
    assert run([command, "--dim", "1", "--resolution", "256",
                "--measure", str(mu), "--out", str(tmp_path / "c.json")]) == 2
    err = capsys.readouterr().err
    assert "interior density is negative" in err
    assert "Traceback" not in err


def test_criteria_table_prints_plain_numbers(capsys):
    assert run(["criteria", "--dim", "1", "--resolution", "64"]) == 0
    out = capsys.readouterr().out
    assert "argext" in out
    assert "np.float64" not in out


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
    ("{sum: [2, {re: 1.5}]}",
     "density node {'re': 1.5} must take a coordinate index"),
    ("{indicator: {center: [[1.0, 0.0]], delta: .nan}}",
     "density node {'indicator': {'center': [[1.0, 0.0]], 'delta': nan}} "
     "needs a finite number, got nan"),
    ("{pow: [{abs_z: null}, .nan]}", "density node {'pow': [{'abs_z': None}, "
     "nan]} needs a finite number, got nan"),
    ("{const: .nan}", "density node {'const': nan} needs a finite number, "
     "got nan"),
    ("{const: .inf}", "density node {'const': inf} needs a finite number, "
     "got inf"),
    ("{abs_z: 7}", "density node {'abs_z': 7} must take null"),
    ("{sum: []}", "density node {'sum': []} must take at least one node"),
    ("{prod: []}", "density node {'prod': []} must take at least one node"),
    # a cap indicator's delta lies in (0, 2], as a NonisotropicBall's does
    ("{indicator: {center: [[1.0, 0.0]], delta: -1.0}}",
     "density node {'indicator': {'center': [[1.0, 0.0]], 'delta': -1.0}} "
     "needs a delta in (0, 2], got -1.0"),
    ("{indicator: {center: [[1.0, 0.0]], delta: 0}}",
     "needs a delta in (0, 2], got 0.0"),
    ("{indicator: {center: [[1.0, 0.0]], delta: 2.5}}",
     "needs a delta in (0, 2], got 2.5"),
    # a YAML boolean or a quoted string is no number
    ("true", "density node True must take a number"),
    ("{const: '2.5'}", "density node {'const': '2.5'} must take a number"),
    ("{const: false}", "density node {'const': False} must take a number"),
    ("{pow: [{abs_z: null}, '2']}", "density node {'pow': [{'abs_z': None}, "
     "'2']} must take a list [node, exponent]"),
    ("{indicator: {center: [[1.0, 0.0]], delta: true}}",
     "density node {'indicator': {'center': [[1.0, 0.0]], 'delta': True}} "
     "must take a mapping {center: point, delta: number}"),
    ("{re: true}", "density node {'re': True} must take a coordinate index"),
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
    ["dbr-check", "--dim", "1", "--resolution", "512", "--symbol", "b.yaml"],
    ["refute-sampling", "--dim", "1", "--resolution", "512",
     "--refinements", "2", "--symbol", "b.yaml", "--points", "w.yaml"],
])
def test_reports_byte_identical_across_runs(argv, tmp_path):
    # reports and CSV curves, under the header every subcommand shares
    (tmp_path / "b.yaml").write_text(CONST_SYMBOL)
    (tmp_path / "w.yaml").write_text(POINTS)
    argv = [str(tmp_path / a) if a.endswith(".yaml") else a for a in argv]
    written = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        assert run(argv + ["--out", str(tmp_path / name / "r.json")]) == 0
        written.append({f.name: f.read_bytes()
                        for f in (tmp_path / name).iterdir()})
    assert written[0] == written[1]
    doc = json.loads(written[0]["r.json"])
    assert doc["command"] == argv[0]
    assert doc["version"] == cli.__version__
    assert set(doc["config"]) == set(
        cli.ExperimentConfig.__dataclass_fields__) - {"out"}


def test_curves_are_named_after_the_report_without_its_extension(
        tmp_path, monkeypatch):
    # a dot in a directory name is no extension: the curves go beside the
    # report, not into the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "runs.d").mkdir()
    assert run(["criteria", "--dim", "1", "--resolution", "64",
                "--out", "runs.d/report"]) == 0
    assert [f.name for f in tmp_path.iterdir()] == ["runs.d"]
    assert sorted(f.name for f in (tmp_path / "runs.d").iterdir()) == [
        "report", "report.forward.csv", "report.ii.csv", "report.iii.csv",
        "report.window.csv"]


@pytest.mark.parametrize("text,message", [
    ("dimension: 1\ninterior_atoms: 3\n",
     "measure field 'interior_atoms' must be a list, got 3"),
    ("dimension: 1\nboundary_atoms:\n- 7\n",
     "measure field 'boundary_atoms' entry 0 must be"),
    ("dimension: 1\ninterior_atoms:\n- {point: 0.5, mass: 1.0}\n",
     "measure field 'interior_atoms' entry 0 must be"),
    ("dimension: [1]\n", "measure field 'dimension' must be an integer"),
    ("interior_atoms: []\n", "measure field 'dimension' is missing"),
    ("dimension: 2\ninterior_atoms:\n- {point: [[0.5, 0.0]], mass: 1.0}\n",
     "measure field 'interior_atoms' entry 0 has a point with 1 coordinates, "
     "but the measure has dimension 2"),
    ("dimension: 2\nboundary_atoms:\n- {point: [[0.0, 0.0], [1.0, 0.0]], "
     "mass: 1.0}\n- {point: [[1.0, 0.0]], mass: 1.0}\n",
     "measure field 'boundary_atoms' entry 1 has a point with 1 coordinates, "
     "but the measure has dimension 2"),
    ("dimension: 1\ninterior_atoms:\n- {point: [[1.0, 0.0]], mass: 1}\n",
     "measure field 'interior_atoms' entry 0 has a point of norm 1.0; its "
     "atoms must satisfy |z| < 1"),
    ("dimension: 1\ninterior_atoms:\n- {point: [[0.5, 0.0]], mass: 1}\n"
     "- {point: [[1.5, 0.0]], mass: 1}\n",
     "measure field 'interior_atoms' entry 1 has a point of norm 1.5; its "
     "atoms must satisfy |z| < 1"),
    ("dimension: 1\nboundary_atoms:\n- {point: [[0.5, 0.0]], mass: 1}\n",
     "measure field 'boundary_atoms' entry 0 has a point of norm 0.5; its "
     "atoms must satisfy |z| = 1"),
    ("[1, 2]\n", "measure file must hold a mapping"),
    ("dimension: [1\n", "while parsing a flow sequence"),
    ("dimension: 1\nboundary_atoms:\n- {point: [[1.0, 0.0]], mass: .nan}\n",
     "measure field 'boundary_atoms' entry 0 has mass nan; atom masses must "
     "be finite and positive"),
    ("dimension: 1\ninterior_atoms:\n- {point: [[0.5, 0.0]], mass: 1.0}\n"
     "- {point: [[0.5, 0.0]], mass: .inf}\n",
     "measure field 'interior_atoms' entry 1 has mass inf; atom masses must "
     "be finite and positive"),
    ("dimension: .inf\n", "measure field 'dimension' must be an integer, "
     "got inf"),
    ("dimension: 1.5\n", "measure field 'dimension' must be an integer, "
     "got 1.5"),
    ("dimension: true\n", "measure field 'dimension' must be an integer, "
     "got True"),
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
    ("dimension: 1\ndata: {value: [0.5, 0]}\n", "symbol field 'kind' is missing"),
    ("kind: constant\ndimension: 1\n", "symbol field 'data' is missing"),
    ("5\n", "symbol file must hold a mapping"),
    ("kind: constant\ndimension: .inf\ndata: {value: [0.5, 0]}\n",
     "symbol field 'dimension' must be an integer, got inf"),
    ("kind: constant\ndimension: 1.5\ndata: {value: [0.5, 0]}\n",
     "symbol field 'dimension' must be an integer, got 1.5"),
    ("kind: constant\ndimension: true\ndata: {value: [0.5, 0]}\n",
     "symbol field 'dimension' must be an integer, got True"),
    ("kind: constant\ndimension: 1\ndata: {value: [.nan, 0.0]}\n",
     "constant symbol field 'value' must be finite, got (nan+0j)"),
    ("kind: polynomial\ndimension: 1\ndata: {terms: [{coeff: [.nan, 0.0], "
     "exponents: [1]}]}\n",
     "polynomial symbol field 'coeff' of term 0 must be finite, got (nan+0j)"),
    ("kind: blaschke\ndimension: 1\ndata: {zeros: [[.nan, 0.0]]}\n",
     "blaschke symbol field 'zeros' entry 0 must be finite, got (nan+0j)"),
    ("kind: blaschke\ndimension: 1\ndata: {zeros: [[0.5, 0.0]], "
     "phase: [.nan, 0.0]}\n",
     "blaschke symbol field 'phase' must be finite, got (nan+0j)"),
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


@pytest.mark.parametrize("command", ["dbr-check", "refute-sampling"])
@pytest.mark.parametrize("dim,exponents", [
    (2, "[0, 0, 1]"),          # one exponent more than the dimension
    (1, "[-1]"),               # z^-1 is no symbol
    (1, "[1.5]"),              # not an integer
])
def test_malformed_polynomial_exponents_are_input_error(
        tmp_path, capsys, command, dim, exponents):
    sym = tmp_path / "b.yaml"
    sym.write_text(f"kind: polynomial\ndimension: {dim}\ndata: {{terms: "
                   f"[{{coeff: [0.25, 0.0], exponents: {exponents}}}]}}\n")
    pts = tmp_path / "w.yaml"
    pts.write_text(POINTS)
    argv = [command, "--dim", str(dim), "--symbol", str(sym),
            "--resolution", "64", "--out", str(tmp_path / "r.json")]
    if command == "refute-sampling":
        argv += ["--points", str(pts)]
    assert run(argv) == 2
    assert (f"polynomial symbol term 0 has exponents {exponents}, not {dim} "
            "integers >= 0") in capsys.readouterr().err


@pytest.mark.parametrize("command", ["dbr-check", "refute-sampling"])
def test_overflowing_polynomial_symbol_is_input_error(tmp_path, capsys,
                                                      command):
    # z^(10^23) overflows at the sampled boundary points, so the sup |b|
    # estimate is nan, which no range check catches; it is an input error
    sym = tmp_path / "b.yaml"
    sym.write_text("kind: polynomial\ndimension: 1\ndata: {terms: "
                   "[{coeff: [0.5, 0.0], "
                   "exponents: [100000000000000000000000]}]}\n")
    pts = tmp_path / "w.yaml"
    pts.write_text(POINTS)
    argv = [command, "--dim", "1", "--symbol", str(sym),
            "--resolution", "64", "--out", str(tmp_path / "r.json")]
    if command == "refute-sampling":
        argv += ["--points", str(pts)]
    assert run(argv) == 2
    assert "polynomial symbol overflows: its sup |b| estimate is nan" in \
        capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


D2_SYMBOL = ("kind: polynomial\ndimension: 2\n"
             "data: {terms: [{coeff: [0.25, 0.0], exponents: [0, 1]}]}\n")


@pytest.mark.parametrize("argv_dim,points,message", [
    ("1", "points:\n- [[0.5, 0.0], [0.0, 0.0]]\n",
     "symbol dimension does not match --dim"),
    ("2", POINTS, "sampling point 0 has dimension 1, the symbol 2"),
])
def test_refute_sampling_dimension_mismatch_is_input_error(
        tmp_path, capsys, argv_dim, points, message):
    sym = tmp_path / "b.yaml"
    sym.write_text(D2_SYMBOL)
    pts = tmp_path / "w.yaml"
    pts.write_text(points)
    assert run(["refute-sampling", "--dim", argv_dim, "--symbol", str(sym),
                "--points", str(pts), "--resolution", "8",
                "--out", str(tmp_path / "s.json")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("command", ["dbr-check", "refute-sampling"])
@pytest.mark.parametrize("kind,data,message", [
    # integers no float holds, in each numeric field of a symbol file
    ("polynomial", f"{{terms: [{{coeff: [0.25, 0.0], exponents: [{BIG}]}}]}}",
     f"polynomial symbol term 0 has exponents [{BIG}], not 1 integers >= 0"),
    ("polynomial", f"{{terms: [{{coeff: [{BIG}, 0.0], exponents: [1]}}]}}",
     "symbol field 'data' of kind 'polynomial' must be"),
    ("blaschke", f"{{zeros: [[0.5, 0.0]], phase: [0.0, {BIG}]}}",
     "symbol field 'data' of kind 'blaschke' must be"),
    # unimodular constants, which map the ball onto the circle
    ("blaschke", "{zeros: [], phase: [0.0, 1.0]}",
     "Blaschke symbol needs at least one zero"),
    ("polynomial", "{terms: [{coeff: [0.5, 0.0], exponents: [0]}, "
     "{coeff: [0.1, 0.8], exponents: [0]}]}",
     "polynomial symbol is the constant (0.6+0.8j); it must satisfy |c| < 1"),
])
def test_symbol_file_out_of_float_range_or_unimodular_is_input_error(
        tmp_path, capsys, command, kind, data, message):
    sym, pts = tmp_path / "b.yaml", tmp_path / "w.yaml"
    sym.write_text(f"kind: {kind}\ndimension: 1\ndata: {data}\n")
    pts.write_text(POINTS)
    argv = [command, "--dim", "1", "--symbol", str(sym),
            "--resolution", "64", "--out", str(tmp_path / "r.json")]
    if command == "refute-sampling":
        argv += ["--points", str(pts)]
    assert run(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("key,point", [("boundary_atoms", "[[1.0, 0.0]]"),
                                       ("interior_atoms", "[[0.5, 0.0]]")])
def test_atom_mass_out_of_float_range_is_input_error(tmp_path, capsys, key,
                                                     point):
    mu = tmp_path / "mu.yaml"
    mu.write_text(f"dimension: 1\n{key}:\n- {{point: {point}, "
                  f"mass: {BIG}}}\n")
    assert run(["criteria", "--dim", "1", "--resolution", "64",
                "--measure", str(mu)]) == 2
    assert f"measure field '{key}' entry 0 must be " in \
        capsys.readouterr().err

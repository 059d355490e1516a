"""Malformed input files through the command line: every numeric leaf of a
symbol, measure, points or config document may become a value no reader
should take, and each run must end in an exit code 0-3 with a message and
no traceback; a malformed document exits 2."""

import math

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from revcarleson.cli import main

# values that no numeric field takes: integers no float holds, non-finite
# floats, bools, strings and lists
BAD = [10 ** 400, -10 ** 400, math.nan, math.inf, -math.inf, True, False,
       "x", "1e400", [], [1.0]]

# small grids, so that a run that reads every file stays fast
CONFIG = {"p": 2.0, "resolution": 16, "radial_resolution": 4,
          "search_centers": 1, "search_kmax": 1, "refinements": 2,
          "seed": 0, "threshold": 1e-3}


def _documents(d):
    """Well-formed documents of dimension d, by the flag that reads them."""
    e1 = [[1.0, 0.0]] + [[0.0, 0.0]] * (d - 1)
    z = [[0.3, 0.1]] + [[0.0, 0.0]] * (d - 1)
    polynomial = {"kind": "polynomial", "dimension": d, "data": {"terms": [
        {"coeff": [0.5, 0.0], "exponents": [1] + [0] * (d - 1)},
        {"coeff": [0.25, 0.125], "exponents": [0] * d}]}}
    symbols = [{"kind": "constant", "dimension": d,
                "data": {"value": [0.5, 0.25]}}, polynomial]
    if d == 1:
        symbols.append({"kind": "blaschke", "dimension": 1,
                        "data": {"zeros": [[0.5, 0.0]], "phase": [0.0, 1.0]}})
    measure = {
        "dimension": d,
        "interior_atoms": [{"point": z, "mass": 0.5}],
        "interior_density": {"sum": [0.5, {"pow": [{"abs_z": None}, 2]}]},
        "boundary_density": {"sum": [1.0, {"prod": [0.5, {"re": 0}]}]},
        "boundary_atoms": [{"point": e1, "mass": 0.25}]}
    return {"--symbol": symbols, "--measure": [measure],
            "--points": [{"points": [z, [[0.5, 0.0]] + z[1:]]}],
            "--config": [dict(CONFIG, dim=d)]}


# each subcommand with the files it reads
COMMANDS = {"criteria": ("--config", "--measure"),
            "equivalence": ("--config", "--measure"),
            "dbr-check": ("--config", "--symbol", "--measure"),
            "refute-sampling": ("--config", "--symbol", "--points")}


def _leaves(doc, path=()):
    """The paths to every number of doc (a bool is no number)."""
    if isinstance(doc, dict):
        return [p for k, v in doc.items() for p in _leaves(v, path + (k,))]
    if isinstance(doc, list):
        return [p for i, v in enumerate(doc) for p in _leaves(v, path + (i,))]
    is_number = isinstance(doc, (int, float)) and not isinstance(doc, bool)
    return [path] if is_number else []


def _replace(doc, path, value):
    if not path:
        return value
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[path[0]] = _replace(doc[path[0]], path[1:], value)
    return out


@st.composite
def runs(draw):
    """(argv files, malformed): a subcommand, a dimension, one document per
    file it reads, and whether a number of one of them was replaced by a
    value of BAD."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    d = draw(st.sampled_from([1, 2]))
    docs = _documents(d)
    files = {flag: draw(st.sampled_from(docs[flag]))
             for flag in COMMANDS[command]}
    malformed = draw(st.booleans())
    if malformed:
        flag = draw(st.sampled_from(COMMANDS[command]))
        path = draw(st.sampled_from(_leaves(files[flag])))
        files[flag] = _replace(files[flag], path, draw(st.sampled_from(BAD)))
    return command, d, files, malformed


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(runs())
def test_malformed_input_files_exit_2_with_a_message(tmp_path, capsys, run):
    command, d, files, malformed = run
    argv = [command, "--dim", str(d)]
    for flag, doc in files.items():
        path = tmp_path / f"{flag[2:]}.yaml"
        path.write_text(yaml.safe_dump(doc))
        argv += [flag, str(path)]
    try:
        code = main(argv)
    except Exception as exc:        # a traceback: no reader caught it
        pytest.fail(f"{argv}: {files} raised {exc!r}")
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), (files, code)
    assert (out + err).strip(), (files, code)
    if malformed:
        assert code == 2, (files, code, err)
        assert err.startswith("input error: "), (files, err)

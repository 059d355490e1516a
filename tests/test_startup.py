"""Start-up cost: importing the package and running any subcommand at p = 2
loads no SciPy.  Only verify-kernels at p != 2 imports it, for the exact
kernel norm's 2F1 factor."""

import json
import os
import subprocess
import sys
from pathlib import Path

from scipy.special import hyp2f1

from revcarleson.cli import main

ROOT = Path(__file__).resolve().parents[1]

# run in a fresh interpreter: prints the SciPy modules loaded after the
# imports, the exit code of each argv list in sys.argv[1], and the SciPy
# modules loaded after them, as the last line of stdout
GUARD = """
import json, sys
import revcarleson, revcarleson.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

after_import = scipy_modules()
codes = [revcarleson.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"after_import": after_import, "codes": codes,
                  "after_runs": scipy_modules()}))
"""


def test_no_subcommand_at_p2_loads_scipy(tmp_path):
    sym, pts = tmp_path / "b.yaml", tmp_path / "w.yaml"
    sym.write_text("kind: constant\ndimension: 1\n"
                   "data: {value: [0.5, 0.0]}\n")
    pts.write_text("points:\n- [[0.5, 0.0]]\n- [[0.75, 0.0]]\n")
    small = ["--dim", "1", "--resolution", "64"]
    runs = [["verify-kernels", "--dim", "1", "--resolution", "256"],
            ["criteria", *small],
            ["equivalence", *small, "--refinements", "2"],
            ["pack", "--dim", "2", "--delta", "0.5", "--h", "0.1",
             "--grid-points", "500"],
            ["dbr-check", *small, "--symbol", str(sym)],
            ["refute-sampling", *small, "--refinements", "2",
             "--symbol", str(sym), "--points", str(pts)]]
    runs = [argv + ["--out", str(tmp_path / f"r{i}.json")]
            for i, argv in enumerate(runs)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", GUARD, json.dumps(runs)],
                         env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout.splitlines()[-1])
    assert doc["after_import"] == []
    assert doc["codes"] == [0] * len(runs)
    assert doc["after_runs"] == []


def test_verify_kernels_away_from_p2_keeps_scipy_exact_norm(tmp_path):
    out = tmp_path / "r.json"
    main(["verify-kernels", "--dim", "1", "--p", "3", "--resolution", "512",
          "--out", str(out)])
    rows = json.loads(out.read_text())["kernel_norms"]
    e = 1 - 3 / 2                     # d - pd/2 at d = 1, p = 3
    for row in rows:
        a2 = row["abs_w"] ** 2
        assert row["exact"] == \
            row["closed_form"] * float(hyp2f1(e, e, 1, a2)) ** (1 / 3)

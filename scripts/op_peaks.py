"""Which ops of a benchmark workload raise the process's memory peak.

Runs the warm-up call and then one pass of the ops of a
``bench/workloads.py`` workload, in one process and in order, through
``revcarleson.cli.main`` of this checkout, as ``bench/run.py`` runs them.
It reads the peak resident set (``ru_maxrss``) before the first op and
after each op, and prints every op that raised it, with the increment and
the peak after it, then the peak of the whole pass:

    python3 scripts/op_peaks.py --workload verdicts --seed 1

``--ops N`` runs only the first N ops of the pass.  The peak is the
process's own, so run one workload and seed per process.  It imports from
``bench/`` and writes nothing there.
"""

import argparse
import contextlib
import io
import os
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import run  # noqa: E402  (bench/run.py; it imports no numpy)
import workloads  # noqa: E402


def peak_mib() -> float:
    """The process's peak resident set so far, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, metavar="N",
                    help="run only the first N ops of the pass")
    args = ap.parse_args()
    if args.ops is not None and args.ops < 1:
        ap.error("--ops must be at least 1")
    for var in run.BLAS_ENV:
        os.environ[var] = str(run.BLAS_THREADS)
    from revcarleson.cli import main as cli_main

    wl = workloads.generate(args.workload, args.seed)
    wl.ops = wl.ops[:args.ops]
    with tempfile.TemporaryDirectory() as scratch:
        indir = Path(scratch) / "inputs"
        indir.mkdir()
        for fname, text in wl.files.items():
            (indir / fname).write_text(text)
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main([*workloads.WARM_UP_ARGV, "--out",
                      str(Path(scratch) / "warm-up.json")])
        marks = []                 # the peak before each op, then after
        r = run.run_pass(cli_main, wl, indir, Path(scratch) / "out",
                         between=lambda: marks.append(peak_mib()))
        marks.append(peak_mib())
    print(f"{args.workload} seed {args.seed}: {len(wl.ops)} ops, peak "
          f"{marks[0]:.1f} MiB before the first")
    for i, (op, code) in enumerate(zip(wl.ops, r["codes"])):
        if marks[i + 1] > marks[i]:
            print(f"op {i:3d} {op.command:15s} +{marks[i + 1] - marks[i]:6.1f}"
                  f" MiB -> {marks[i + 1]:6.1f} MiB  exit {code}  "
                  + " ".join(op.argv[1:]))
    print(f"peak of the pass {marks[-1]:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())

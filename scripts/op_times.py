"""Where the time of a benchmark workload goes, op by op.

Runs the warm-up call and then N passes of the ops of a
``bench/workloads.py`` workload, in one process and in order, through
``revcarleson.cli.main`` of this checkout, as ``bench/run.py`` runs them.
It prints each op's median latency over the passes, with its exit code
and arguments, then the sums of the medians over the sphere-path ops, the
volume-path ops (``Workload.volume_ops``: measures with an interior
density) and all ops:

    python3 scripts/op_times.py --workload verdicts --seed 1 --passes 5

The times are raw wall-clock seconds of this host, not scaled to a
reference speed as ``bench/run.py`` scales them, so compare two checkouts
by running each in turn on one host.  It imports from ``bench/`` and
writes nothing there.
"""

import argparse
import contextlib
import io
import os
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import run  # noqa: E402  (bench/run.py; it imports no numpy)
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=3, metavar="N")
    args = ap.parse_args()
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    for var in run.BLAS_ENV:
        os.environ[var] = str(run.BLAS_THREADS)
    from revcarleson.cli import main as cli_main

    wl = workloads.generate(args.workload, args.seed)
    with tempfile.TemporaryDirectory() as scratch:
        indir = Path(scratch) / "inputs"
        indir.mkdir()
        for fname, text in wl.files.items():
            (indir / fname).write_text(text)
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main([*workloads.WARM_UP_ARGV, "--out",
                      str(Path(scratch) / "warm-up.json")])
        passes = [run.run_pass(cli_main, wl, indir, Path(scratch) / f"out{k}")
                  for k in range(args.passes)]
    medians = [statistics.median(p["latencies"][i] for p in passes)
               for i in range(len(wl.ops))]
    print(f"{args.workload} seed {args.seed}: {len(wl.ops)} ops, median "
          f"of {args.passes} passes")
    for i, (op, t) in enumerate(zip(wl.ops, medians)):
        path = "volume" if i in wl.volume_ops else "sphere"
        print(f"op {i:3d} {path} {t:8.4f} s  exit {passes[0]['codes'][i]}  "
              + " ".join(op.argv))
    volume = sum(medians[i] for i in wl.volume_ops)
    print(f"sphere path {sum(medians) - volume:.4f} s over "
          f"{len(wl.ops) - len(wl.volume_ops)} ops")
    print(f"volume path {volume:.4f} s over {len(wl.volume_ops)} ops")
    print(f"all ops {sum(medians):.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

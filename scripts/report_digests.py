"""Digest every report of a benchmark workload, to diff two checkouts.

Runs each op of a ``bench/workloads.py`` workload, for the workload seeds
A .. B-1, through ``revcarleson.cli.main`` of this checkout, once and
untimed, and writes a JSON table to PATH: per op key (``Op.key``), a
sha256 over the op's report, its CSV curves (digested as ``bench/run.py``
digests them) and its exit code.  It imports from ``bench/`` and writes
nothing there, so the tables that two checkouts write can be compared:

    python3 scripts/report_digests.py --workload packing --seeds 0:32 \\
        --out digests-new.json

With ``--against OLD.json`` (a table written so by another checkout) it
prints every op key whose digest differs from OLD's, or that only one of
the two tables holds, and exits 1 if there is any; ``--out`` is then
optional.
"""

import argparse
import hashlib
import json
import os
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
    ap.add_argument("--seeds", required=True, metavar="A:B",
                    help="workload seeds A .. B-1")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--against", type=Path, metavar="OLD.json",
                    help="compare with this table; exit 1 on any difference")
    args = ap.parse_args()
    if args.out is None and args.against is None:
        ap.error("give --out, --against or both")
    start, stop = (int(x) for x in args.seeds.split(":"))
    for var in run.BLAS_ENV:
        os.environ[var] = str(run.BLAS_THREADS)
    from revcarleson.cli import main as cli_main

    table = {}
    with tempfile.TemporaryDirectory() as scratch:
        for seed in range(start, stop):
            wl = workloads.generate(args.workload, seed)
            indir = Path(scratch) / f"in{seed}"
            indir.mkdir()
            for fname, text in wl.files.items():
                (indir / fname).write_text(text)
            r = run.run_pass(cli_main, wl, indir, Path(scratch) / f"o{seed}")
            run.inspect_pass(wl, r)     # digests report and CSVs
            for op, digest, code in zip(wl.ops, r["digests"], r["codes"]):
                table[op.key(wl.files)] = hashlib.sha256(
                    f"{digest}\0exit={code}".encode()).hexdigest()
            print(f"{args.workload} seed {seed}: {len(wl.ops)} ops, exit "
                  f"codes {sorted(set(map(str, r['codes'])))}", flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(table, indent=0, sort_keys=True)
                            + "\n")
        print(f"{len(table)} digests written to {args.out}")
    if args.against is None:
        return 0
    old = json.loads(args.against.read_text())
    differ = sorted(k for k in table.keys() | old.keys()
                    if table.get(k) != old.get(k))
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(differ)} of {len(table.keys() | old.keys())} op keys differ "
          f"from {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

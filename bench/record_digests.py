"""Record the sha256 of every op's report (and CSV curves) into
digests.json, keyed by the op's inputs, for a range of workload seeds.

Run from the repository root, e.g. for seeds 0 to 31:

    python3 bench/record_digests.py --seeds 0:32

The benchmark compares each op it runs against this table and reports the
mismatches as ``cli.reports_changed``: a change that claims to keep reports
byte-identical can show it on every recorded seed.  Ops are run once, untimed.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, metavar="START:STOP",
                    help="record seeds START .. STOP-1")
    args = ap.parse_args()
    start, stop = (int(x) for x in args.seeds.split(":"))
    for var in run.BLAS_ENV:
        os.environ[var] = str(run.BLAS_THREADS)
    sys.path.insert(0, str(run.SRC))
    from revcarleson.cli import main as cli_main

    table = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() \
        else {}
    scratch = run.WORK / f"record-{os.getpid()}"
    try:
        for name in workloads.WORKLOADS:
            for seed in range(start, stop):
                wl = workloads.generate(name, seed)
                indir = scratch / f"{name}-{seed}"
                indir.mkdir(parents=True)
                for fname, text in wl.files.items():
                    (indir / fname).write_text(text)
                with contextlib.redirect_stdout(io.StringIO()):
                    r = run.run_pass(cli_main, wl, indir, indir / "out")
                run.inspect_pass(wl, r)
                bad = [i for i, p in enumerate(r["problems"]) if p]
                if bad:
                    raise RuntimeError(f"{name} seed {seed}: ops {bad} failed")
                for op, digest in zip(wl.ops, r["digests"]):
                    table[op.key(wl.files)] = digest
                print(f"{name} seed {seed}: {len(wl.ops)} ops", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

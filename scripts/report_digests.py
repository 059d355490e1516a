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

``--reports DIR`` keeps each op's report in ``DIR/<op key>.json``: its exit
code, its JSON report and its CSV curves as text.  ``--against-reports
OLD_DIR`` (reports kept so by another checkout) prints, for each op key
whose report differs, whether the exit codes match, the largest relative
change over every number (numbers inside strings, such as an
``arg_extremal`` label or a CSV curve, included) and the path of every
other field that differs; it exits 1 when an exit code or such a
non-numeric field differs, or an op key is on one side only:

    python3 scripts/report_digests.py --workload verdicts --seeds 0:32 \\
        --reports reports-new --against-reports reports-old

It ends with a tally by subcommand and dimension d: how many reports
differ, how many of them only in an ``arg_extremal`` label, each exit-code
transition and each change of a verdict field (``verdict``,
``agreement``, ``passed``, ``disjoint``), old value to new.
"""

import argparse
import hashlib
import json
import math
import os
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import run  # noqa: E402  (bench/run.py; it imports no numpy)
import workloads  # noqa: E402

# a number as reports print it, alone or inside a string
NUMBER = re.compile(
    r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")
# the report fields that hold a verdict, by their last key
VERDICT_KEYS = ("verdict", "agreement", "passed", "disjoint")
# a label field: a change only here moves an extremum's argument
LABEL = "arg_extremal"


def kept_report(outdir: Path, i: int, code) -> dict:
    """Op i's exit code, JSON report (None when it wrote none) and CSV
    curves, from the output directory of a pass."""
    report = outdir / f"op{i:02d}.json"
    return {"exit": code,
            "report": json.loads(report.read_text())
            if report.is_file() else None,
            "curves": {f.name.split(".", 1)[1]: f.read_text()
                       for f in sorted(outdir.glob(f"op{i:02d}.*.csv"))}}


def _rel(new: float, old: float) -> float:
    if new == old or (math.isnan(new) and math.isnan(old)):
        return 0.0
    return abs(new - old) / abs(old) if old and math.isfinite(old) \
        else math.inf


def compare(new, old, path=""):
    """Yield (relative change, path) for each number of new against its
    place in old, and (None, path) for each other field that differs; two
    strings are compared as the numbers in them and the text around them."""
    number = (int, float)
    if isinstance(new, number) and isinstance(old, number) \
            and not isinstance(new, bool) and not isinstance(old, bool):
        yield _rel(float(new), float(old)), path
    elif isinstance(new, str) and isinstance(old, str):
        if NUMBER.split(new) != NUMBER.split(old):
            yield None, path
        for a, b in zip(NUMBER.findall(new), NUMBER.findall(old)):
            yield _rel(float(a), float(b)), path
    elif isinstance(new, dict) and isinstance(old, dict) \
            and new.keys() == old.keys():
        for key in new:
            yield from compare(new[key], old[key], f"{path}.{key}")
    elif isinstance(new, list) and isinstance(old, list) \
            and len(new) == len(old):
        for k, (a, b) in enumerate(zip(new, old)):
            yield from compare(a, b, f"{path}[{k}]")
    elif new != old or type(new) is not type(old):
        yield None, path


def _field(doc, path: str):
    """The value at a path as compare() names it (.key and [index] steps)."""
    for step in re.findall(r"\.([^.[]+)|\[(\d+)\]", path):
        doc = doc[step[0]] if step[0] else doc[int(step[1])]
    return doc


def _group(new_rep: dict, old_rep: dict) -> str:
    """'<subcommand> d=<dim>' of an op, read from whichever of its two
    kept reports holds a JSON report."""
    doc = new_rep.get("report") or old_rep.get("report") or {}
    dim = doc.get("config", {}).get("dim", "?")
    return f"{doc.get('command', '?')} d={dim}"


def against_reports(reports: dict, old_dir: Path) -> int:
    """Print how each op's report differs from the one kept in old_dir,
    then the tally by subcommand and d (see the module docstring); 1 when
    an exit code or a non-numeric field differs anywhere."""
    old = {f.stem: json.loads(f.read_text())
           for f in sorted(old_dir.glob("*.json"))}
    keys, differ, fail = sorted(reports.keys() | old.keys()), 0, False
    tally = {}
    for key in keys:
        if key not in reports or key not in old:
            print(f"{key}: only in {'old' if key in old else 'new'} reports")
            differ, fail = differ + 1, True
            continue
        new_rep, old_rep = reports[key], old[key]
        if new_rep == old_rep:
            continue
        same_exit = new_rep["exit"] == old_rep["exit"]
        found = list(compare({**new_rep, "exit": None},
                             {**old_rep, "exit": None}))
        change = max((rel for rel, _ in found if rel is not None),
                     default=0.0)
        fields = [path for rel, path in found if rel is None]
        print(f"{key}: exit codes "
              + (f"match ({new_rep['exit']})" if same_exit else
                 f"differ ({old_rep['exit']} -> {new_rep['exit']})")
              + f"; largest relative change {change:.3g}"
              + (f"; other fields differ: {', '.join(fields)}"
                 if fields else ""))
        differ, fail = differ + 1, fail or not same_exit or bool(fields)
        counts = tally.setdefault(_group(new_rep, old_rep), Counter())
        counts["differ"] += 1
        moved = [path for rel, path in found if rel is None or rel > 0]
        if same_exit and all(LABEL in path for path in moved):
            counts["label-only"] += 1
        if not same_exit:
            counts[f"exit {old_rep['exit']} -> {new_rep['exit']}"] += 1
        for path in fields:
            if path.rsplit(".", 1)[-1] in VERDICT_KEYS:
                counts[f"{path} {_field(old_rep, path)} -> "
                       f"{_field(new_rep, path)}"] += 1
    print(f"{differ} of {len(keys)} op reports differ from {old_dir}")
    if tally:
        print("by subcommand and d:")
    exits = Counter()
    for group, counts in sorted(tally.items()):
        rest = [f"{name}: {n}" for name, n in sorted(counts.items())
                if name not in ("differ", "label-only")]
        print(f"  {group}: {counts['differ']} differ, "
              f"{counts['label-only']} label-only"
              + "".join(f"; {r}" for r in rest))
        for name, n in counts.items():
            if name.startswith("exit "):
                exits[f"{group.split()[0]} {name[5:]}"] += n
    if exits:
        print("exit-code transitions: " + ", ".join(
            f"{name}: {n}" for name, n in sorted(exits.items())))
    return 1 if fail else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seeds", required=True, metavar="A:B",
                    help="workload seeds A .. B-1")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--against", type=Path, metavar="OLD.json",
                    help="compare with this table; exit 1 on any difference")
    ap.add_argument("--reports", type=Path, metavar="DIR",
                    help="keep each op's report as DIR/<op key>.json")
    ap.add_argument("--against-reports", type=Path, metavar="OLD_DIR",
                    help="compare the reports with those kept in OLD_DIR; "
                         "exit 1 when an exit code or a non-numeric field "
                         "differs")
    args = ap.parse_args()
    if not (args.out or args.against or args.reports
            or args.against_reports):
        ap.error("give --out, --against, --reports or --against-reports")
    start, stop = (int(x) for x in args.seeds.split(":"))
    for var in run.BLAS_ENV:
        os.environ[var] = str(run.BLAS_THREADS)
    from revcarleson.cli import main as cli_main

    table, reports = {}, {}
    with tempfile.TemporaryDirectory() as scratch:
        for seed in range(start, stop):
            wl = workloads.generate(args.workload, seed)
            indir = Path(scratch) / f"in{seed}"
            indir.mkdir()
            for fname, text in wl.files.items():
                (indir / fname).write_text(text)
            r = run.run_pass(cli_main, wl, indir, Path(scratch) / f"o{seed}")
            keys = [op.key(wl.files) for op in wl.ops]
            for i, (key, code) in enumerate(zip(keys, r["codes"])):
                reports[key] = kept_report(r["outdir"], i, code)
            run.inspect_pass(wl, r)     # digests report and CSVs
            for key, digest, code in zip(keys, r["digests"], r["codes"]):
                table[key] = hashlib.sha256(
                    f"{digest}\0exit={code}".encode()).hexdigest()
            print(f"{args.workload} seed {seed}: {len(wl.ops)} ops, exit "
                  f"codes {sorted(set(map(str, r['codes'])))}", flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(table, indent=0, sort_keys=True)
                            + "\n")
        print(f"{len(table)} digests written to {args.out}")
    if args.reports is not None:
        args.reports.mkdir(parents=True, exist_ok=True)
        for key, rep in reports.items():
            (args.reports / f"{key}.json").write_text(
                json.dumps(rep, sort_keys=True) + "\n")
        print(f"{len(reports)} reports written to {args.reports}")
    code = 0
    if args.against_reports is not None:
        code = against_reports(reports, args.against_reports)
    if args.against is None:
        return code
    old = json.loads(args.against.read_text())
    differ = sorted(k for k in table.keys() | old.keys()
                    if table.get(k) != old.get(k))
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(differ)} of {len(table.keys() | old.keys())} op keys differ "
          f"from {args.against}")
    return 1 if differ else code


if __name__ == "__main__":
    sys.exit(main())

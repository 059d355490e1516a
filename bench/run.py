"""Benchmark of the ``revcarleson`` CLI: seeded workloads, end-to-end timings
and a traced run with per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload packing --seed 1 --seconds 50 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):
``packing`` and ``verdicts``.  Load is a closed loop: one client in
one process runs the workload's ops in a fixed order, each op an in-process
``revcarleson.cli.main(argv + ["--out", path])`` call, and cycles through
the list until ``--seconds`` have passed (at least one whole pass).  The
BLAS thread count is fixed to one before numpy is imported.

``--trace 0`` prints the end-to-end metrics.  The four times are scaled to
a reference host speed (see hostspeed.py): each is the raw time times
``REFERENCE_S / median(reference times)``, the reference being a fixed
piece of the benchmark's own work timed between ops through the window.
The raw times are printed beside them and saved in the detail record.

  setup_s      median over several fresh processes of the time from spawn
               to ready: importing revcarleson (numpy, scipy, pyyaml) plus
               the warm-up call.  Input generation is excluded.  The
               processes are started between ops at evenly spaced moments
               of the run window, so they see the host at the same speeds
               as the ops do.
  wall_s       time to every verdict of the workload: the sum over its ops
               of each op's median latency.  (The literal wall time of the
               timed phase is ``--seconds`` by construction.)
  op_p50_s     median per-op latency (each op's median over the passes).
  op_tail_s    the workload's tail percentile (workloads.py) of the
               latencies of every timed op execution; the percentile is
               fixed per workload as the highest that left ten executions
               beyond it in the slowest 50-second run seen.  The count
               beyond it and the execution count are printed.
  peak_rss_mb  peak resident set of this process (ru_maxrss).

``--trace 1`` alternates untraced and traced passes of the same ops until
``--seconds`` have passed and prints the per-layer metrics of the whole
traced passes (see tracing.py), its own wall time beside the untraced one,
and fails an op whose traced report differs from its untraced one.

Every op's outcome is checked (checks.py); the last line of output is
``{"correct", "attempted", "failed", "metrics"}``, where ``failed`` counts
op executions that raised, exited 2, or failed a check.  Machine facts, exit
codes and report digests go to the preceding lines and to
``.bench_work/result-<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import workloads
from hostspeed import HostSpeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH_DIR / "digests.json"

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 8
# shares of the traced op time that the workloads are predicted to show
SHARES = ("geometry.greedy_packing", "quadrature.integrate_window")

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
              "op_tail_s": "s", "peak_rss_mb": "MiB"}


# ---------------------------------------------------------------------------
# statistics

def op_tail(latencies, pct: int) -> tuple:
    """(value, count beyond it, count) of the pct-th percentile of the
    given latencies, interpolated.  The percentile is fixed rather than
    taken as the highest with ten samples beyond it: the sample count
    follows the host's speed, and on a workload whose op costs form a
    coarse ladder a percentile that follows the count jumps between
    neighbouring ops from run to run."""
    value = statistics.quantiles(latencies, n=100)[pct - 1]
    return value, sum(lat > value for lat in latencies), len(latencies)


# ---------------------------------------------------------------------------
# running ops

def run_pass(cli_main, wl, indir: Path, outdir: Path, tracer=None,
             deadline=None, between=None) -> dict:
    """Run the ops of the workload in order, once each, and time each call;
    with a deadline, start no op after it (the pass is then a prefix).
    ``between()`` is called, untimed, before each op."""
    outdir.mkdir()
    argvs = [[str(indir / a) if a in wl.files else a for a in op.argv]
             + ["--out", str(outdir / f"op{i:02d}.json")]
             for i, op in enumerate(wl.ops)]
    latencies, codes = [], []
    sink = io.StringIO()
    start = time.perf_counter()
    for i, (op, argv) in enumerate(zip(wl.ops, argvs)):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if between is not None:
            between()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code = cli_main(argv)
                else:
                    tracer.op_id = f"{outdir.name}.{i}"
                    code = tracer.call(f"cli.{op.command}", cli_main, argv)
            except SystemExit as exc:          # argparse rejected the argv
                code = exc.code
            except Exception as exc:           # an op that raised has failed
                code = f"raised {type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
        sink.seek(0)
        sink.truncate()
        codes.append(code)
    return {"wall": time.perf_counter() - start, "latencies": latencies,
            "codes": codes, "outdir": outdir}


def inspect_pass(wl, result: dict) -> None:
    """Check and digest every report of a pass, then delete them."""
    outdir = result["outdir"]
    digests, problems, size = [], [], 0
    for i, (op, code) in enumerate(zip(wl.ops, result["codes"])):
        report = outdir / f"op{i:02d}.json"
        files = sorted(outdir.glob(f"op{i:02d}.*.csv"))
        h = hashlib.sha256()
        text = None
        if report.is_file():
            blob = report.read_bytes()
            text = blob.decode(errors="replace")
            h.update(blob)
            size += len(blob)
        for f in files:
            blob = f.read_bytes()
            h.update(f.name.split(".", 1)[1].encode() + b"\0" + blob)
            size += len(blob)
        digests.append(h.hexdigest())
        problems.append(checks.check_op(op, code, text))
    shutil.rmtree(outdir)
    result.update(digests=digests, problems=problems, report_bytes=size)


def setup_probe(scratch: Path) -> float:
    """Set-up time of one fresh process: spawn until the probe is ready."""
    t0 = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC),
             str(scratch)], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line!r}")
    return elapsed


class SetupProbes:
    """SETUP_PROBES set-up samples, due at evenly spaced moments of the run
    window; :meth:`take_due` runs at most one that is due, :meth:`finish`
    the ones still left when the window closes."""

    def __init__(self, scratch: Path, seconds: float):
        start = time.perf_counter()
        self.scratch = scratch
        self.due = [start + seconds * (k + 0.5) / SETUP_PROBES
                    for k in range(SETUP_PROBES)]
        self.times = []

    def take_due(self) -> None:
        if self.due and time.perf_counter() >= self.due[0]:
            self.due.pop(0)
            self.times.append(setup_probe(self.scratch))

    def finish(self) -> list:
        while self.due:
            self.due.pop(0)
            self.times.append(setup_probe(self.scratch))
        return self.times


def cycle_ops(seconds: float, one_pass) -> list:
    """Call one_pass(k, deadline) until ``seconds`` have passed; the first
    pass is always whole, so every op is timed at least once, and the last
    may stop part-way.  Using the whole window averages over more of the
    host's speed changes than stopping at a pass boundary would."""
    results = []
    deadline = time.perf_counter() + seconds
    while not results or time.perf_counter() < deadline:
        results.append(one_pass(len(results), deadline if results else None))
    return results


# ---------------------------------------------------------------------------
# machine facts

def machine_facts() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy),
            "scipy_blas": blas(scipy), "blas_threads_set": BLAS_THREADS}


# ---------------------------------------------------------------------------
# metrics

def _failures(wl, results) -> list:
    out = []
    for r in results:
        for i, probs in enumerate(r["problems"]):
            if probs:
                out.append({"pass": r["outdir"].name, "op": i,
                            "argv": list(wl.ops[i].argv), "problems": probs})
    return out


def _reports_changed(wl, results, stored: dict) -> tuple:
    keys = [op.key(wl.files) for op in wl.ops]
    changed = {i for r in results for i, (k, digest)
               in enumerate(zip(keys, r["digests"]))
               if k in stored and digest != stored[k]}
    return len(changed), sum(k in stored for k in keys)


def end_to_end(results, setup_times, tail_pct: int) -> tuple:
    samples = [[] for _ in results[0]["latencies"]]
    for r in results:
        for i, lat in enumerate(r["latencies"]):
            samples[i].append(lat)
    per_op = [statistics.median(s) for s in samples]
    tail, beyond, n = op_tail(
        [lat for r in results for lat in r["latencies"]], tail_pct)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(per_op),
        "op_p50_s": statistics.median(per_op),
        "op_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0}
    return metrics, {"op_tail_percentile": tail_pct, "op_tail_count": n,
                     "op_tail_beyond": beyond}


def _volume_share(wl, r) -> float:
    """Share of integrate_window in the op time of the volume-path ops."""
    ops = set(wl.volume_ops)
    op_time = sum(r["latencies"][i] for i in ops)
    window = sum(end - start for _, _, op_id, name, start, end in r["spans"]
                 if name == "quadrature.integrate_window"
                 and int(op_id.rsplit(".", 1)[1]) in ops)
    return window / op_time if op_time else 0.0


def per_layer(wl, traced, untraced, stored) -> dict:
    """Per-layer metrics: medians over the pairs whose passes are both
    whole, so that counts do not depend on where the deadline fell; report
    digests are compared over every op run."""
    from tracing import layer_metrics
    whole = [(u, t) for u, t in zip(untraced, traced)
             if len(u["codes"]) == len(t["codes"]) == len(wl.ops)]
    rows = []
    for _, r in whole:
        row = layer_metrics(r["spans"], r["counts"])
        op_time = sum(r["latencies"])
        for name in SHARES:
            row[f"{name}.share"] = row[f"{name}.busy_s"] / op_time
        row["quadrature.integrate_window.volume_share"] = _volume_share(wl, r)
        codes = Counter(r["codes"])
        for code in range(4):
            row[f"cli.exit_{code}"] = codes[code]
        row["cli.report_bytes"] = r["report_bytes"]
        rows.append(row)
    metrics = {k: statistics.median(row[k] for row in rows) for k in rows[0]}
    changed, compared = _reports_changed(wl, traced + untraced, stored)
    metrics["cli.reports_changed"] = changed
    metrics["cli.reports_compared"] = compared
    metrics["trace.wall_s"] = statistics.median(t["wall"] for _, t in whole)
    metrics["trace.untraced_wall_s"] = statistics.median(
        u["wall"] for u, _ in whole)
    metrics["trace.overhead"] = (metrics["trace.wall_s"]
                                 / metrics["trace.untraced_wall_s"] - 1.0)
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", ".overhead")):
        return "fraction"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(
        workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(args) -> tuple:
    wl = workloads.generate(args.workload, args.seed)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    scratch = WORK / f"{tag}-{os.getpid()}"
    indir = scratch / "inputs"
    indir.mkdir(parents=True)
    try:
        return _measure(args, wl, scratch, indir)
    finally:
        shutil.rmtree(scratch)


def _measure(args, wl, scratch: Path, indir: Path) -> tuple:
    for name, text in wl.files.items():
        (indir / name).write_text(text)
    sys.path.insert(0, str(SRC))
    from revcarleson.cli import main as cli_main
    with contextlib.redirect_stdout(io.StringIO()):
        cli_main([*workloads.WARM_UP_ARGV, "--out",
                  str(scratch / "warm-up.json")])
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}

    def untraced_pass(k, deadline=None, between=None):
        r = run_pass(cli_main, wl, indir, scratch / f"p{k}", deadline=deadline,
                     between=between)
        inspect_pass(wl, r)
        return r

    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        spans = []

        def pair(k, deadline):
            plain = untraced_pass(2 * k, deadline)
            tracer.install()
            try:
                r = run_pass(cli_main, wl, indir, scratch / f"p{2 * k + 1}",
                             tracer, deadline)
            finally:
                tracer.restore()
            r["spans"], r["counts"] = tracer.take()
            spans.extend(r["spans"])
            inspect_pass(wl, r)
            for i, (a, b) in enumerate(zip(plain["digests"], r["digests"])):
                if a != b:                     # tracing changed a report
                    r["problems"][i].append("traced report differs")
            return plain, r

        # set-up is an end-to-end metric only; the traced run skips it
        setup_times = []
        pairs = cycle_ops(args.seconds, pair)
        untraced = [p for p, _ in pairs]
        traced = [t for _, t in pairs]
        results = untraced + traced
        metrics = per_layer(wl, traced, untraced, stored)
        extra = {"passes": len(pairs), "trace_spans": len(spans)}
        Tracer.write(spans, WORK / f"spans-{args.workload}-s{args.seed}.jsonl")
    else:
        probes = SetupProbes(scratch, args.seconds)
        host = HostSpeed()

        def between():
            host.take_due()
            probes.take_due()

        results = cycle_ops(args.seconds, lambda k, deadline: untraced_pass(
            k, deadline, between))
        setup_times = probes.finish()
        raw, extra = end_to_end(results, setup_times, wl.tail_percentile)
        factor = host.factor()
        metrics = {k: v * factor if END_TO_END[k] == "s" else v
                   for k, v in raw.items()}
        extra.update(raw_metrics=raw, host_scale=factor,
                     host_reference_samples=len(host.times))
        changed, compared = _reports_changed(wl, results, stored)
        extra.update(passes=len(results), reports_changed=changed,
                     reports_compared=compared)

    failures = _failures(wl, results)
    attempted = sum(len(r["codes"]) for r in results)
    codes = Counter(str(c) for r in results for c in r["codes"])
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "ops_per_pass": len(wl.ops),
              "attempted": attempted, "failed": len(failures),
              "failed_ratio": len(failures) / attempted,
              "exit_codes": dict(sorted(codes.items())),
              "setup_samples_s": setup_times, **extra,
              "machine": machine_facts(), "failures": failures[:20]}
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": unit_of(k)}
                        for k, v in metrics.items()}}, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "revcarleson" / "cli.py").is_file():
        print(f"no revcarleson sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    result, detail = run(args)
    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    (WORK / f"result-{tag}.json").write_text(
        json.dumps({"result": result, "detail": detail}, indent=2) + "\n")
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    if "raw_metrics" in detail:
        print(f"times above are raw times x {detail['host_scale']:.4f} "
              f"(host speed over {detail['host_reference_samples']} "
              "reference samples); raw: " + ", ".join(
                  f"{k} {v:.6g}" for k, v in detail["raw_metrics"].items()))
    if "op_tail_count" in detail:
        print(f"op_tail_s is p{detail['op_tail_percentile']} of "
              f"{detail['op_tail_count']} op runs, "
              f"{detail['op_tail_beyond']} beyond it")
    print(f"{'failed_ratio':48s} {detail['failed_ratio']:.6g} fraction "
          f"({result['failed']} of {result['attempted']} op runs)")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

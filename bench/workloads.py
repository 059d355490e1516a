"""Seeded workload generation for the benchmark.

A workload is a fixed list of ops.  Each op is one ``revcarleson`` CLI
invocation: a subcommand argv plus the YAML input files it names, and the
output checks that apply to its report.  Everything is drawn from the
workload seed with :class:`random.Random`, so the same seed gives the same
argv lists and byte-identical input files.  Input files are written as JSON,
which is a subset of YAML, so generation needs neither numpy nor pyyaml.

Continuous parameters whose value drives an op's cost are drawn by Latin
hypercube sampling (one draw per equal-width stratum, strata shuffled): every
seed sees the same marginal distribution, spread evenly, so the total work
of a workload varies little from seed to seed while each op still differs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

SUBCOMMANDS = ("verify-kernels", "criteria", "equivalence", "pack",
               "dbr-check", "refute-sampling")

# The warm-up call made once per process before anything is timed: it loads
# every lazily imported module and fills the allocator on a cheap op.
WARM_UP_ARGV = ("criteria", "--dim", "1", "--resolution", "64")


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``argv`` names input files by their bare name."""

    command: str
    argv: tuple
    checks: tuple = ()         # (name, params) pairs, see checks.py

    def key(self, files: dict) -> str:
        """Identity of the op's inputs: argv plus the bytes of its files."""
        doc = {"argv": list(self.argv),
               "files": {a: files[a] for a in self.argv if a in files}}
        blob = json.dumps(doc, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class Workload:
    ops: list = field(default_factory=list)
    files: dict = field(default_factory=dict)   # file name -> text
    volume_ops: range = range(0)   # indices of the volume-path ops
    # percentile of op_tail_s: the highest that leaves ten op runs beyond
    # it in the slowest 50-second run seen (87 to 125 runs of ``verdicts``)
    tail_percentile: int = 88

    def add_file(self, name: str, doc: dict) -> str:
        self.files[name] = json.dumps(doc, sort_keys=True) + "\n"
        return name

    def add(self, *argv, checks=()) -> None:
        argv = tuple(str(a) for a in argv)
        self.ops.append(Op(argv[0], argv, tuple(checks)))


def _lhs(rng: random.Random, n: int, lo: float, hi: float,
         jitter: bool = True) -> list:
    """n draws from U(lo, hi), one per stratum, in shuffled order; without
    jitter each draw is its stratum's midpoint, so only the order is drawn."""
    strata = list(range(n))
    rng.shuffle(strata)
    return [lo + (hi - lo) * (k + (rng.random() if jitter else 0.5)) / n
            for k in strata]


def _sphere_point(rng: random.Random, d: int) -> list:
    z = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)]
    n = math.sqrt(sum(abs(c) ** 2 for c in z))
    return [[c.real / n, c.imag / n] for c in z]


def _ball_point(rng: random.Random, d: int, lo: float, hi: float) -> list:
    r = rng.uniform(lo, hi)
    return [[r * x, r * y] for x, y in _sphere_point(rng, d)]


def _boundary_density(rng: random.Random) -> dict:
    """1 + a Re z_1 with a < 1, positive on the sphere."""
    return {"sum": [1.0, {"prod": [rng.uniform(0.2, 0.9), {"re": 0}]}]}


def _atoms(rng: random.Random, d: int, n: int, interior: bool) -> list:
    return [{"point": _ball_point(rng, d, 0.2, 0.9) if interior
             else _sphere_point(rng, d),
             "mass": rng.uniform(0.05, 0.5)} for _ in range(n)]


# ---------------------------------------------------------------------------
# packing: greedy packings drawn like acceptance criterion 05

# Few enough ops that a 50-second run makes four or more passes, so each
# op's median is taken over moments spread through the window.
PACK_OPS_D2, PACK_OPS_D1 = 9, 3


def packing(seed: int) -> Workload:
    """``pack`` runs with delta ~ U(0.15, 0.6), h ~ U(delta/16, delta/5),
    three in four in d = 2.  The cost of a d = 2 run grows steeply with
    delta/h and hardly depends on delta, so h/delta takes the midpoints of
    equal-width strata (every seed has the same cost ladder, and the median
    and tail ops cost about the same from seed to seed) while delta, the
    pairing, the op order and the candidate-grid seeds are drawn."""
    rng = random.Random(f"packing-{seed}")
    wl = Workload(tail_percentile=73)      # 38 to 60 runs in 50 seconds
    runs = []
    for d, n in ((2, PACK_OPS_D2), (1, PACK_OPS_D1)):
        deltas = _lhs(rng, n, 0.15, 0.6)
        ratios = _lhs(rng, n, 1 / 16, 1 / 5, jitter=False)
        runs += [(d, delta, delta * u) for delta, u in zip(deltas, ratios)]
    rng.shuffle(runs)
    for d, delta, h in runs:
        wl.add("pack", "--dim", d, "--delta", repr(delta), "--h", repr(h),
               "--grid-points", 10000, "--seed", rng.randrange(1000),
               checks=[("pack", {"dim": d, "delta": delta, "h": h})])
    return wl


# ---------------------------------------------------------------------------
# verdicts: every verdict subcommand, on the sphere path (measures without
# interior density) and on the volume path (measures with one)

SPHERE_RESOLUTION = {1: 2048, 2: 2048, 3: 20000}
# Counts of atoms, zeros and points are fixed and only their values are
# drawn: the cost of an op grows with these counts, and a seed that drew
# more of them would shift the per-op latency distribution.
SAMPLING_POINTS = 4


def _polynomial(rng: random.Random, d: int) -> dict:
    """b = c_1 z_1 + c_2 z_d^2 with |c_1| + |c_2| < 1, so sup |b| < 1."""
    total = rng.uniform(0.5, 0.95)
    split = rng.uniform(0.2, 0.8)
    terms = []
    for share, alpha in ((split, [1] + [0] * (d - 1)),
                         (1 - split, [0] * (d - 1) + [2] if d > 1 else [2])):
        phase = rng.uniform(0, 2 * math.pi)
        c = total * share
        terms.append({"coeff": [c * math.cos(phase), c * math.sin(phase)],
                      "exponents": alpha})
    return {"kind": "polynomial", "dimension": d, "data": {"terms": terms}}


def _sphere_ops(wl: Workload, seed: int) -> None:
    """``verify-kernels``, ``criteria`` and ``equivalence`` in d = 1, 2, 3
    on sigma, a boundary density with atoms and the origin atom; then
    ``dbr-check`` and ``refute-sampling`` with constant, Blaschke and
    polynomial symbols.  Cap masses, kernel tests on sphere nodes, H(b)
    tests and grid refinement; ``integrate_window`` stays idle."""
    rng = random.Random(f"sphere-{seed}")
    measures = {}
    for d in (1, 2, 3):
        measures[d, "sigma"] = wl.add_file(
            f"sigma{d}.yaml", {"dimension": d, "boundary_density": 1.0})
        measures[d, "bdens"] = wl.add_file(f"bdens{d}.yaml", {
            "dimension": d, "boundary_density": _boundary_density(rng),
            "boundary_atoms": _atoms(rng, d, 2, False),
            "interior_atoms": _atoms(rng, d, 1, True)})
        measures[d, "origin"] = wl.add_file(f"origin{d}.yaml", {
            "dimension": d, "interior_atoms": [
                {"point": [[0.0, 0.0]] * d, "mass": rng.uniform(0.5, 2.0)}]})

    def common(d):
        return ("--dim", d, "--resolution", SPHERE_RESOLUTION[d],
                "--seed", rng.randrange(1000))

    for d in (1, 2, 3):
        wl.add("verify-kernels", *common(d))
        for kind in ("sigma", "bdens", "origin"):
            p = ("--p", repr(rng.uniform(1.5, 4.0))) if kind == "bdens" else ()
            m = ("--measure", measures[d, kind])
            wl.add("criteria", *common(d), *p, *m, checks=[
                ("criteria_sigma", {})] if kind == "sigma" else [])
            wl.add("equivalence", *common(d), *p, *m, checks=[
                ("origin_degenerate", {})] if kind == "origin" else [])

    c_abs = rng.uniform(0.1, 0.9)
    phase = rng.uniform(0, 2 * math.pi)
    const1 = wl.add_file("const1.yaml", {
        "kind": "constant", "dimension": 1,
        "data": {"value": [c_abs * math.cos(phase), c_abs * math.sin(phase)]}})
    zeros = [_ball_point(rng, 1, 0.1, 0.8)[0] for _ in range(2)]
    blaschke = wl.add_file("blaschke1.yaml", {
        "kind": "blaschke", "dimension": 1,
        "data": {"zeros": zeros, "phase": _sphere_point(rng, 1)[0]}})
    poly = {d: wl.add_file(f"poly{d}.yaml", _polynomial(rng, d))
            for d in (2, 3)}
    points = {d: wl.add_file(f"points{d}.yaml", {
        "points": [_ball_point(rng, d, 0.1, 0.9)
                   for _ in range(SAMPLING_POINTS)]}) for d in (1, 2)}

    # |c| as the CLI reads it back from the file, for the exact check
    doc = json.loads(wl.files[const1])
    c_read = abs(complex(*doc["data"]["value"]))
    wl.add("dbr-check", *common(1), "--symbol", const1,
           "--measure", measures[1, "sigma"],
           checks=[("dbr_constant", {"c_abs": c_read})])
    wl.add("dbr-check", *common(1), "--symbol", blaschke,
           "--measure", measures[1, "bdens"])
    for d in (2, 3):
        wl.add("dbr-check", *common(d), "--symbol", poly[d],
               "--measure", measures[d, "sigma" if d == 2 else "bdens"])
    wl.add("refute-sampling", *common(1), "--symbol", blaschke,
           "--points", points[1], checks=[("refute_inconclusive", {})])
    wl.add("refute-sampling", *common(1), "--symbol", const1,
           "--points", points[1])
    wl.add("refute-sampling", *common(2), "--symbol", poly[2],
           "--points", points[2])


VOLUME_RESOLUTION = {1: 2048, 2: 2048, 3: 2000}
VOLUME_DENSITIES = 3           # exponents k per dimension
# An equivalence run costs about four criteria runs at two refinements (and
# ten at the default three), so equivalence runs only on the first exponent.
VOLUME_REFINEMENTS = 2


def _volume_ops(wl: Workload, seed: int) -> None:
    """``criteria`` on |z|^k, alone and with a boundary density and an
    interior atom, in d = 1, 2 and 3; ``equivalence`` on the first k.
    The same verdict code as the sphere path, through ``integrate_window``."""
    rng = random.Random(f"volume-{seed}")
    for d in (1, 2, 3):
        for j, k in enumerate(_lhs(rng, VOLUME_DENSITIES, 0.5, 4.0)):
            density = {"pow": [{"abs_z": None}, k]}
            plain = wl.add_file(f"radial{d}_{j}.yaml", {
                "dimension": d, "interior_density": density})
            mixed = wl.add_file(f"mixed{d}_{j}.yaml", {
                "dimension": d, "interior_density": density,
                "boundary_density": _boundary_density(rng),
                "interior_atoms": _atoms(rng, d, 1, True)})
            for m in (plain, mixed):
                common = ("--dim", d, "--resolution", VOLUME_RESOLUTION[d],
                          "--seed", rng.randrange(1000), "--measure", m)
                wl.add("criteria", *common)
                if j == 0:
                    wl.add("equivalence", *common,
                           "--refinements", VOLUME_REFINEMENTS)


def verdicts(seed: int) -> Workload:
    """The sphere-path ops, then the volume-path ops; each part draws from
    its own random stream, so either can change without moving the other."""
    wl = Workload()
    _sphere_ops(wl, seed)
    first = len(wl.ops)
    _volume_ops(wl, seed)
    wl.volume_ops = range(first, len(wl.ops))
    return wl


WORKLOADS = {"packing": packing, "verdicts": verdicts}


def generate(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)

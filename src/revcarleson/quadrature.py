"""Quadrature against the normalized surface measure sigma on S^{2d-1} and
against normalized volume on Carleson windows via polar coordinates.

Schemes: d=1 uniform angles (trapezoid, spectrally accurate), d=2 a
torus-product rule in Hopf coordinates, d>=3 seeded Monte Carlo.  Volume is
normalized so that the full ball has measure one, i.e. dnu = 2d r^(2d-1) dr dsigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .geometry import CarlesonWindow

__all__ = ["SphereGrid", "RadialRule", "WindowNodes", "sphere_grid",
           "radial_rule", "integrate_sphere", "sphere_sum", "window_nodes",
           "window_sum", "integrate_window", "refine"]


@dataclass(frozen=True)
class SphereGrid:
    """Nodes and weights integrating the normalized measure on S^{2d-1}."""

    d: int
    nodes: np.ndarray          # (n, d) complex, unit rows
    weights: np.ndarray        # (n,), sums to 1
    scheme: str                # "uniform" | "torus" | "monte-carlo"
    resolution: int
    seed: int | None = None

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class RadialRule:
    """Nodes r_j in (0, 1) with weights carrying the 2d r^(2d-1) Jacobian."""

    d: int
    nodes: np.ndarray
    weights: np.ndarray        # include the polar Jacobian and normalization
    depth: float               # rule spans [1-depth, 1)
    resolution: int

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("radial nodes must be strictly increasing")


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n and
    kept read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _uniform_circle(n: int) -> tuple[np.ndarray, np.ndarray]:
    theta = 2.0 * math.pi * np.arange(n) / n
    nodes = np.exp(1j * theta)[:, None]
    return nodes, np.full(n, 1.0 / n)


def _torus_slabs(n: int):
    """The torus rule of n points per axis, one u-slab at a time.

    Hopf coordinates zeta = (e^{i phi1} cos th, e^{i phi2} sin th); with
    u = sin^2 th the normalized measure is du dphi1 dphi2 / (2 pi)^2.  The
    rule is Gauss-Legendre in u times n-point trapezoid rules in phi1 and
    phi2.  Slab a yields the (n^2, 2) nodes at the a-th u-node, phi1-major,
    and their weights; the slabs in order are the rule's nodes in u-major
    order, so no more than n^2 nodes need be held at once.
    """
    x, wu = _gauss_legendre(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * wu
    phi = np.exp(2j * math.pi * np.arange(n) / n)
    c = np.sqrt(1.0 - u)
    s = np.sqrt(u)
    for a in range(n):
        nodes = np.empty((n, n, 2), dtype=complex)
        nodes[:, :, 0] = (c[a] * phi)[:, None]
        nodes[:, :, 1] = s[a] * phi
        yield nodes.reshape(n * n, 2), np.full(n * n, wu[a] / (n * n))


# nodes per block of a Monte Carlo rule (d >= 3): 768 KiB of nodes in d = 3
_MC_BLOCK = 1 << 14


def _gaussian_blocks(d: int, n: int, seed: int, block: int = _MC_BLOCK):
    """The seeded Monte Carlo rule of n nodes, block nodes at a time.

    Node i is row i of z = X + iY scaled to the unit sphere, X and Y the
    (n, d) arrays of the first and the next n*d standard normals of
    default_rng(seed).  With more than one block, a second generator is
    first moved past X, a block at a time, and then reads Y in step with
    the first reading X, so the blocks in order are the rule's nodes and no
    more than a block of them need be held at once; one block is read
    from one generator.
    """
    re = im = np.random.default_rng(seed)
    if n > block:
        im = np.random.default_rng(seed)
        skip = np.empty((block, d))
        for k in range(0, n, block):
            im.standard_normal(out=skip[:min(block, n - k)])
    for k in range(0, n, block):
        m = min(block, n - k)
        z = re.standard_normal((m, d)) + 1j * im.standard_normal((m, d))
        yield (z / np.linalg.norm(z, axis=1, keepdims=True),
               np.full(m, 1.0 / n))


def _blocks(d: int, resolution: int, seed: int = 0):
    """sphere_grid(d, resolution, seed) as an iterator over its (nodes,
    weights) blocks in node order, so that a sum over the grid need not
    hold it whole.  In d = 1 the grid is one block, in d = 2 a block is one
    u-slab of the torus rule, and in d >= 3 it is _MC_BLOCK nodes of the
    Monte Carlo rule (the last block may be shorter)."""
    if d == 1:
        return iter((_uniform_circle(resolution),))
    if d == 2:
        return _torus_slabs(resolution)
    return _gaussian_blocks(d, resolution, seed)


def sphere_grid(d: int, resolution: int, seed: int = 0) -> SphereGrid:
    """Build a quadrature grid on S^{2d-1}; the scheme follows from d.

    resolution means: number of angles (d=1), points per torus axis (d=2),
    total sample count (d>=3 Monte Carlo).
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if resolution < 4:
        raise ValueError("resolution must be at least 4")
    if d == 1:
        nodes, weights = _uniform_circle(resolution)
        return SphereGrid(d, nodes, weights, "uniform", resolution)
    if d == 2:
        nodes, weights = map(np.concatenate, zip(*_torus_slabs(resolution)))
        return SphereGrid(d, nodes, weights, "torus", resolution)
    nodes, weights = next(_gaussian_blocks(d, resolution, seed, resolution))
    return SphereGrid(d, nodes, weights, "monte-carlo", resolution, seed)


def radial_rule(d: int, resolution: int, depth: float = 1.0) -> RadialRule:
    """Gauss-Legendre rule on [1-depth, 1) with the polar Jacobian folded in."""
    if not 0.0 < depth <= 1.0:
        raise ValueError("depth must lie in (0, 1]")
    r, wr = _radial_rows(d, resolution, depth)
    return RadialRule(d, r, wr, depth, resolution)


def _radial_rows(d: int, resolution: int, depths) -> tuple:
    """(r, wr), the nodes and weights of radial_rule(d, resolution, h) for
    each depth h of depths, one row per depth (one row, 1-D, for a scalar
    depth): the Gauss-Legendre rule mapped onto [1-h, 1-1e-14) with the
    polar Jacobian folded in.  Depths are not checked."""
    x, w = _gauss_legendre(resolution)
    lo, hi = 1.0 - np.asarray(depths, dtype=float)[..., None], 1.0 - 1e-14
    r = 0.5 * (hi - lo) * (x + 1.0) + lo
    wr = 0.5 * (hi - lo) * w * 2.0 * d * r ** (2 * d - 1)
    return r, wr


def integrate_sphere(f, grid: SphereGrid) -> complex:
    """Sum_i w_i f(node_i); f maps an (n, d) complex array to (n,) values."""
    return sphere_sum(grid, f(grid.nodes))


def sphere_sum(grid: SphereGrid, vals) -> complex:
    """Sum_i w_i vals_i for integrand values already taken on the grid's
    nodes; a value that is not finite is an error naming its node."""
    vals = np.asarray(vals)
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.argmax(bad))
        raise ArithmeticError(
            f"integrand not finite at node {i}: {grid.nodes[i]}")
    return complex(np.sum(grid.weights * vals))


class WindowNodes(NamedTuple):
    """Radius x angle tensor nodes of a window: points[j * m + i] is
    radial.nodes[j] * zeta[i] for the m sphere nodes zeta inside the cap."""

    zeta: np.ndarray           # (m, d) sphere nodes inside the cap
    w_ang: np.ndarray          # (m,) their weights
    radial: RadialRule
    points: np.ndarray         # (R * m, d), radius-major


def window_nodes(grid: SphereGrid, mask: np.ndarray | None,
                 radial: RadialRule) -> WindowNodes:
    """The tensor nodes of radial over the sphere nodes of grid that mask
    marks, in grid order (every node when mask is None)."""
    sel = slice(None) if mask is None else mask
    zeta = grid.nodes[sel]
    points = (radial.nodes[:, None, None] * zeta).reshape(-1, zeta.shape[1])
    return WindowNodes(zeta, grid.weights[sel], radial, points)


def window_sum(nodes: WindowNodes, vals) -> complex:
    """Sum of the integrand values on the window's nodes against volume.

    The row sums over the angles are added one radius at a time, in radius
    order, so the result has the bits of a loop that integrates each
    radius in turn.
    """
    m = len(nodes.zeta)
    vals = np.asarray(vals).reshape(-1, m)
    bad = ~np.isfinite(vals)
    if bad.any():
        j, i = divmod(int(np.argmax(bad)), m)
        raise ArithmeticError(
            f"integrand not finite at radius {nodes.radial.nodes[j]}, "
            f"node {nodes.zeta[i]}")
    rows = np.sum(nodes.w_ang * vals, axis=1)
    total = 0.0 + 0.0j
    for wr, row in zip(nodes.radial.weights, rows):
        total += wr * row
    return complex(total)


def integrate_window(f, S: CarlesonWindow, grid: SphereGrid,
                     radial: RadialRule) -> complex:
    """Polar-coordinate integral of f over the window S against volume.

    Nodes are r_j * zeta_i for sphere nodes zeta_i inside the cap of S; the
    boundary sphere |z| = 1 never carries volume nodes.  f is called once,
    on all of them.
    """
    if radial.depth > S.depth + 1e-12:
        raise ValueError("radial rule exceeds the window depth")
    mask = S.ball.contains_coords(grid.nodes)
    if not mask.any():
        return 0.0 + 0.0j
    nodes = window_nodes(grid, mask, radial)
    return window_sum(nodes, f(nodes.points))


def refine(obj):
    """Double the resolution of a grid or radial rule, same scheme lineage."""
    if isinstance(obj, SphereGrid):
        return sphere_grid(obj.d, 2 * obj.resolution,
                           seed=obj.seed if obj.seed is not None else 0)
    if isinstance(obj, RadialRule):
        return radial_rule(obj.d, 2 * obj.resolution, obj.depth)
    raise TypeError(f"cannot refine {type(obj).__name__}")

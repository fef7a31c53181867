"""Interpolation and landscape quality evaluation.

A calibrated landscape serves pulses for arbitrary in-domain points by
locating the point in the reference mesh and forming the barycentric
combination of the vertex pulses. Interpolated pulses inherit the
amplitude bounds automatically (convex combination of feasible pulses).

evaluate_grid measures how well that works: it sweeps a dense test grid
in blocks of points, evolves each block's interpolated pulses as one
batch and compares them against the family targets.
sweep(cfg, test_granularity) scores one calibration after each of its
rounds 0..cfg.rounds, giving a computation-cost-versus-accuracy table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .calibrate import CalibConfig, Landscape, initial_round, reoptimization_round
from .errors import DomainError
from .linalg import gate_infidelities
from .mesh import locate
from .pulses import KERNEL_BATCH, evolve


@dataclass(frozen=True)
class EvalRecord:
    point: np.ndarray
    infidelity: float
    simplex: int


@dataclass(frozen=True)
class EvalSummary:
    mean_infidelity: float
    std_infidelity: float  # population std, matching "mean ± std" tables
    max_infidelity: float
    count: int
    cumulative_iterations: int


def interpolate(landscape: Landscape, p) -> np.ndarray:
    """Barycentric combination of the containing simplex's pulses."""
    loc = locate(landscape.mesh, p)
    refs = landscape.references
    vertices = landscape.mesh.simplices[loc.simplex].tolist()
    return _combine(loc.coords, np.array([refs[v].alpha for v in vertices]))


def interpolate_many(landscape: Landscape, points) -> np.ndarray:
    """Pulses for a batch of points, (B, n_params), each as interpolate gives it."""
    return _interpolate_block(landscape, _pulse_matrix(landscape), points)[0]


def _pulse_matrix(landscape: Landscape) -> np.ndarray:
    return np.array([ref.alpha for ref in landscape.references])


def _interpolate_block(landscape: Landscape, pulses: np.ndarray, points):
    """Pulses and containing simplices of the points; pulses stacks the references'."""
    mesh = landscape.mesh
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != mesh.dim:
        raise DomainError(f"points have shape {points.shape}, expected (B, {mesh.dim})")
    coords = np.empty((len(points), mesh.dim + 1))
    simplices = np.empty(len(points), dtype=int)
    for i, p in enumerate(points):
        loc = locate(mesh, p)
        coords[i], simplices[i] = loc.coords, loc.simplex
    return _combine(coords, pulses[mesh.simplices[simplices]]), simplices


def _combine(coords: np.ndarray, vertex_pulses: np.ndarray) -> np.ndarray:
    """Sum of coords[..., v] * vertex_pulses[..., v, :] over the vertices v.

    The terms are added one vertex after another, in vertex order, onto
    a +0.0 start. Such a sum never holds -0.0, so the signed-zero term of
    a zero coordinate changes no sum of finite pulses: the result equals
    skipping that vertex.
    """
    return np.add.reduce(coords[..., None] * vertex_pulses, axis=-2, initial=0.0)


def evaluate_grid(landscape: Landscape, test_granularity: Fraction) -> tuple[list, EvalSummary]:
    """Interpolate and score every domain lattice point at the given spacing."""
    family = landscape.family
    points = family.grid(test_granularity)
    pulses = _pulse_matrix(landscape)
    records = []
    # Blocks of KERNEL_BATCH points bound the interpolation temporaries as
    # well as the kernel's: scoring the box's 2,197 test points in one block
    # raised the serve workload's peak RSS from about 84 to 95 MB.
    for start in range(0, len(points), KERNEL_BATCH):
        block = points[start : start + KERNEL_BATCH]
        alphas, simplices = _interpolate_block(landscape, pulses, block)
        u = evolve(family.model, landscape.ansatz, alphas)
        infids = gate_infidelities(u, family.unitary(block))
        records += [
            EvalRecord(point=p, infidelity=infid, simplex=int(si))
            for p, infid, si in zip(block, infids, simplices)
        ]

    infids = np.array([r.infidelity for r in records])
    summary = EvalSummary(
        mean_infidelity=float(infids.mean()),
        std_infidelity=float(infids.std()),
        max_infidelity=float(infids.max()),
        count=len(records),
        cumulative_iterations=landscape.cumulative_iterations,
    )
    return records, summary


def sweep(cfg: CalibConfig, test_granularity: Fraction) -> list:
    """Calibration-cost sweep: the EvalSummary after each of rounds 0..cfg.rounds.

    Rounds are applied incrementally to the same landscape, so the
    cumulative iteration counts in consecutive summaries trace the one
    calibration that ``calibrate(cfg)`` runs.
    """
    landscape = initial_round(cfg)
    summaries = []
    for rnd in range(cfg.rounds + 1):
        if rnd:
            reoptimization_round(landscape, cfg.opt)
        summaries.append(evaluate_grid(landscape, test_granularity)[1])
    return summaries

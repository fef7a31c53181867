"""Coordinated calibration of a pulse landscape.

The pipeline has four steps: optimize every reference point independently
(initial round, Tikhonov anchor 0), mesh the reference points, then run
re-optimization rounds that pull each pulse toward the average of its
mesh neighbors, and keep the per-round log that the evaluation tooling
reports.

Re-optimization round semantics (order matters, so they are pinned here):
the neighbor penalties are snapshotted once at the start of the round and
fix the visiting order (descending penalty, ties by ascending vertex
index). Each visit then recomputes the neighbor average from the *latest*
pulses, and re-optimizes with both the initial guess and the Tikhonov
anchor set to that average. Rounds are therefore sequential and
order-dependent by construction; only the initial round is parallel.

The initial round minimizes the phase-insensitive gate infidelity, so
each reference may land on any SU(d) branch c * V(t), c^d = 1. The
coordination rounds match V(t) itself, not V(t) up to a phase: they use
the branch-pinned cost (``CostSpec.pin_branch``), which pulls every
reference onto the same branch. Interpolating between references on
different branches gives a pulse nearly orthogonal to the target.
Stored and reported infidelities are the gate infidelity in every round.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import OptimizationError
from .families import GateFamily, get_family
from .linalg import gate_infidelity
from .mesh import SimplicialMesh, build_mesh, neighbors
from .optimize import OptConfig, minimize, pulse_objective, seeded_init
from .pulses import ControlAnsatz, CostSpec, evolve, tikhonov_weight


@dataclass(frozen=True)
class ReferencePulse:
    point: np.ndarray
    alpha: np.ndarray
    infidelity: float
    cumulative_iterations: int


@dataclass(frozen=True)
class RoundRecord:
    """Landscape state after one round (round 0 = initial optimization)."""

    round_index: int
    iterations: int
    cumulative_iterations: int
    mean_infidelity: float
    max_infidelity: float
    mean_penalty: float


@dataclass
class Landscape:
    family: GateFamily
    ansatz: ControlAnsatz
    lam: float
    references: list
    mesh: SimplicialMesh
    log: list
    seed: int

    @property
    def points(self) -> np.ndarray:
        return self.mesh.vertices

    @property
    def cumulative_iterations(self) -> int:
        return self.log[-1].cumulative_iterations if self.log else 0


@dataclass(frozen=True)
class CalibConfig:
    family: str
    granularity: Fraction
    rounds: int = 0
    lam: float = 1e-2
    opt: OptConfig = OptConfig()
    seed: int = 0
    n_segments: int = 20
    n_workers: Optional[int] = None

    def __post_init__(self):
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")


def worker_count(explicit: Optional[int] = None) -> int:
    """Thread count for parallel phases: explicit > $PULSECAL_THREADS > cpu."""
    if explicit is not None:
        return max(1, explicit)
    env = os.environ.get("PULSECAL_THREADS")
    if env:
        return max(1, int(env))
    return min(8, os.cpu_count() or 1)


def _ansatz_for(family: GateFamily, cfg: CalibConfig) -> ControlAnsatz:
    return ControlAnsatz(
        n_controls=family.n_controls,
        n_segments=cfg.n_segments,
        alpha_max=cfg.opt.alpha_max,
    )


def _solve_reference(family, ansatz, model, cfg, point, index):
    """Initial optimization of one reference point (anchor 0)."""
    target = family.unitary(point)
    spec = CostSpec(target=target, lam=cfg.lam, alpha0=np.zeros(ansatz.n_params))
    objective = pulse_objective(spec, model, ansatz)

    def infid_of(alpha):
        return gate_infidelity(evolve(model, ansatz, alpha), target, model.dim)

    x0 = seeded_init(ansatz, cfg.seed ^ index)
    try:
        alpha, report = minimize(objective, None, x0, cfg.opt, infidelity_fn=infid_of)
    except OptimizationError as exc:
        where = tuple(float(c) for c in point)
        raise OptimizationError(
            f"initial optimization failed at reference point {where}: {exc}"
        ) from exc
    return ReferencePulse(
        point=np.array(point, dtype=float),
        alpha=alpha,
        infidelity=report.final_infidelity,
        cumulative_iterations=report.iterations,
    )


def neighbor_average(landscape: Landscape, i: int) -> np.ndarray:
    """Entrywise mean of the mesh neighbors' current pulses (the target α̂_i)."""
    nbrs = sorted(neighbors(landscape.mesh, i))
    stack = np.stack([landscape.references[j].alpha for j in nbrs])
    return stack.mean(axis=0)


def neighbor_penalty(landscape: Landscape, i: int) -> float:
    """Regularized squared distance of pulse i from its neighbor average."""
    lam_tilde = tikhonov_weight(landscape.lam, landscape.ansatz)
    d = landscape.references[i].alpha - neighbor_average(landscape, i)
    return lam_tilde * float(d @ d)


def visit_order(penalties) -> np.ndarray:
    """Vertex visiting order: descending penalty, ties by ascending index."""
    return np.argsort(-np.asarray(penalties, dtype=float), kind="stable")


def _round_record(landscape: Landscape, round_index: int, iterations: int) -> RoundRecord:
    infids = np.array([r.infidelity for r in landscape.references])
    pens = np.array([neighbor_penalty(landscape, i) for i in range(len(landscape.references))])
    prev = landscape.log[-1].cumulative_iterations if landscape.log else 0
    return RoundRecord(
        round_index=round_index,
        iterations=iterations,
        cumulative_iterations=prev + iterations,
        mean_infidelity=float(infids.mean()),
        max_infidelity=float(infids.max()),
        mean_penalty=float(pens.mean()),
    )


def initial_round(cfg: CalibConfig) -> Landscape:
    """Optimize every grid reference independently and mesh the points."""
    family = get_family(cfg.family)
    points = family.grid(cfg.granularity)
    ansatz = _ansatz_for(family, cfg)
    model = family.model

    indices = range(len(points))
    with ThreadPoolExecutor(max_workers=worker_count(cfg.n_workers)) as pool:
        refs = list(
            pool.map(
                lambda i: _solve_reference(family, ansatz, model, cfg, points[i], i),
                indices,
            )
        )

    landscape = Landscape(
        family=family,
        ansatz=ansatz,
        lam=cfg.lam,
        references=refs,
        mesh=build_mesh(points),
        log=[],
        seed=cfg.seed,
    )
    total = sum(r.cumulative_iterations for r in refs)
    landscape.log.append(_round_record(landscape, 0, total))
    return landscape


def reoptimization_round(landscape: Landscape, cfg: CalibConfig) -> Landscape:
    """One neighbor-coordination pass over all references (in place)."""
    family = landscape.family
    ansatz = landscape.ansatz
    model = family.model
    n = len(landscape.references)

    snapshot = [neighbor_penalty(landscape, i) for i in range(n)]
    order = visit_order(snapshot)

    iterations = 0
    for i in order:
        ref = landscape.references[i]
        target = family.unitary(ref.point)
        ahat = neighbor_average(landscape, i)
        spec = CostSpec(target=target, lam=landscape.lam, alpha0=ahat, pin_branch=True)
        objective = pulse_objective(spec, model, ansatz)

        def infid_of(alpha, target=target):
            return gate_infidelity(evolve(model, ansatz, alpha), target, model.dim)

        init = np.clip(ahat, -ansatz.alpha_max, ansatz.alpha_max)
        try:
            alpha, report = minimize(objective, None, init, cfg.opt, infidelity_fn=infid_of)
        except OptimizationError as exc:
            where = tuple(float(c) for c in ref.point)
            raise OptimizationError(
                f"re-optimization failed at reference point {where}: {exc}"
            ) from exc
        iterations += report.iterations
        landscape.references[i] = ReferencePulse(
            point=ref.point,
            alpha=alpha,
            infidelity=report.final_infidelity,
            cumulative_iterations=ref.cumulative_iterations + report.iterations,
        )

    landscape.log.append(
        _round_record(landscape, landscape.log[-1].round_index + 1, iterations)
    )
    return landscape


def calibrate(cfg: CalibConfig) -> Landscape:
    """Full pipeline: initial round plus cfg.rounds re-optimization rounds."""
    landscape = initial_round(cfg)
    for _ in range(cfg.rounds):
        reoptimization_round(landscape, cfg)
    return landscape

"""Coordinated calibration of a pulse landscape.

The pipeline has four steps: optimize every reference point independently
(initial round, Tikhonov anchor 0), mesh the reference points, then run
re-optimization rounds that pull each pulse toward the average of its
mesh neighbors, and keep the per-round log that the evaluation tooling
reports. ``calibration_rounds`` states that schedule once and yields the
landscape after each round: ``calibrate`` runs it to the end, the CLI
prints each round's log line as it ends, and ``evaluate.sweep`` scores
each round.

Every batch of reference problems goes through one step, ``_solve``: a
lockstep batch (``minimize_lockstep``) in the ansatz's amplitude box,
whose every tick evaluates all unfinished problems in batched kernel
calls, so each reference gets the pulse, iterations and stored
infidelity that minimizing it alone gives, bit for bit. It also
replaces each reference of its batch and returns the batch's
iterations, so a round only chooses its batches. The initial round's
problems do not depend on each other, so they are one batch.

Re-optimization round semantics (order matters, so they are pinned here):
the neighbor penalties are snapshotted once at the start of the round and
fix the visiting order (descending penalty, ties by ascending vertex
index). Each visit then recomputes the neighbor average from the *latest*
pulses, and re-optimizes with both the initial guess and the Tikhonov
anchor set to that average. Rounds are therefore order-dependent by
construction.

A visit reads only its mesh neighbors' pulses, so the round runs the
visit order in waves: a vertex goes in the wave after the latest one that
holds a neighbor visited before it. No wave holds two neighbors, and a
neighbor visited later always sits in a later wave, so every visit reads
the pulses it reads when the visits run one at a time. Each wave is one
batch of ``_solve``, so every reference gets the pulse, iterations and
stored infidelity of the one-at-a-time visit, bit for bit. Colouring the mesh
instead would batch more, but it changes the visit order and so the
results. Every round runs on the calling thread, in a fixed order, so a
seed fixes the landscape bit for bit.

The initial round minimizes the phase-insensitive gate infidelity, so
each reference may land on any SU(d) branch c * V(t), c^d = 1. The
coordination rounds match V(t) itself, not V(t) up to a phase: they use
the branch-pinned cost (``CostSpec.pin_branch``), which pulls every
reference onto the same branch. Interpolating between references on
different branches gives a pulse nearly orthogonal to the target.
Stored and reported infidelities are the gate infidelity in every round.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import OptimizationError
from .families import GateFamily, get_family
from .linalg import gate_infidelities
from .mesh import SimplicialMesh, build_mesh, neighbors
from .optimize import OptConfig, minimize_lockstep, pulse_objective, seeded_init
from .pulses import ControlAnsatz, CostSpec, check_count, check_lambda, evolve, tikhonov_weight


@dataclass(frozen=True)
class ReferencePulse:
    point: np.ndarray
    alpha: np.ndarray
    infidelity: float
    cumulative_iterations: int


@dataclass(frozen=True)
class RoundRecord:
    """Landscape state after one round (round 0 = initial optimization)."""

    round: int
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
    n_segments: int = ControlAnsatz.n_segments  # the ansatz's default and rule

    def __post_init__(self):
        for name in ("rounds", "seed"):
            object.__setattr__(self, name, check_count(getattr(self, name), 0, name))
        family = get_family(self.family)
        # Not a field: the ansatz of every reference pulse, built once.
        object.__setattr__(self, "ansatz", ControlAnsatz(family.model.n_controls, self.n_segments))
        object.__setattr__(self, "n_segments", self.ansatz.n_segments)
        object.__setattr__(self, "lam", check_lambda(self.lam))
        if not isinstance(self.opt, OptConfig):
            raise ValueError(f"opt: expected an OptConfig, got {self.opt!r}")
        # Refused here, before a sweep calibrates anything.
        object.__setattr__(self, "granularity", family.check_spacing(self.granularity))


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


def _round_record(landscape: Landscape, iterations: int) -> RoundRecord:
    """The record of the round just run on ``landscape``, the next entry of its log."""
    infids = np.array([r.infidelity for r in landscape.references])
    pens = np.array([neighbor_penalty(landscape, i) for i in range(len(landscape.references))])
    return RoundRecord(
        round=len(landscape.log),
        iterations=iterations,
        cumulative_iterations=landscape.cumulative_iterations + iterations,
        mean_infidelity=float(infids.mean()),
        max_infidelity=float(infids.max()),
        mean_penalty=float(pens.mean()),
    )


def _solve(stage: str, family: GateFamily, ansatz: ControlAnsatz, lam: float, opt: OptConfig,
           refs: list, vertices, anchors: np.ndarray, x0s, pin_branch: bool) -> int:
    """Minimize the pulse problems of a batch of references in lockstep, in place.

    Problem k is reference ``vertices[k]``'s: it is anchored at
    ``anchors[k]`` and starts at ``x0s[k]``. Each reference is replaced
    by its solved pulse and gate infidelity, each what minimizing it
    alone gives, with the solve's iterations added to its count. Returns
    the batch's total iterations. A failure raises an OptimizationError
    that names the ``stage`` and the point, and replaces no reference.
    """
    model = family.model
    points = np.array([refs[i].point for i in vertices])
    targets = family.unitary(points)
    spec = CostSpec(target=targets, lam=lam, alpha0=anchors, pin_branch=pin_branch)
    try:
        results = minimize_lockstep(
            pulse_objective(spec, model, ansatz), x0s, ansatz.alpha_max, opt
        )
    except OptimizationError as exc:
        where = tuple(float(c) for c in points[exc.problem])
        raise OptimizationError(f"{stage} failed at reference point {where}: {exc}") from exc
    alphas = np.array([alpha for alpha, _ in results])
    # The stored infidelity is the gate infidelity, whatever the cost form.
    infids = gate_infidelities(evolve(model, ansatz, alphas), targets)
    for i, (alpha, report), infid in zip(vertices, results, infids):
        refs[i] = ReferencePulse(refs[i].point, alpha, infid,
                                 refs[i].cumulative_iterations + report.iterations)
    return sum(report.iterations for _, report in results)


def initial_round(cfg: CalibConfig) -> Landscape:
    """Optimize every grid reference independently and mesh the points.

    All references are minimized in one lockstep batch; each gets the
    pulse and report that minimize() gives it alone.
    """
    family = get_family(cfg.family)
    points = family.grid(cfg.granularity)
    ansatz = cfg.ansatz
    # Unscored placeholders at the seeded starts: _solve replaces every one.
    refs = [ReferencePulse(np.array(point, dtype=float), seeded_init(ansatz, cfg.seed ^ index),
                           float("nan"), 0) for index, point in enumerate(points)]
    total = _solve("initial optimization", family, ansatz, cfg.lam, cfg.opt, refs, range(len(refs)),
                   anchors=np.zeros((len(refs), ansatz.n_params)), x0s=[r.alpha for r in refs],
                   pin_branch=False)

    landscape = Landscape(
        family=family,
        ansatz=ansatz,
        lam=cfg.lam,
        references=refs,
        mesh=build_mesh(points),
        log=[],
        seed=cfg.seed,
    )
    landscape.log.append(_round_record(landscape, total))
    return landscape


def _waves(mesh: SimplicialMesh, order) -> list:
    """Split a visit order into waves that can each run as one batch.

    A vertex goes in the wave after the latest one that holds a neighbor
    visited before it; within a wave, vertices keep their visit order.
    Why this keeps every visit's inputs is in the module header.
    """
    wave_of, waves = {}, []
    for i in order:
        k = 1 + max((wave_of[j] for j in neighbors(mesh, i) if j in wave_of), default=-1)
        wave_of[i] = k
        if k == len(waves):
            waves.append([])
        waves[k].append(i)
    return waves


def reoptimization_round(landscape: Landscape, opt: OptConfig) -> Landscape:
    """One neighbor-coordination pass over all references (in place).

    The landscape carries the family, ansatz and λ; ``opt`` sets the
    optimizer. Runs the visit order wave by wave (see _waves), each wave
    as one lockstep batch whose problems are numbered in visit order;
    every reference gets the pulse and report that visiting it alone
    gives.
    """
    refs = landscape.references
    snapshot = [neighbor_penalty(landscape, i) for i in range(len(refs))]
    iterations = 0
    for wave in _waves(landscape.mesh, visit_order(snapshot)):
        ahats = np.stack([neighbor_average(landscape, i) for i in wave])
        iterations += _solve("re-optimization", landscape.family, landscape.ansatz, landscape.lam,
                             opt, refs, wave, anchors=ahats, x0s=ahats, pin_branch=True)

    landscape.log.append(_round_record(landscape, iterations))
    return landscape


def calibration_rounds(cfg: CalibConfig):
    """The calibration schedule: the initial round, then cfg.rounds re-optimization rounds.

    Yields the one landscape after each round, so its log holds k + 1
    records at yield k. This is the only statement of the schedule:
    ``calibrate`` runs it to the end and ``evaluate.sweep`` scores each
    yield. Both rounds are looked up as this module's globals at each
    call, so a profiler or a test that wraps them there sees every round.
    """
    landscape = initial_round(cfg)
    yield landscape
    for _ in range(cfg.rounds):
        yield reoptimization_round(landscape, cfg.opt)


def calibrate(cfg: CalibConfig) -> Landscape:
    """Full pipeline: every round of ``calibration_rounds``; the landscape after the last."""
    *_, landscape = calibration_rounds(cfg)
    return landscape

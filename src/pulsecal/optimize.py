"""Bounded local minimization of the pulse cost.

Projected L-BFGS with a backtracking line search, clamped to the box
[-alpha_max, +alpha_max] whose half-width the caller passes: for a pulse
problem, the ansatz's. One "iteration" is one accepted step; line
search probes are tallied separately in the report. Given the same
starting point and configuration the run is bit-reproducible: there is
no randomness anywhere in the loop.

``OptConfig`` holds the iteration cap; the stopping tolerances are
module constants.

The L-BFGS body is written once, as an ask/tell machine (``_lbfgs``): a
generator that yields every point it needs evaluated and is sent back
the cost and gradient there. ``minimize`` drives one machine with one
objective ``fun(x)``. ``minimize_lockstep`` drives many: each tick it
stacks every unfinished problem's pending point, evaluates them in one
batched objective call ``fun(xs, rows)``, and sends each machine its own
row, so a problem's arithmetic, and so its result, is the same as alone.
The pulse kernel gives every row of a batch the bits of a single call,
which is what lets independent pulse problems share its per-call
overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator

import numpy as np

from .errors import OptimizationError
from .pulses import KERNEL_BATCH, ControlAnsatz, CostSpec, HamiltonianModel, cost_and_gradient

# Stop on a projected gradient below _GRAD_TOL, or after _STALL_WINDOW
# accepted steps in a row that each gain at most _COST_REL_TOL of the cost.
_GRAD_TOL = 1e-8
_COST_REL_TOL = 1e-9
_STALL_WINDOW = 5
_HISTORY = 10  # curvature pairs kept by the two-loop recursion


@dataclass(frozen=True)
class OptConfig:
    max_iter: int = 50

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class OptReport:
    """Outcome of one minimize() call.

    ``iterations`` counts accepted steps (the headline cost metric);
    ``n_evaluations`` additionally counts every line-search probe.
    """

    iterations: int
    final_cost: float
    converged_by: str  # "grad_tol" | "stall" | "max_iter"
    n_evaluations: int


def seeded_init(ansatz: ControlAnsatz, rng_seed: int) -> np.ndarray:
    """Uniform i.i.d. initial pulse in [-alpha_max/2, +alpha_max/2], reproducible."""
    scale = 0.5 * ansatz.alpha_max
    return np.random.default_rng(rng_seed).uniform(-scale, scale, ansatz.n_params)


def pulse_objective(
    spec: CostSpec, model: HamiltonianModel, ansatz: ControlAnsatz
) -> Callable[[np.ndarray, np.ndarray], tuple]:
    """The objective of N pulse problems, as minimize_lockstep() takes it.

    ``spec`` holds their targets (N, dim, dim) and anchors (N, n_params).
    ``fn(alphas, rows)`` evaluates the problems numbered ``rows`` at the
    pulses ``alphas`` (len(rows), n_params) and returns their costs and
    gradients, in kernel calls of at most KERNEL_BATCH problems.
    """

    def block(alpha: np.ndarray, rows: np.ndarray) -> tuple:
        spec_block = CostSpec(spec.target[rows], spec.lam, spec.alpha0[rows], spec.pin_branch)
        return cost_and_gradient(spec_block, model, ansatz, alpha)

    def fn(alpha: np.ndarray, rows: np.ndarray) -> tuple:
        if len(rows) <= KERNEL_BATCH:
            return block(alpha, rows)
        costs, grads = zip(*(
            block(alpha[start : start + KERNEL_BATCH], rows[start : start + KERNEL_BATCH])
            for start in range(0, len(rows), KERNEL_BATCH)
        ))
        return np.concatenate(costs), np.concatenate(grads)

    return fn


def _lbfgs(
    x0: np.ndarray, alpha_max: float, cfg: OptConfig
) -> Generator[np.ndarray, tuple, tuple]:
    """The optimizer as an ask/tell machine: minimize()'s one L-BFGS body.

    A generator that yields each point it needs evaluated and is sent
    back the pair ``(cost, gradient)`` there. It returns ``(x,
    OptReport)`` through StopIteration. It raises OptimizationError only
    when the initial point is not finite, that is on the first send.
    """
    lo, hi = -alpha_max, alpha_max
    eps_act = 1e-12 * max(1.0, alpha_max)
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f, g = yield x
    g = np.asarray(g, dtype=float)
    if not (np.isfinite(f) and np.isfinite(g).all()):
        raise OptimizationError("non-finite cost or gradient at initial point")

    evals = 1
    iters = 0
    stall = 0
    reason = None
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []

    while iters < cfg.max_iter:
        at_lo = x <= lo + eps_act
        at_up = x >= hi - eps_act
        pg = g.copy()
        pg[at_lo & (g > 0)] = 0.0
        pg[at_up & (g < 0)] = 0.0
        if np.abs(pg).max() < _GRAD_TOL:
            reason = "grad_tol"
            break

        # Two-loop recursion for the quasi-Newton direction.
        q = g.copy()
        alphas = []
        for s, y, r in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
            a = r * (s @ q)
            alphas.append(a)
            q -= a * y
        if s_hist:
            q *= (s_hist[-1] @ y_hist[-1]) / (y_hist[-1] @ y_hist[-1])
        for (s, y, r), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
            q += (a - r * (y @ q)) * s
        d = -q

        # Zero the components that would immediately push against an
        # active bound, so the line search moves inside the feasible
        # cone; fall back to steepest feasible descent if that leaves
        # a non-descent direction.
        d[at_lo & (d < 0)] = 0.0
        d[at_up & (d > 0)] = 0.0
        if not np.isfinite(d).all() or (g @ d) >= 0.0:
            d = -pg
        d_inf = np.abs(d).max()
        if d_inf == 0.0:
            reason = "grad_tol"
            break

        if s_hist:
            t = min(1.0, 2.0 * alpha_max / d_inf)
        else:
            t = min(1.0, 1.0 / max(np.linalg.norm(g), 1e-12))

        accepted = False
        xn = x
        fn_val, gn = f, g
        for _ in range(60):
            xn = np.clip(x + t * d, lo, hi)
            step = xn - x
            if not np.any(step):
                break
            fn_val, gn = yield xn
            gn = np.asarray(gn, dtype=float)
            evals += 1
            gs = g @ step
            if np.isfinite(fn_val) and fn_val <= f + 1e-4 * min(gs, 0.0):
                accepted = True
                break
            t *= 0.5
        if not accepted:
            reason = "stall"
            break

        iters += 1
        s_new = xn - x
        y_new = gn - g
        sy = s_new @ y_new
        if sy > 1e-10 * np.linalg.norm(s_new) * np.linalg.norm(y_new):
            s_hist.append(s_new)
            y_hist.append(y_new)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > _HISTORY:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)
        improvement = f - fn_val
        x, f, g = xn, fn_val, gn
        if improvement <= _COST_REL_TOL * max(abs(f), 1.0):
            stall += 1
            if stall >= _STALL_WINDOW:
                reason = "stall"
                break
        else:
            stall = 0

    if reason is None:
        reason = "max_iter"

    report = OptReport(
        iterations=iters,
        final_cost=float(f),
        converged_by=reason,
        n_evaluations=evals,
    )
    return x, report


def minimize(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    alpha_max: float,
    cfg: OptConfig,
) -> tuple[np.ndarray, OptReport]:
    """Minimize ``fun`` inside the box [-alpha_max, +alpha_max], starting at ``x0``.

    ``fun(x)`` returns the pair ``(cost, gradient)``; for a pulse problem
    that is ``functools.partial(cost_and_gradient, spec, model, ansatz)``.
    """
    machine = _lbfgs(x0, alpha_max, cfg)
    x = next(machine)
    while True:
        try:
            x = machine.send(fun(x))
        except StopIteration as done:
            return done.value


def minimize_lockstep(fun: Callable[..., tuple], x0s, alpha_max: float, cfg: OptConfig) -> list:
    """minimize() for many problems, evaluated in lockstep batches.

    ``fun(xs, rows)`` evaluates the problems numbered ``rows`` (ascending)
    at the stacked points ``xs`` and returns their costs and gradients
    row by row; pulse_objective() builds it for pulse problems. Every
    tick evaluates each unfinished problem's pending point in one call,
    and a problem leaves the batch when it stops. Returns one
    ``(x, OptReport)`` per problem, each what minimize() gives that
    problem alone, provided ``fun`` gives each row what it gives alone.
    A non-finite start raises the OptimizationError of the lowest
    numbered failing problem, with ``problem`` set to its number.
    """
    machines = [_lbfgs(x0, alpha_max, cfg) for x0 in x0s]
    pending = {i: next(m) for i, m in enumerate(machines)}
    results = [None] * len(machines)
    while pending:
        rows = list(pending)
        costs, grads = fun(np.stack([pending[i] for i in rows]), np.array(rows))
        pending = {}
        for i, f, g in zip(rows, costs, grads):
            try:
                pending[i] = machines[i].send((f, g))
            except StopIteration as done:
                results[i] = done.value
            except OptimizationError as exc:
                raise OptimizationError(str(exc), problem=i) from exc
    return results

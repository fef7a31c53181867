"""Bounded local minimization of the pulse cost.

Projected L-BFGS with a backtracking line search, clamped to the box
[-alpha_max, +alpha_max] whose half-width the caller passes: for a pulse
problem, the ansatz's. One "iteration" is one accepted step; line
search probes are tallied separately in the report. Given the same
starting point and configuration the run is bit-reproducible: there is
no randomness anywhere in the loop.

``OptConfig`` holds the iteration cap; the stopping tolerances are
module constants.

The L-BFGS body is written twice, as one algorithm:

- ``_lbfgs`` is an ask/tell machine: a generator that yields every point
  it needs evaluated and is sent back the cost and gradient there.
  ``minimize`` drives one machine with one objective ``fun(x)``.
- ``_lbfgs_batch`` steps many problems as one array state: row r of
  every array is problem r's point, cost, gradient, search direction,
  step and counters, and its curvature pairs sit right-aligned in
  ``(history, N, n)`` arrays. Each tick evaluates every unfinished
  problem's pending point in one batched call ``fun(xs, rows)``, then
  makes a fixed number of numpy calls whatever N is, and a problem's
  row leaves the arrays when it stops.

``minimize_lockstep`` picks between them by batch size: under
``_BATCHED_FROM`` problems it drives one ``_lbfgs`` machine per problem,
whose Python costs less per tick than the array state's fixed calls;
from there on it runs ``_lbfgs_batch``. On a synthetic 100-parameter
problem (one BLAS thread), a tick cost the machines 54, 144 and 737 µs
for 1, 3 and 16 problems, and the array state 112, 128 and 187 µs.
Either way each problem gets, bit for bit, what ``minimize`` gives it
alone, because the array state keeps each row's arithmetic:

- every dot product is ``np.vecdot`` on contiguous rows, which calls the
  same BLAS dot as a 1-D ``a @ b`` (``einsum`` and ``(a * b).sum(1)``
  sum in another order), and every norm is ``np.sqrt(np.vecdot(v, v))``,
  as ``np.linalg.norm`` computes it;
- the two-loop recursion masks each slot a row does not hold, so every
  row runs its own recursion's operations in its own order;
- Python's ``min`` and ``max`` become ``np.where`` of their comparison,
  so a NaN picks the same operand.

The pulse kernel gives every row of a batch the bits of a single call,
which is what lets independent pulse problems share its per-call
overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator

import numpy as np

from .errors import OptimizationError
from .pulses import ControlAnsatz, CostSpec, HamiltonianModel, check_count, cost_and_gradient

# Stop on a projected gradient below _GRAD_TOL, or after _STALL_WINDOW
# accepted steps in a row that each gain at most _COST_REL_TOL of the cost.
_GRAD_TOL = 1e-8
_COST_REL_TOL = 1e-9
_STALL_WINDOW = 5
_HISTORY = 10  # curvature pairs kept by the two-loop recursion
_LINE_SEARCH_TRIES = 60  # probes of one line search before it gives up
# Batches of at least this many problems run as one array state; see the
# module docstring.
_BATCHED_FROM = 4


@dataclass(frozen=True)
class OptConfig:
    max_iter: int = 50

    def __post_init__(self):
        object.__setattr__(self, "max_iter", check_count(self.max_iter, 1, "max_iter"))


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
    pulses ``alphas`` (len(rows), n_params) in one cost_and_gradient call.
    """

    def fn(alpha: np.ndarray, rows: np.ndarray) -> tuple:
        rows_spec = CostSpec(spec.target[rows], spec.lam, spec.alpha0[rows], spec.pin_branch)
        return cost_and_gradient(rows_spec, model, ansatz, alpha)

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
        for _ in range(_LINE_SEARCH_TRIES):
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


# _lbfgs_batch's stop codes: index 0 is a row still running.
_STOPS = (None, "grad_tol", "stall", "max_iter")
_GRAD, _STALL, _MAX_ITER = 1, 2, 3


def _py_min(a, b):
    """Python's ``min(a, b)`` elementwise: ``a`` unless ``b < a``, so a NaN ``b`` gives ``a``."""
    return np.where(b < a, b, a)


def _py_max(a, b):
    """Python's ``max(a, b)`` elementwise: ``a`` unless ``b > a``."""
    return np.where(b > a, b, a)


def _two_loop(G: np.ndarray, S: np.ndarray, Y: np.ndarray, RHO: np.ndarray,
              K: np.ndarray) -> np.ndarray:
    """_lbfgs's two-loop recursion for every row of a batch at once.

    Row r holds its K[r] newest curvature pairs right-aligned, in slots
    H - K[r] .. H - 1 of S and Y (H, N, m) and RHO (H, N). A slot that a
    row does not hold leaves that row's q as it is, so each row runs the
    operations of its own recursion in its own order. Returns q.
    """
    H = len(S)
    every, some = H - int(K.min()), H - int(K.max())  # first slot held by every row, by some
    held = (K >= H - np.arange(H)[:, None])[..., None] if some < every else None
    Q = G.copy()
    A = [None] * H  # each slot's alphas, as a column
    for j in range(H - 1, some - 1, -1):
        A[j] = (RHO[j] * np.vecdot(S[j], Q))[:, None]
        if j >= every:
            Q -= A[j] * Y[j]
        else:
            Q = np.where(held[j], Q - A[j] * Y[j], Q)
    if some < H:
        gamma = np.vecdot(S[-1], Y[-1]) / np.vecdot(Y[-1], Y[-1])
        Q = np.where((K > 0)[:, None], Q * gamma[:, None], Q)
    for j in range(some, H):
        b = A[j] - (RHO[j] * np.vecdot(Y[j], Q))[:, None]
        if j >= every:
            Q += b * S[j]
        else:
            Q = np.where(held[j], Q + b * S[j], Q)
    return Q


def _lbfgs_batch(fun: Callable[..., tuple], x0s, alpha_max: float, cfg: OptConfig) -> list:
    """_lbfgs for a batch of at least one problem, stepped as one array state.

    Row r of ``X, F, G`` (point, cost, gradient), ``D, T`` (search
    direction and step) and of the counters is problem ``rows[r]``'s.
    Every tick makes one call ``fun(XN, rows)`` at the rows' pending
    points, and a row leaves the arrays when its problem stops. Returns
    one ``(x, OptReport)`` per problem, each bit for bit what _lbfgs
    gives it; the module docstring has the rules that keep the bits.
    A non-finite start raises the OptimizationError of the lowest
    numbered failing problem, with ``problem`` set to its number.
    """
    lo, hi = -alpha_max, alpha_max
    eps_act = 1e-12 * max(1.0, alpha_max)
    X = np.clip(np.array(x0s, dtype=float), lo, hi)
    n, m = X.shape
    rows = np.arange(n)
    F, G = _evaluate(fun, X, rows)
    failed = ~(np.isfinite(F) & np.isfinite(G).all(axis=1))
    if failed.any():
        raise OptimizationError("non-finite cost or gradient at initial point",
                                problem=int(np.argmax(failed)))

    H = _HISTORY
    S, Y, RHO = np.zeros((H, n, m)), np.zeros((H, n, m)), np.zeros((H, n))
    K = np.zeros(n, dtype=int)  # pairs held
    iters, evals = np.zeros(n, dtype=int), np.ones(n, dtype=int)
    stall, tries = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    D, T = np.zeros((n, m)), np.zeros(n)
    stop = np.zeros(n, dtype=int)  # index into _STOPS
    head = np.ones(n, dtype=bool)  # rows at the head of _lbfgs's loop
    results = [None] * n
    while True:
        # Rows past a NaN, and rows that stop this tick, compute values
        # nothing reads; their warnings would be false alarms.
        with np.errstate(all="ignore"):
            stop[head & (iters >= cfg.max_iter)] = _MAX_ITER
            head &= stop == 0
            if head.any():
                at_lo = X <= lo + eps_act
                at_up = X >= hi - eps_act
                PG = np.where(at_lo & (G > 0) | at_up & (G < 0), 0.0, G)
                stop[head & (np.abs(PG).max(axis=1) < _GRAD_TOL)] = _GRAD
                head &= stop == 0
                Dh = -_two_loop(G, S, Y, RHO, K)
                Dh = np.where(at_lo & (Dh < 0) | at_up & (Dh > 0), 0.0, Dh)
                uphill = ~np.isfinite(Dh).all(axis=1) | (np.vecdot(G, Dh) >= 0.0)
                Dh = np.where(uphill[:, None], -PG, Dh)
                d_inf = np.abs(Dh).max(axis=1)
                stop[head & (d_inf == 0.0)] = _GRAD
                head &= stop == 0
                t0 = _py_min(1.0, 2.0 * alpha_max / d_inf)
                first = K == 0  # a first step has no curvature to scale it
                if first.any():
                    gnorm = np.sqrt(np.vecdot(G, G))
                    t0 = np.where(first, _py_min(1.0, 1.0 / _py_max(gnorm, 1e-12)), t0)
                D = np.where(head[:, None], Dh, D)
                T = np.where(head, t0, T)
                tries[head] = 0
            XN = np.clip(X + T[:, None] * D, lo, hi)
            STEP = XN - X
            stop[(stop == 0) & ~STEP.any(axis=1)] = _STALL

        done = stop != 0
        if done.any():
            for r in np.flatnonzero(done):
                results[rows[r]] = (X[r].copy(), OptReport(
                    iterations=int(iters[r]), final_cost=float(F[r]),
                    converged_by=_STOPS[stop[r]], n_evaluations=int(evals[r])))
            keep = ~done
            if not keep.any():
                return results
            (rows, X, F, G, D, T, XN, STEP, K, iters, evals, stall, tries,
             stop) = (v[keep] for v in (rows, X, F, G, D, T, XN, STEP, K, iters, evals, stall,
                                        tries, stop))
            S, Y, RHO = (np.compress(keep, v, axis=1) for v in (S, Y, RHO))

        FN, GN = _evaluate(fun, XN, rows)
        evals += 1
        with np.errstate(all="ignore"):
            gs = np.vecdot(G, STEP)
            accepted = np.isfinite(FN) & (FN <= F + 1e-4 * _py_min(gs, 0.0))
            rejected = ~accepted
            T = np.where(rejected, T * 0.5, T)
            tries += rejected
            stop[rejected & (tries >= _LINE_SEARCH_TRIES)] = _STALL

            iters += accepted
            YN = GN - G
            sy = np.vecdot(STEP, YN)
            norms = np.sqrt(np.vecdot(STEP, STEP)) * np.sqrt(np.vecdot(YN, YN))
            kept = np.flatnonzero(accepted & (sy > 1e-10 * norms))
            if len(kept):
                # Shift each kept row's pairs one slot left; the oldest of
                # a full history falls off.
                for hist, new in ((S, STEP), (Y, YN), (RHO, 1.0 / sy)):
                    hist[:-1, kept] = hist[1:, kept]
                    hist[-1, kept] = new[kept]
                K[kept] = np.minimum(K[kept] + 1, H)
            improvement = F - FN
            X = np.where(accepted[:, None], XN, X)
            F = np.where(accepted, FN, F)
            G = np.where(accepted[:, None], GN, G)
            small = improvement <= _COST_REL_TOL * _py_max(np.abs(F), 1.0)
            stall = np.where(accepted, np.where(small, stall + 1, 0), stall)
            stop[accepted & (stall >= _STALL_WINDOW)] = _STALL
            head = accepted & (stop == 0)


def _evaluate(fun: Callable[..., tuple], xs: np.ndarray, rows: np.ndarray) -> tuple:
    """``fun(xs, rows)`` as float arrays with contiguous rows, as np.vecdot needs them."""
    costs, grads = fun(xs, rows)
    return np.asarray(costs, dtype=float), np.ascontiguousarray(grads, dtype=float)


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
    and a problem leaves the batch when it stops. A batch of
    _BATCHED_FROM problems or more runs as one array state
    (_lbfgs_batch), a smaller one as one _lbfgs machine each. Returns one
    ``(x, OptReport)`` per problem, each what minimize() gives that
    problem alone, provided ``fun`` gives each row what it gives alone.
    A non-finite start raises the OptimizationError of the lowest
    numbered failing problem, with ``problem`` set to its number.
    """
    if len(x0s) >= _BATCHED_FROM:
        return _lbfgs_batch(fun, x0s, alpha_max, cfg)
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

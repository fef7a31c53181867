import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pulsecal as pc
from pulsecal.errors import OptimizationError
from pulsecal.families import CONTROLS_1Q
from pulsecal.optimize import (
    OptConfig,
    minimize,
    minimize_lockstep,
    pulse_objective,
    seeded_init,
)
from pulsecal.pulses import ControlAnsatz, CostSpec, HamiltonianModel, cost_and_gradient, evolve

ANSATZ_1Q = ControlAnsatz(n_controls=2)
MODEL_1Q = HamiltonianModel(controls=CONTROLS_1Q)


def quadratic(center):
    center = np.asarray(center, dtype=float)

    def fn(x):
        d = x - center
        return float(d @ d), 2.0 * d

    return fn


# -- convex oracles ----------------------------------------------------------

def test_quadratic_interior_minimum_found():
    rng = np.random.default_rng(1)
    for _ in range(10):
        c = rng.uniform(-0.8, 0.8, 12)
        x, report = minimize(quadratic(c), np.zeros(12), 1.0, OptConfig())
        assert np.abs(x - c).max() < 1e-8
        assert report.converged_by in ("grad_tol", "stall", "max_iter")


def test_quadratic_exterior_minimum_clamps_to_box():
    c = np.array([1.7, -2.4, 0.3, 0.0])
    x, _ = minimize(quadratic(c), np.zeros(4), 1.0, OptConfig())
    assert np.abs(x - np.clip(c, -1, 1)).max() < 1e-8


def test_box_is_the_half_width_passed_in():
    c = np.array([1.7, -2.4, 0.3, 0.0])
    # The start lies outside the box too, and is clipped into it.
    x, _ = minimize(quadratic(c), np.ones(4), 0.5, OptConfig())
    assert np.abs(x - np.clip(c, -0.5, 0.5)).max() < 1e-8
    batch = row_by_row([quadratic(c)], [])
    [(x_batch, _)] = minimize_lockstep(batch, [np.ones(4)], 0.5, OptConfig())
    assert x_batch.tobytes() == x.tobytes()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-0.9, 0.9), min_size=3, max_size=8))
def test_quadratic_converges_for_arbitrary_centers(center):
    c = np.array(center)
    x, _ = minimize(quadratic(c), np.zeros(len(c)), 1.0, OptConfig())
    assert np.abs(x - c).max() < 1e-7


def test_zero_gradient_start_returns_immediately():
    spec = CostSpec(target=np.eye(2), lam=1e-2, alpha0=np.zeros(40))
    obj = functools.partial(cost_and_gradient, spec, MODEL_1Q, ANSATZ_1Q)
    x, report = minimize(obj, np.zeros(40), ANSATZ_1Q.alpha_max, OptConfig())
    assert np.array_equal(x, np.zeros(40))
    assert report.iterations <= 1
    assert report.converged_by == "grad_tol"


# -- contracts ---------------------------------------------------------------

def test_result_never_worse_than_start():
    rng = np.random.default_rng(2)
    target = pc.SINGLE_QUBIT.target((0.4, 0.3, 0.2))
    spec = CostSpec(target=target, lam=1e-2, alpha0=np.zeros(40))
    obj = functools.partial(cost_and_gradient, spec, MODEL_1Q, ANSATZ_1Q)
    for seed in range(5):
        x0 = seeded_init(ANSATZ_1Q, seed)
        f0, _ = obj(x0)
        x, report = minimize(obj, x0, ANSATZ_1Q.alpha_max, OptConfig())
        assert report.final_cost <= f0
        assert np.abs(x).max() <= 1.0 + 1e-12


def test_iterations_respect_cap_and_evaluations_exceed_them():
    target = pc.SINGLE_QUBIT.target((1.0, 0.0, 0.0))
    spec = CostSpec(target=target, lam=1e-2, alpha0=np.zeros(40))
    obj = functools.partial(cost_and_gradient, spec, MODEL_1Q, ANSATZ_1Q)
    x, report = minimize(
        obj, seeded_init(ANSATZ_1Q, 0), ANSATZ_1Q.alpha_max, OptConfig(max_iter=7)
    )
    assert report.iterations <= 7
    # one evaluation at the start plus at least one per accepted step
    assert report.n_evaluations >= report.iterations + 1


def test_minimize_is_deterministic():
    target = pc.SINGLE_QUBIT.target((0.2, 0.7, 0.1))
    spec = CostSpec(target=target, lam=1e-2, alpha0=np.zeros(40))
    obj = functools.partial(cost_and_gradient, spec, MODEL_1Q, ANSATZ_1Q)
    x0 = seeded_init(ANSATZ_1Q, 12)
    xa, ra = minimize(obj, x0, ANSATZ_1Q.alpha_max, OptConfig())
    xb, rb = minimize(obj, x0, ANSATZ_1Q.alpha_max, OptConfig())
    assert np.array_equal(xa, xb)
    assert ra == rb


def test_non_finite_start_raises():
    def bad(x):
        return np.nan, np.zeros_like(x)

    with pytest.raises(OptimizationError, match="non-finite"):
        minimize(bad, np.zeros(3), 1.0, OptConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        OptConfig(max_iter=0)


# -- lockstep batches ---------------------------------------------------------

def weighted_quadratic(center, weights, offset=0.0, sign=1.0, nan_within=0.0):
    """offset + sum w (x - c)^2; sign=-1 hands back an uphill gradient.

    The cost is NaN within ``nan_within`` of the center, so a descent
    toward it meets NaN part-way; the gradient stays finite.
    """
    center = np.asarray(center, dtype=float)
    weights = np.asarray(weights, dtype=float)

    def fn(x):
        d = x - center
        cost = offset + float(weights @ (d * d))
        if d @ d < nan_within**2:
            cost = np.nan
        return cost, sign * 2.0 * weights * d

    return fn


def row_by_row(funs, calls):
    """A lockstep objective that evaluates each row with its own function."""

    def fn(xs, rows):
        calls.append(list(rows))
        out = [funs[i](x) for i, x in zip(rows, xs)]
        return np.array([f for f, _ in out]), np.array([g for _, g in out])

    return fn


# The kinds of problem a lockstep batch mixes, with the stop each one
# reaches when its cap allows it.
_KINDS = ("start", "box", "max_iter", "stall", "uphill", "nan")


def _problem(kind: str, seed: int):
    """Problem ``kind`` number ``seed``: its start (up to twice the box) and objective."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-2.0, 2.0, 6)
    center = rng.uniform(-0.8, 0.8, 6)
    weights = np.logspace(0, rng.uniform(0.0, 2.0), 6)
    if kind == "start":  # grad_tol at the clipped start
        return x0, weighted_quadratic(np.clip(x0, -1.0, 1.0), weights)
    if kind == "box":  # grad_tol on the box
        return x0, weighted_quadratic(center + np.sign(center) * 1.5, np.ones(6))
    if kind == "max_iter":  # ill-conditioned
        return x0, weighted_quadratic(center, np.logspace(0, 4, 6))
    if kind == "stall":  # gains too small for the cost's size
        return x0, weighted_quadratic(center, weights, offset=10.0 ** rng.uniform(9, 11))
    if kind == "uphill":  # every line search fails: from the origin after
        # _LINE_SEARCH_TRIES probes, elsewhere once the step underflows
        return x0 * (seed % 2), weighted_quadratic(center, weights, sign=-1.0)
    # "nan": the cost turns NaN near the center, and the line search backs off.
    return x0, weighted_quadratic(center, weights, nan_within=rng.uniform(0.05, 0.5))


# Two batches run on every pass, one on each side of _BATCHED_FROM:
# (problems, max_iter).
_PINNED = [([(kind, seed) for seed in range(3) for kind in _KINDS], 12),
           ([("start", 7), ("max_iter", 7), ("uphill", 8)], 15)]


@settings(max_examples=60, deadline=None)
@given(
    problems=st.lists(st.tuples(st.sampled_from(_KINDS), st.integers(0, 2**32 - 1)),
                      min_size=1, max_size=40),
    max_iter=st.integers(1, 15),
)
@example(problems=_PINNED[0][0], max_iter=_PINNED[0][1])
@example(problems=_PINNED[1][0], max_iter=_PINNED[1][1])
def test_lockstep_gives_each_problem_what_minimize_gives_it_alone(problems, max_iter):
    # Batches of 1-40 problems fall on both sides of _BATCHED_FROM.
    cfg = OptConfig(max_iter=max_iter)
    drawn = [_problem(kind, seed) for kind, seed in problems]
    x0s = [x0 for x0, _ in drawn]
    calls = []
    results = minimize_lockstep(row_by_row([fun for _, fun in drawn], calls), x0s, 1.0, cfg)
    assert len(results) == len(problems)
    for (kind, seed), (x, report) in zip(problems, results):
        x0, fun = _problem(kind, seed)
        x_alone, report_alone = minimize(fun, x0, 1.0, cfg)
        assert x.tobytes() == x_alone.tobytes()
        assert report == report_alone
    reports = [report for _, report in results]
    # One call per tick, rows ascending; a problem leaves the batch when it
    # stops, so it takes part in exactly as many ticks as it evaluates.
    assert calls[0] == list(range(len(problems)))
    assert all(rows == sorted(rows) for rows in calls)
    assert len(calls) == max(r.n_evaluations for r in reports)
    for i, r in enumerate(reports):
        assert sum(i in rows for rows in calls) == r.n_evaluations
        assert all(i in rows for rows in calls[: r.n_evaluations])


def test_pinned_lockstep_examples_reach_every_stop():
    # The pinned examples above are only as strong as the stops they reach.
    for problems, max_iter in _PINNED:
        cfg = OptConfig(max_iter=max_iter)
        reports = [minimize(fun, x0, 1.0, cfg)[1] for x0, fun in
                   (_problem(kind, seed) for kind, seed in problems)]
        assert {r.converged_by for r in reports} == {"grad_tol", "stall", "max_iter"}
        assert len({r.n_evaluations for r in reports}) >= 3


def test_lockstep_pulse_problems_equal_minimize_alone():
    points = [(0.2, 0.7, 0.1), (1.0, 0.0, 0.0), (0.4, 0.3, 0.2), (0.0, 0.0, 0.0), (0.9, 0.5, 0.6)]
    targets = pc.SINGLE_QUBIT.target(np.array(points))
    anchors = np.zeros((len(points), 40))
    x0s = [seeded_init(ANSATZ_1Q, seed) for seed in range(len(points))]
    cfg = OptConfig()
    batch = pulse_objective(CostSpec(targets, 1e-2, anchors), MODEL_1Q, ANSATZ_1Q)
    results = minimize_lockstep(batch, x0s, ANSATZ_1Q.alpha_max, cfg)
    for target, x0, (x, report) in zip(targets, x0s, results):
        spec = CostSpec(target, 1e-2, np.zeros(40))
        obj = functools.partial(cost_and_gradient, spec, MODEL_1Q, ANSATZ_1Q)
        x_alone, report_alone = minimize(obj, x0, ANSATZ_1Q.alpha_max, cfg)
        assert x.tobytes() == x_alone.tobytes()
        assert report == report_alone
    assert len({(r.converged_by, r.n_evaluations) for _, r in results}) > 1


def test_lockstep_raises_for_the_lowest_numbered_failing_problem():
    def nan_cost(x):
        return np.nan, np.zeros_like(x)

    # Five problems run as one array state, three as one machine each.
    for n in (5, 3):
        funs = [weighted_quadratic(np.full(3, 0.5), np.ones(3))] * n
        funs[1] = funs[n - 1] = nan_cost
        with pytest.raises(OptimizationError,
                           match="non-finite cost or gradient at initial point") as info:
            minimize_lockstep(row_by_row(funs, []), [np.zeros(3)] * n, 1.0, OptConfig())
        assert info.value.problem == 1


def test_lockstep_of_no_problems_is_empty():
    assert minimize_lockstep(row_by_row([], []), [], 1.0, OptConfig()) == []


# -- seeded initial guesses ---------------------------------------------------

def test_seeded_init_reproducible():
    a = seeded_init(ANSATZ_1Q, 99)
    b = seeded_init(ANSATZ_1Q, 99)
    assert np.array_equal(a, b)


def test_seeded_init_seeds_differ():
    assert not np.array_equal(seeded_init(ANSATZ_1Q, 1), seeded_init(ANSATZ_1Q, 2))


def test_seeded_init_default_scale_is_half_amplitude():
    x = seeded_init(ANSATZ_1Q, 8)
    assert np.abs(x).max() <= 0.5


# -- empirical solver quality --------------------------------------------------

def test_hard_x_rotation_solved_from_most_seeds():
    """Unregularized descent reaches the pi x-rotation from >=9/10 seeds.

    Recorded oracle facts behind the parameter choice: with lam=1e-2 the
    regularized optimum for this target sits at infidelity ~2.5e-6 for
    every seed (the penalty floor, confirmed by 300-iteration runs), so
    the 1e-6 bar is only meaningful for the pure gate cost; and from
    scale-0.5 starts only about half the seeds clear the initial plateau
    within 50 iterations, while full-amplitude starts clear it reliably.
    """
    fam = pc.get_family("single-qubit")
    target = fam.unitary((1.0, 0.0, 0.0))
    spec = CostSpec(target=target, lam=0.0, alpha0=np.zeros(40))
    obj = functools.partial(cost_and_gradient, spec, MODEL_1Q, ANSATZ_1Q)

    wins = 0
    for seed in range(10):
        x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, ANSATZ_1Q.n_params)
        x, report = minimize(obj, x0, ANSATZ_1Q.alpha_max, OptConfig())
        assert report.iterations <= 50
        wins += pc.gate_infidelity(evolve(MODEL_1Q, ANSATZ_1Q, x), target) < 1e-6
    assert wins >= 9

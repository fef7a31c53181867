import functools

import numpy as np
import pytest
from hypothesis import given, settings
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
    target = pc.single_qubit_unitary((0.4, 0.3, 0.2))
    spec = CostSpec(target=target, lam=1e-2, alpha0=np.zeros(40))
    obj = functools.partial(cost_and_gradient, spec, MODEL_1Q, ANSATZ_1Q)
    for seed in range(5):
        x0 = seeded_init(ANSATZ_1Q, seed)
        f0, _ = obj(x0)
        x, report = minimize(obj, x0, ANSATZ_1Q.alpha_max, OptConfig())
        assert report.final_cost <= f0
        assert np.abs(x).max() <= 1.0 + 1e-12


def test_iterations_respect_cap_and_evaluations_exceed_them():
    target = pc.single_qubit_unitary((1.0, 0.0, 0.0))
    spec = CostSpec(target=target, lam=1e-2, alpha0=np.zeros(40))
    obj = functools.partial(cost_and_gradient, spec, MODEL_1Q, ANSATZ_1Q)
    x, report = minimize(
        obj, seeded_init(ANSATZ_1Q, 0), ANSATZ_1Q.alpha_max, OptConfig(max_iter=7)
    )
    assert report.iterations <= 7
    # one evaluation at the start plus at least one per accepted step
    assert report.n_evaluations >= report.iterations + 1


def test_minimize_is_deterministic():
    target = pc.single_qubit_unitary((0.2, 0.7, 0.1))
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

def weighted_quadratic(center, weights, offset=0.0, sign=1.0):
    """offset + sum w (x - c)^2; sign=-1 hands back an uphill gradient."""
    center = np.asarray(center, dtype=float)
    weights = np.asarray(weights, dtype=float)

    def fn(x):
        d = x - center
        return offset + float(weights @ (d * d)), sign * 2.0 * weights * d

    return fn


def row_by_row(funs, calls):
    """A lockstep objective that evaluates each row with its own function."""

    def fn(xs, rows):
        calls.append(list(rows))
        out = [funs[i](x) for i, x in zip(rows, xs)]
        return np.array([f for f, _ in out]), np.array([g for _, g in out])

    return fn


def test_lockstep_gives_each_problem_what_minimize_gives_it_alone():
    rng = np.random.default_rng(5)
    c = [rng.uniform(-0.8, 0.8, 6) for _ in range(7)]
    funs = [
        weighted_quadratic(c[0], np.ones(6)),  # grad_tol after 2 steps
        weighted_quadratic(c[1], np.logspace(0, 4, 6)),  # max_iter
        weighted_quadratic(c[2], np.logspace(0, 2, 6), offset=1e10),  # stall, tiny gains
        weighted_quadratic(c[3], np.ones(6), sign=-1.0),  # stall, line search fails
        weighted_quadratic([2.0, 0.3, -3.0, 0.1, 0.5, 0.2], np.ones(6)),  # grad_tol on the box
        weighted_quadratic(c[5], np.logspace(0, 3, 6), offset=1e9),  # stall, later
        weighted_quadratic(np.zeros(6), np.ones(6)),  # grad_tol at the start
    ]
    x0s = [np.zeros(6)] * 6 + [np.zeros(6)]
    cfg = OptConfig(max_iter=12)
    calls = []
    results = minimize_lockstep(row_by_row(funs, calls), x0s, 1.0, cfg)
    assert len(results) == len(funs)
    for fun, x0, (x, report) in zip(funs, x0s, results):
        x_alone, report_alone = minimize(fun, x0, 1.0, cfg)
        assert x.tobytes() == x_alone.tobytes()
        assert report == report_alone
    reports = [report for _, report in results]
    assert {r.converged_by for r in reports} == {"grad_tol", "stall", "max_iter"}
    assert len({r.n_evaluations for r in reports}) >= 5
    # One call per tick, rows ascending; a problem leaves the batch when it
    # stops, so it takes part in exactly as many ticks as it evaluates.
    assert calls[0] == list(range(len(funs)))
    assert all(rows == sorted(rows) for rows in calls)
    assert len(calls) == max(r.n_evaluations for r in reports)
    for i, r in enumerate(reports):
        assert sum(i in rows for rows in calls) == r.n_evaluations
        assert all(i in rows for rows in calls[: r.n_evaluations])


def test_lockstep_pulse_problems_equal_minimize_alone():
    points = [(0.2, 0.7, 0.1), (1.0, 0.0, 0.0), (0.4, 0.3, 0.2), (0.0, 0.0, 0.0), (0.9, 0.5, 0.6)]
    targets = pc.single_qubit_unitary(np.array(points))
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

    funs = [weighted_quadratic(np.full(3, 0.5), np.ones(3))] * 5
    funs[2] = funs[4] = nan_cost
    with pytest.raises(OptimizationError, match="non-finite cost or gradient at initial point") as info:
        minimize_lockstep(row_by_row(funs, []), [np.zeros(3)] * 5, 1.0, OptConfig())
    assert info.value.problem == 2


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

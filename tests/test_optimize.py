import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pulsecal as pc
from pulsecal.errors import OptimizationError
from pulsecal.families import CONTROLS_1Q
from pulsecal.optimize import OptConfig, minimize, pulse_objective, seeded_init
from pulsecal.pulses import ControlAnsatz, CostSpec, HamiltonianModel, evolve

ANSATZ_1Q = ControlAnsatz(n_controls=2)
MODEL_1Q = HamiltonianModel(controls=CONTROLS_1Q, dim=2)


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
        x, report = minimize(quadratic(c), np.zeros(12), OptConfig())
        assert np.abs(x - c).max() < 1e-8
        assert report.converged_by in ("grad_tol", "stall", "max_iter")


def test_quadratic_exterior_minimum_clamps_to_box():
    c = np.array([1.7, -2.4, 0.3, 0.0])
    x, _ = minimize(quadratic(c), np.zeros(4), OptConfig())
    assert np.abs(x - np.clip(c, -1, 1)).max() < 1e-8


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-0.9, 0.9), min_size=3, max_size=8))
def test_quadratic_converges_for_arbitrary_centers(center):
    c = np.array(center)
    x, _ = minimize(quadratic(c), np.zeros(len(c)), OptConfig())
    assert np.abs(x - c).max() < 1e-7


def test_zero_gradient_start_returns_immediately():
    spec = CostSpec(target=np.eye(2), lam=1e-2, alpha0=np.zeros(40))
    obj = pulse_objective(spec, MODEL_1Q, ANSATZ_1Q)
    x, report = minimize(obj, np.zeros(40), OptConfig())
    assert np.array_equal(x, np.zeros(40))
    assert report.iterations <= 1
    assert report.converged_by == "grad_tol"


# -- contracts ---------------------------------------------------------------

def test_result_never_worse_than_start():
    rng = np.random.default_rng(2)
    target = pc.single_qubit_unitary((0.4, 0.3, 0.2))
    spec = CostSpec(target=target, lam=1e-2, alpha0=np.zeros(40))
    obj = pulse_objective(spec, MODEL_1Q, ANSATZ_1Q)
    for seed in range(5):
        x0 = seeded_init(ANSATZ_1Q, seed)
        f0, _ = obj(x0)
        x, report = minimize(obj, x0, OptConfig())
        assert report.final_cost <= f0
        assert np.abs(x).max() <= 1.0 + 1e-12


def test_iterations_respect_cap_and_evaluations_exceed_them():
    target = pc.single_qubit_unitary((1.0, 0.0, 0.0))
    spec = CostSpec(target=target, lam=1e-2, alpha0=np.zeros(40))
    obj = pulse_objective(spec, MODEL_1Q, ANSATZ_1Q)
    x, report = minimize(obj, seeded_init(ANSATZ_1Q, 0), OptConfig(max_iter=7))
    assert report.iterations <= 7
    # one evaluation at the start plus at least one per accepted step
    assert report.n_evaluations >= report.iterations + 1


def test_minimize_is_deterministic():
    target = pc.single_qubit_unitary((0.2, 0.7, 0.1))
    spec = CostSpec(target=target, lam=1e-2, alpha0=np.zeros(40))
    obj = pulse_objective(spec, MODEL_1Q, ANSATZ_1Q)
    x0 = seeded_init(ANSATZ_1Q, 12)
    xa, ra = minimize(obj, x0, OptConfig())
    xb, rb = minimize(obj, x0, OptConfig())
    assert np.array_equal(xa, xb)
    assert ra == rb


def test_non_finite_start_raises():
    def bad(x):
        return np.nan, np.zeros_like(x)

    with pytest.raises(OptimizationError, match="non-finite"):
        minimize(bad, np.zeros(3), OptConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        OptConfig(max_iter=0)
    with pytest.raises(ValueError):
        OptConfig(grad_tol=0.0)
    with pytest.raises(ValueError):
        OptConfig(alpha_max=-1.0)


# -- seeded initial guesses ---------------------------------------------------

def test_seeded_init_reproducible():
    a = seeded_init(ANSATZ_1Q, 99)
    b = seeded_init(ANSATZ_1Q, 99)
    assert np.array_equal(a, b)


def test_seeded_init_seeds_differ():
    assert not np.array_equal(seeded_init(ANSATZ_1Q, 1), seeded_init(ANSATZ_1Q, 2))


def test_seeded_init_respects_scale():
    x = seeded_init(ANSATZ_1Q, 4, scale=0.5)
    assert x.shape == (40,)
    assert np.abs(x).max() <= 0.5


def test_seeded_init_default_scale_is_half_amplitude():
    x = seeded_init(ANSATZ_1Q, 8)
    assert np.abs(x).max() <= 0.5


def test_seeded_init_rejects_bad_scale():
    with pytest.raises(ValueError):
        seeded_init(ANSATZ_1Q, 0, scale=0.0)
    with pytest.raises(ValueError):
        seeded_init(ANSATZ_1Q, 0, scale=1.5)


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
    obj = pulse_objective(spec, MODEL_1Q, ANSATZ_1Q)

    wins = 0
    for seed in range(10):
        x0 = seeded_init(ANSATZ_1Q, seed, scale=1.0)
        x, report = minimize(obj, x0, OptConfig())
        assert report.iterations <= 50
        wins += pc.gate_infidelity(evolve(MODEL_1Q, ANSATZ_1Q, x), target, 2) < 1e-6
    assert wins >= 9

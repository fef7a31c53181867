import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pulsecal as pc
from pulsecal.families import CONTROLS_1Q, CONTROLS_2Q
from pulsecal.linalg import gate_infidelity, is_unitary
from pulsecal.pulses import (
    ControlAnsatz,
    CostSpec,
    HamiltonianModel,
    cost,
    cost_and_gradient,
    cost_gradient,
    evolve,
    tikhonov_weight,
)

ANSATZ_1Q = ControlAnsatz(n_controls=2)
ANSATZ_2Q = ControlAnsatz(n_controls=5)
MODEL_1Q = HamiltonianModel(controls=CONTROLS_1Q, dim=2)
MODEL_2Q = HamiltonianModel(controls=CONTROLS_2Q, dim=4)


def random_chamber_point(rng):
    tx = rng.random()
    ty = rng.uniform(0, min(tx, 1 - tx))
    tz = rng.uniform(0, ty)
    return (tx, ty, tz)


# -- regularization weight --------------------------------------------------

def test_tikhonov_weight_two_qubit_canonical():
    assert tikhonov_weight(1e-2, ANSATZ_2Q) == pytest.approx(1e-4, rel=1e-12)


def test_tikhonov_weight_single_qubit_canonical():
    assert tikhonov_weight(1e-2, ANSATZ_1Q) == pytest.approx(2.5e-4, rel=1e-12)


def test_tikhonov_weight_zero_lambda():
    assert tikhonov_weight(0.0, ANSATZ_2Q) == 0.0


def test_tikhonov_weight_rejects_negative_lambda():
    with pytest.raises(ValueError):
        tikhonov_weight(-1e-3, ANSATZ_1Q)


# -- time evolution ---------------------------------------------------------

def test_evolve_zero_pulse_is_identity():
    u = evolve(MODEL_2Q, ANSATZ_2Q, np.zeros(100))
    assert np.allclose(u, np.eye(4), atol=1e-14)


def test_constant_xx_drive_for_duration_pi_gives_minus_identity():
    alpha = np.zeros(100)
    alpha[:20] = 1.0  # control 0 = XX on in every segment
    u = evolve(MODEL_2Q, ANSATZ_2Q, alpha)
    assert np.allclose(u, -np.eye(4), atol=1e-12)
    # global phase is irrelevant to the gate
    assert gate_infidelity(u, np.eye(4), 4) < 1e-12


def test_segment_one_acts_first():
    ansatz = ControlAnsatz(n_controls=2, n_segments=2)
    dt = ansatz.dt
    # segment 1: pure sy drive; segment 2: pure sz drive
    alpha = np.array([1.0, 0.0, 0.0, 1.0])
    sy, sz = CONTROLS_1Q
    expected = pc.expm_hermitian(dt * sz) @ pc.expm_hermitian(dt * sy)
    assert np.allclose(evolve(MODEL_1Q, ansatz, alpha), expected, atol=1e-13)


def test_constant_pulse_segment_splitting_invariance():
    rng = np.random.default_rng(17)
    levels = rng.uniform(-1, 1, 5)
    coarse = ControlAnsatz(n_controls=5, n_segments=1)
    fine = ControlAnsatz(n_controls=5, n_segments=24)
    u1 = evolve(MODEL_2Q, coarse, levels)
    u2 = evolve(MODEL_2Q, fine, np.repeat(levels, 24))
    assert np.allclose(u1, u2, atol=1e-10)


def test_evolve_output_unitary():
    rng = np.random.default_rng(23)
    for _ in range(20):
        alpha = rng.uniform(-1, 1, 100)
        assert is_unitary(evolve(MODEL_2Q, ANSATZ_2Q, alpha), tol=1e-10)


def test_evolve_time_reversal():
    rng = np.random.default_rng(29)
    for model, ansatz in ((MODEL_1Q, ANSATZ_1Q), (MODEL_2Q, ANSATZ_2Q)):
        alpha = rng.uniform(-1, 1, ansatz.n_params)
        rev = (-alpha.reshape(ansatz.n_controls, ansatz.n_segments)[:, ::-1]).reshape(-1)
        u = evolve(model, ansatz, alpha)
        assert np.allclose(evolve(model, ansatz, rev), u.conj().T, atol=1e-10)


def test_evolve_rejects_out_of_bounds_amplitude():
    alpha = np.zeros(40)
    alpha[3] = 1.5
    with pytest.raises(ValueError, match="out of bounds"):
        evolve(MODEL_1Q, ANSATZ_1Q, alpha)


def test_evolve_rejects_wrong_shape():
    with pytest.raises(ValueError, match="shape"):
        evolve(MODEL_1Q, ANSATZ_1Q, np.zeros(39))
    with pytest.raises(ValueError, match="shape"):
        evolve(MODEL_1Q, ANSATZ_1Q, np.zeros((2, 2, 40)))


@pytest.mark.parametrize("model,ansatz", [(MODEL_1Q, ANSATZ_1Q), (MODEL_2Q, ANSATZ_2Q)])
def test_batched_evolve_equals_single_pulses_bit_for_bit(model, ansatz):
    rng = np.random.default_rng(17)
    batch = rng.uniform(-1.0, 1.0, (9, ansatz.n_params))
    batch[0] = 0.0
    stack = evolve(model, ansatz, batch)
    assert stack.shape == (9, model.dim, model.dim)
    for alpha, u in zip(batch, stack):
        assert u.tobytes() == evolve(model, ansatz, alpha).tobytes()
    with pytest.raises(ValueError, match="out of bounds"):
        evolve(model, ansatz, np.concatenate([batch, np.full((1, ansatz.n_params), 1.5)]))


def test_drift_term_contributes():
    drifted = HamiltonianModel(controls=CONTROLS_1Q, dim=2, drift=0.3 * CONTROLS_1Q[0])
    u0 = evolve(MODEL_1Q, ANSATZ_1Q, np.zeros(40))
    ud = evolve(drifted, ANSATZ_1Q, np.zeros(40))
    assert np.allclose(u0, np.eye(2), atol=1e-14)
    assert not np.allclose(ud, np.eye(2), atol=1e-3)
    assert np.allclose(ud, pc.expm_hermitian(np.pi * 0.3 * CONTROLS_1Q[0]), atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, 40, elements=st.floats(-1, 1, allow_nan=False)))
def test_evolve_always_unitary_in_bounds(alpha):
    assert is_unitary(evolve(MODEL_1Q, ANSATZ_1Q, alpha), tol=1e-10)


# -- cost -------------------------------------------------------------------

def test_cost_zero_at_identity_with_zero_pulse():
    spec = CostSpec(target=np.eye(4), lam=1e-2, alpha0=np.zeros(100))
    assert cost(spec, MODEL_2Q, ANSATZ_2Q, np.zeros(100)) < 1e-14


def test_cost_reduces_to_infidelity_when_lambda_zero():
    rng = np.random.default_rng(31)
    alpha = rng.uniform(-1, 1, 40)
    target = pc.single_qubit_unitary((0.5, 0.2, 0.1))
    spec = CostSpec(target=target, lam=0.0, alpha0=np.zeros(40))
    j = cost(spec, MODEL_1Q, ANSATZ_1Q, alpha)
    infid = gate_infidelity(evolve(MODEL_1Q, ANSATZ_1Q, alpha), target, 2)
    assert j == infid


def test_cost_reduces_to_infidelity_at_anchor():
    rng = np.random.default_rng(37)
    alpha = rng.uniform(-1, 1, 40)
    target = pc.single_qubit_unitary((0.1, 0.9, 0.3))
    spec = CostSpec(target=target, lam=1e-2, alpha0=alpha.copy())
    j = cost(spec, MODEL_1Q, ANSATZ_1Q, alpha)
    infid = gate_infidelity(evolve(MODEL_1Q, ANSATZ_1Q, alpha), target, 2)
    assert j == pytest.approx(infid, abs=1e-15)


def test_cost_bounded():
    rng = np.random.default_rng(41)
    target = pc.cartan_unitary(random_chamber_point(rng))
    spec = CostSpec(target=target, lam=1e-2, alpha0=np.zeros(100))
    bound = 1.0 + tikhonov_weight(1e-2, ANSATZ_2Q) * 100 * 4.0
    for _ in range(20):
        j = cost(spec, MODEL_2Q, ANSATZ_2Q, rng.uniform(-1, 1, 100))
        assert 0.0 <= j <= bound


def test_pinned_cost_separates_su2_branches():
    # The zero pulse implements I; -I is the other SU(2) branch of the
    # same gate. Only the branch-pinned cost tells them apart.
    zero = np.zeros(40)
    for target, want in ((np.eye(2), 0.0), (-np.eye(2), 4.0)):
        free = CostSpec(target=target, lam=1e-2, alpha0=zero)
        pinned = CostSpec(target=target, lam=1e-2, alpha0=zero, pin_branch=True)
        assert cost(free, MODEL_1Q, ANSATZ_1Q, zero) < 1e-14
        assert cost(pinned, MODEL_1Q, ANSATZ_1Q, zero) == pytest.approx(want, abs=1e-14)


def test_pinned_cost_matches_infidelity_to_first_order():
    # Near the target both forms agree up to O(eps^2) relative terms.
    rng = np.random.default_rng(61)
    alpha = rng.uniform(-1, 1, 100)
    u = evolve(MODEL_2Q, ANSATZ_2Q, alpha)
    for eps in (1e-2, 1e-3):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        h -= np.trace(h) / 4 * np.eye(4)
        target = u @ pc.expm_hermitian(eps * h)
        pinned = CostSpec(target=target, lam=0.0, alpha0=alpha, pin_branch=True)
        infid = gate_infidelity(u, target, 4)
        assert cost(pinned, MODEL_2Q, ANSATZ_2Q, alpha) == pytest.approx(infid, rel=10 * eps**2)


# -- gradient ---------------------------------------------------------------

def finite_difference(specobj, model, ansatz, alpha, coords, step=1e-6):
    out = {}
    for k in coords:
        up, dn = alpha.copy(), alpha.copy()
        up[k] += step
        dn[k] -= step
        out[k] = (cost(specobj, model, ansatz, up) - cost(specobj, model, ansatz, dn)) / (2 * step)
    return out


def test_gradient_zero_at_global_minimum():
    spec = CostSpec(target=np.eye(2), lam=1e-2, alpha0=np.zeros(40))
    g = cost_gradient(spec, MODEL_1Q, ANSATZ_1Q, np.zeros(40))
    assert np.abs(g).max() < 1e-14


def test_gradient_matches_finite_differences_single_qubit():
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(10):
        target = pc.single_qubit_unitary(rng.random(3))
        spec = CostSpec(target=target, lam=1e-2, alpha0=np.zeros(40))
        alpha = rng.uniform(-0.9, 0.9, 40)
        _, g = cost_and_gradient(spec, MODEL_1Q, ANSATZ_1Q, alpha)
        fd = finite_difference(spec, MODEL_1Q, ANSATZ_1Q, alpha, range(40))
        for k, v in fd.items():
            worst = max(worst, abs(g[k] - v) / max(1.0, abs(v)))
    assert worst < 1e-5


def test_gradient_matches_finite_differences_two_qubit():
    rng = np.random.default_rng(47)
    worst = 0.0
    for _ in range(6):
        target = pc.cartan_unitary(random_chamber_point(rng))
        spec = CostSpec(target=target, lam=1e-2, alpha0=np.zeros(100))
        alpha = rng.uniform(-0.9, 0.9, 100)
        _, g = cost_and_gradient(spec, MODEL_2Q, ANSATZ_2Q, alpha)
        coords = rng.choice(100, 12, replace=False)
        fd = finite_difference(spec, MODEL_2Q, ANSATZ_2Q, alpha, coords)
        for k, v in fd.items():
            worst = max(worst, abs(g[k] - v) / max(1.0, abs(v)))
    assert worst < 1e-5


def test_gradient_regularizer_part_is_linear():
    rng = np.random.default_rng(53)
    target = pc.single_qubit_unitary((0.7, 0.1, 0.1))
    alpha = rng.uniform(-1, 1, 40)
    anchor = rng.uniform(-1, 1, 40)
    g_reg = cost_gradient(CostSpec(target, 1e-2, anchor), MODEL_1Q, ANSATZ_1Q, alpha)
    g_free = cost_gradient(CostSpec(target, 0.0, anchor), MODEL_1Q, ANSATZ_1Q, alpha)
    lam_tilde = tikhonov_weight(1e-2, ANSATZ_1Q)
    assert np.allclose(g_reg - g_free, 2 * lam_tilde * (alpha - anchor), atol=1e-15)


def test_cost_and_gradient_agree_with_separate_calls():
    rng = np.random.default_rng(59)
    target = pc.single_qubit_unitary((0.2, 0.4, 0.4))
    alpha = rng.uniform(-1, 1, 40)
    for pin in (False, True):
        spec = CostSpec(target=target, lam=1e-2, alpha0=np.zeros(40), pin_branch=pin)
        j, g = cost_and_gradient(spec, MODEL_1Q, ANSATZ_1Q, alpha)
        assert j == cost(spec, MODEL_1Q, ANSATZ_1Q, alpha)
        assert np.array_equal(g, cost_gradient(spec, MODEL_1Q, ANSATZ_1Q, alpha))


# -- ansatz validation ------------------------------------------------------

def test_ansatz_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ControlAnsatz(n_controls=0)
    with pytest.raises(ValueError):
        ControlAnsatz(n_controls=2, n_segments=0)
    with pytest.raises(ValueError):
        ControlAnsatz(n_controls=2, duration=-1.0)


def test_ansatz_dt():
    assert ANSATZ_2Q.dt == pytest.approx(np.pi / 20, rel=1e-15)
    assert ANSATZ_2Q.n_params == 100

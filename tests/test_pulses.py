import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pulsecal as pc
from pulsecal.families import CONTROLS_1Q, CONTROLS_2Q
from pulsecal.linalg import gate_infidelity
from pulsecal.pulses import (
    KERNEL_BATCH,
    ControlAnsatz,
    CostSpec,
    HamiltonianModel,
    check_number,
    cost_and_gradient,
    evolve,
    tikhonov_weight,
)

from cost_reference import cost, cost_and_gradient_reference, evolve_reference
from gate_checks import is_unitary

ANSATZ_1Q = ControlAnsatz(n_controls=2)
ANSATZ_2Q = ControlAnsatz(n_controls=5)
MODEL_1Q = HamiltonianModel(controls=CONTROLS_1Q)
MODEL_2Q = HamiltonianModel(controls=CONTROLS_2Q)


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


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf"), -1.0])
def test_tikhonov_weight_refuses_lambda_that_is_not_finite_and_non_negative(lam):
    # The rule CalibConfig and the landscape loader apply too.
    problem = "a number >= 0" if np.isfinite(lam) else "a finite number"
    with pytest.raises(ValueError, match=rf"^lambda: expected {problem}, got {lam}$"):
        tikhonov_weight(lam, ANSATZ_1Q)


@pytest.mark.parametrize("value", [True, False, "1", None, 1j, np.complex128(1), [1.0],
                                   2**53 + 1, -(2**53) - 1, np.int64(-2**63)])
def test_check_number_refuses_what_is_not_a_number(value):
    with pytest.raises(ValueError, match=rf"^expected a number, got {re.escape(repr(value))}$"):
        check_number(value)


# A long double past the float range is finite where it is, not as a float.
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), np.float32("inf"),
                                   np.longdouble("1e400")])
def test_check_number_refuses_a_value_that_is_not_finite(value):
    with pytest.raises(ValueError, match=r"^x: expected a finite number, got "):
        check_number(value, name="x")


@pytest.mark.parametrize("value", [2**53, -(2**53), np.int64(-7), -1e308, np.float32(-0.5), 0.0])
def test_check_number_takes_every_finite_number_as_a_float_by_default(value):
    number = check_number(value)
    assert number == value and type(number) is float


def test_check_number_bound_is_strict_only_above():
    assert check_number(1, 1, "x") == 1.0
    with pytest.raises(ValueError, match=r"^x: expected a number >= 1, got 0\.5$"):
        check_number(0.5, 1, "x")
    with pytest.raises(ValueError, match=r"^x: expected a number > 1, got 1$"):
        check_number(1, 1, "x", above=True)
    assert check_number(np.nextafter(1.0, 2.0), 1, above=True) > 1.0


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
    assert gate_infidelity(u, np.eye(4)) < 1e-12


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
    for bad in (1.5, np.nan, np.inf, -np.inf):
        alpha = np.zeros(40)
        alpha[3] = bad
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


@pytest.mark.parametrize("family", list(pc.FAMILIES.values()), ids=list(pc.FAMILIES))
@pytest.mark.parametrize("n_batch", [1, 7, 64, 2 * KERNEL_BATCH + 1])
def test_evolve_equals_the_segment_by_segment_reference_bit_for_bit(family, n_batch):
    rng = np.random.default_rng(200 + n_batch)
    ansatz = ControlAnsatz(n_controls=family.model.n_controls)
    alphas = rng.uniform(-1, 1, (n_batch, ansatz.n_params))
    alphas[0, ::3] = 1.0
    alphas[-1] = 0.0
    stack = evolve(family.model, ansatz, alphas)
    assert stack.tobytes() == evolve_reference(family.model, ansatz, alphas).tobytes()
    for alpha, u in zip(alphas, stack):
        assert u.tobytes() == evolve_reference(family.model, ansatz, alpha).tobytes()


def test_amplitude_bound_is_inclusive_up_to_its_slack():
    edge = ANSATZ_1Q.alpha_max * (1 + 1e-12)
    for sign in (1.0, -1.0):
        alpha = np.zeros(40)
        alpha[7] = sign * edge
        evolve(MODEL_1Q, ANSATZ_1Q, alpha)
        alpha[7] = sign * np.nextafter(edge, np.inf)
        with pytest.raises(ValueError, match="out of bounds"):
            evolve(MODEL_1Q, ANSATZ_1Q, alpha)


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
    target = pc.SINGLE_QUBIT.target((0.5, 0.2, 0.1))
    spec = CostSpec(target=target, lam=0.0, alpha0=np.zeros(40))
    j = cost(spec, MODEL_1Q, ANSATZ_1Q, alpha)
    infid = gate_infidelity(evolve(MODEL_1Q, ANSATZ_1Q, alpha), target)
    assert j == infid


def test_cost_reduces_to_infidelity_at_anchor():
    rng = np.random.default_rng(37)
    alpha = rng.uniform(-1, 1, 40)
    target = pc.SINGLE_QUBIT.target((0.1, 0.9, 0.3))
    spec = CostSpec(target=target, lam=1e-2, alpha0=alpha.copy())
    j = cost(spec, MODEL_1Q, ANSATZ_1Q, alpha)
    infid = gate_infidelity(evolve(MODEL_1Q, ANSATZ_1Q, alpha), target)
    assert j == pytest.approx(infid, abs=1e-15)


def test_cost_bounded():
    rng = np.random.default_rng(41)
    target = pc.CARTAN_BOX.target(random_chamber_point(rng))
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
        infid = gate_infidelity(u, target)
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
    _, g = cost_and_gradient(spec, MODEL_1Q, ANSATZ_1Q, np.zeros(40))
    assert np.abs(g).max() < 1e-14


def test_gradient_matches_finite_differences_single_qubit():
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(10):
        target = pc.SINGLE_QUBIT.target(rng.random(3))
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
        target = pc.CARTAN_BOX.target(random_chamber_point(rng))
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
    target = pc.SINGLE_QUBIT.target((0.7, 0.1, 0.1))
    alpha = rng.uniform(-1, 1, 40)
    anchor = rng.uniform(-1, 1, 40)
    _, g_reg = cost_and_gradient(CostSpec(target, 1e-2, anchor), MODEL_1Q, ANSATZ_1Q, alpha)
    _, g_free = cost_and_gradient(CostSpec(target, 0.0, anchor), MODEL_1Q, ANSATZ_1Q, alpha)
    lam_tilde = tikhonov_weight(1e-2, ANSATZ_1Q)
    assert np.allclose(g_reg - g_free, 2 * lam_tilde * (alpha - anchor), atol=1e-15)


def test_cost_and_gradient_agree_with_separate_calls():
    rng = np.random.default_rng(59)
    target = pc.SINGLE_QUBIT.target((0.2, 0.4, 0.4))
    alpha = rng.uniform(-1, 1, 40)
    for pin in (False, True):
        spec = CostSpec(target=target, lam=1e-2, alpha0=np.zeros(40), pin_branch=pin)
        j, g = cost_and_gradient(spec, MODEL_1Q, ANSATZ_1Q, alpha)
        assert j == cost(spec, MODEL_1Q, ANSATZ_1Q, alpha)
        assert np.array_equal(g, cost_and_gradient(spec, MODEL_1Q, ANSATZ_1Q, alpha)[1])


def _family_points(family, rng, n):
    points = rng.random((n, 3))
    if family.name == "weyl-chamber":
        points[:, 1] *= np.minimum(points[:, 0], 1 - points[:, 0])
        points[:, 2] *= points[:, 1]
    return points


@pytest.mark.parametrize("family", list(pc.FAMILIES.values()), ids=list(pc.FAMILIES))
@pytest.mark.parametrize("pin", [False, True])
@pytest.mark.parametrize("n_batch", [0, 1, 7, 43, 2 * KERNEL_BATCH + 1])
def test_batched_cost_and_gradient_equal_single_calls_bit_for_bit(family, pin, n_batch):
    rng = np.random.default_rng(n_batch + 10 * pin)
    ansatz = ControlAnsatz(n_controls=family.model.n_controls)
    targets = family.target(_family_points(family, rng, n_batch))
    anchors = rng.uniform(-1, 1, (n_batch, ansatz.n_params))
    alphas = rng.uniform(-1, 1, (n_batch, ansatz.n_params))
    # Pulses that sit on the amplitude bound, wholly or in part.
    alphas[:1, ::3] = 1.0
    alphas[-1:, 1::4] = -1.0
    if n_batch > 2:
        alphas[1] = np.where(alphas[1] > 0, 1.0, -1.0)
    spec = CostSpec(target=targets, lam=1e-2, alpha0=anchors, pin_branch=pin)
    costs, grads = cost_and_gradient(spec, family.model, ansatz, alphas)
    assert costs.shape == (n_batch,) and grads.shape == (n_batch, ansatz.n_params)
    for b in range(n_batch):
        one = CostSpec(target=targets[b], lam=1e-2, alpha0=anchors[b], pin_branch=pin)
        j, g = cost_and_gradient(one, family.model, ansatz, alphas[b])
        assert isinstance(j, float) and g.shape == (ansatz.n_params,)
        assert costs[b] == j and grads[b].tobytes() == g.tobytes()


def _random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


def _random_unitaries(rng, n, dim):
    a = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
    return np.linalg.qr(a)[0]


def _dense_controls():
    rng = np.random.default_rng(5)
    return np.stack([_random_hermitian(rng, 4) for _ in range(3)])


def _mixed_controls():
    """Rows of 0 to 4 nonzeros: row 2 of the second control is all zero."""
    rng = np.random.default_rng(6)
    sparse = _random_hermitian(rng, 4)
    sparse[2, :] = sparse[:, 2] = 0
    sparse[0, 3] = sparse[3, 0] = 0
    return np.stack([np.kron(pc.linalg.SX, pc.linalg.SZ), sparse, _random_hermitian(rng, 4)])


HAND_BUILT_MODELS = {
    "dense": HamiltonianModel(controls=_dense_controls()),
    "mixed": HamiltonianModel(controls=_mixed_controls()),
}


def _assert_kernel_equals_reference(spec, model, ansatz, alphas):
    costs, grads = cost_and_gradient(spec, model, ansatz, alphas)
    ref_costs, ref_grads = cost_and_gradient_reference(spec, model, ansatz, alphas)
    assert np.asarray(costs).tobytes() == np.asarray(ref_costs).tobytes()
    assert grads.tobytes() == ref_grads.tobytes()


@pytest.mark.parametrize("family", list(pc.FAMILIES.values()), ids=list(pc.FAMILIES))
@pytest.mark.parametrize("pin", [False, True])
@pytest.mark.parametrize("n_batch", [1, 7, 43])
def test_cost_and_gradient_equal_the_reference_kernel_bit_for_bit(family, pin, n_batch):
    rng = np.random.default_rng(100 + n_batch + 10 * pin)
    ansatz = ControlAnsatz(n_controls=family.model.n_controls)
    targets = family.target(_family_points(family, rng, n_batch))
    anchors = rng.uniform(-1, 1, (n_batch, ansatz.n_params))
    alphas = rng.uniform(-1, 1, (n_batch, ansatz.n_params))
    alphas[0, ::3] = 1.0
    alphas[-1, 1::4] = -1.0
    if n_batch > 2:
        alphas[1] = np.where(alphas[1] > 0, 1.0, -1.0)
    spec = CostSpec(target=targets, lam=1e-2, alpha0=anchors, pin_branch=pin)
    _assert_kernel_equals_reference(spec, family.model, ansatz, alphas)
    one = CostSpec(target=targets[0], lam=1e-2, alpha0=anchors[0], pin_branch=pin)
    _assert_kernel_equals_reference(one, family.model, ansatz, alphas[0])


@pytest.mark.parametrize("name", list(HAND_BUILT_MODELS))
@pytest.mark.parametrize("pin", [False, True])
@pytest.mark.parametrize("n_batch", [1, 3, 8])
def test_cost_and_gradient_on_hand_built_controls_equal_the_reference(name, pin, n_batch):
    model = HAND_BUILT_MODELS[name]
    rng = np.random.default_rng(200 + n_batch + 10 * pin)
    ansatz = ControlAnsatz(n_controls=model.n_controls, n_segments=7)
    alphas = rng.uniform(-1, 1, (n_batch, ansatz.n_params))
    alphas[0, ::2] = -1.0
    spec = CostSpec(
        target=_random_unitaries(rng, n_batch, 4), lam=1e-2,
        alpha0=rng.uniform(-1, 1, (n_batch, ansatz.n_params)), pin_branch=pin,
    )
    _assert_kernel_equals_reference(spec, model, ansatz, alphas)


@pytest.mark.parametrize(
    "model, width",
    [(family.model, 1) for family in pc.FAMILIES.values()]
    + [(HAND_BUILT_MODELS["dense"], 4), (HAND_BUILT_MODELS["mixed"], 4)],
    ids=[*pc.FAMILIES, "dense", "mixed"],
)
def test_row_support_scatters_back_to_the_controls(model, width):
    cols, vals = model.row_support
    n_f, dim = model.n_controls, model.dim
    assert cols.shape == vals.shape == (n_f, dim, width)
    scattered = np.zeros((n_f, dim, dim), dtype=complex)
    for k, a, t in np.ndindex(cols.shape):
        if vals[k, a, t] != 0:
            assert scattered[k, a, cols[k, a, t]] == 0
            scattered[k, a, cols[k, a, t]] = vals[k, a, t]
        else:
            assert cols[k, a, t] == 0
    controls = np.asarray(model.controls, dtype=complex)
    # Equal as values (a control's -0 entries come back as +0), and the
    # nonzero entries bit for bit.
    assert np.array_equal(scattered, controls)
    assert scattered[controls != 0].tobytes() == controls[controls != 0].tobytes()
    for k, a in np.ndindex(n_f, dim):
        nonzero = cols[k, a][vals[k, a] != 0]
        assert np.all(np.diff(nonzero) > 0)
        # Padding only follows the row's nonzero entries.
        assert np.all(vals[k, a, len(nonzero):] == 0)


def test_cost_and_gradient_reject_targets_that_do_not_match_the_batch():
    targets = pc.SINGLE_QUBIT.target(np.full((3, 3), 0.2))
    spec = CostSpec(target=targets, lam=1e-2, alpha0=np.zeros(40))
    with pytest.raises(ValueError, match="target has shape"):
        cost_and_gradient(spec, MODEL_1Q, ANSATZ_1Q, np.zeros((4, 40)))
    with pytest.raises(ValueError, match="target has shape"):
        cost_and_gradient(spec, MODEL_1Q, ANSATZ_1Q, np.zeros(40))
    with pytest.raises(ValueError, match="target has shape"):
        cost_and_gradient(replace(spec, target=targets[0]), MODEL_1Q, ANSATZ_1Q, np.zeros((3, 40)))
    with pytest.raises(ValueError, match="shape"):
        cost_and_gradient(spec, MODEL_1Q, ANSATZ_1Q, np.zeros((3, 39)))


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

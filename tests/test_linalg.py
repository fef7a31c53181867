import numpy as np
import pytest
import scipy.linalg

from pulsecal.linalg import expm_hermitian, gate_infidelities, gate_infidelity

from cost_reference import _infidelity_term
from gate_checks import is_unitary


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("dim", [2, 4])
def test_expm_hermitian_matches_scipy(dim):
    rng = np.random.default_rng(11)
    for _ in range(20):
        h = random_hermitian(rng, dim)
        expected = scipy.linalg.expm(-1j * h)
        assert np.allclose(expm_hermitian(h), expected, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 4])
def test_expm_hermitian_is_unitary(dim):
    rng = np.random.default_rng(5)
    for _ in range(20):
        u = expm_hermitian(10 * random_hermitian(rng, dim))
        assert is_unitary(u, tol=1e-10)


def test_expm_of_zero_is_identity():
    assert np.array_equal(expm_hermitian(np.zeros((4, 4))), np.eye(4))


def test_infidelity_of_matching_gates_is_zero():
    rng = np.random.default_rng(2)
    u = random_unitary(rng, 4)
    assert gate_infidelity(u, u) < 1e-14


def test_infidelity_ignores_global_phase():
    rng = np.random.default_rng(3)
    u = random_unitary(rng, 4)
    assert gate_infidelity(u, np.exp(1j * 0.7) * u) < 1e-14


def test_infidelity_is_symmetric_and_bounded():
    rng = np.random.default_rng(4)
    for _ in range(25):
        u, v = random_unitary(rng, 4), random_unitary(rng, 4)
        iuv = gate_infidelity(u, v)
        ivu = gate_infidelity(v, u)
        assert abs(iuv - ivu) < 1e-14
        assert 0.0 <= iuv <= 1.0


def test_orthogonal_gates_have_unit_infidelity():
    # Pauli X vs identity: traceless overlap.
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert gate_infidelity(x, np.eye(2)) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("dim", [2, 4])
def test_gate_infidelities_equal_the_clip_on_numpy_scalars_bit_for_bit(dim):
    # u = diag(tr, 0, ...) against v = I has the overlap tr exactly.
    # Sizes across [0, dim] and within a few ulp of dim, where the clip acts.
    rng = np.random.default_rng(17)
    size = np.concatenate([dim * rng.random(16000),
                           dim + rng.integers(-4, 5, 4000) * np.spacing(float(dim))])
    overlaps = size * np.exp(2j * np.pi * rng.random(size.size))
    edges = [0, dim, -dim, 1j * dim, complex(np.nan, 0.0), complex(0.0, np.nan)]
    overlaps = np.concatenate([overlaps, edges])
    u = np.zeros((len(overlaps), dim, dim), dtype=complex)
    u[:, 0, 0] = overlaps
    v = np.broadcast_to(np.eye(dim, dtype=complex), u.shape)
    assert np.array_equal(np.trace(v @ u, axis1=1, axis2=2), overlaps, equal_nan=True)
    got = gate_infidelities(u, v)
    want = [_infidelity_term(tr, dim, False) for tr in overlaps]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert got[-6:-2] == [1.0, 0.0, 0.0, 0.0]
    assert all(type(x) is float for x in got)


def test_is_unitary_rejects_non_unitary():
    assert not is_unitary(np.diag([1.0, 2.0]).astype(complex))

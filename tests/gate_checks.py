"""Checks on unitaries, and the three-term target formulas, that only the tests use."""

import numpy as np

from pulsecal.linalg import SX, SY, SZ, expm_hermitian


def is_unitary(u: np.ndarray, tol: float = 1e-10) -> bool:
    n = u.shape[0]
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(n))) < tol)


def su_branch(u: np.ndarray, v: np.ndarray) -> int:
    """Branch k of u relative to v, for u and v in SU(dim), dim = u.shape[-1].

    The dim unitaries c * v with c^dim = 1 all lie in SU(dim) and all
    have gate infidelity 0 against v. Returns the k in 0..dim-1 for which
    exp(2*pi*i*k/dim) is the root nearest to Tr(v^dag u) / dim; k = 0
    means u implements v itself.
    """
    dim = u.shape[-1]
    tr = np.trace(v.conj().T @ u)
    return int(np.round(np.angle(tr) * dim / (2 * np.pi))) % dim


def _terms(t):
    """tx, ty, tz of one point (3,) or a batch (B, 3), shaped to scale matrices."""
    t = np.asarray(t, dtype=float)
    return (t[..., k, None, None] for k in range(3))


def cartan_target(t) -> np.ndarray:
    """exp(-i*(pi/2)*(tx XX + ty YY + tz ZZ)), summed term by term."""
    xx, yy, zz = (np.kron(p, p) for p in (SX, SY, SZ))
    tx, ty, tz = _terms(t)
    return expm_hermitian((np.pi / 2) * (tx * xx + ty * yy + tz * zz))


def pauli_target(t) -> np.ndarray:
    """exp(-i*(pi/2)*(tx sx + ty sy + tz sz)), summed term by term."""
    tx, ty, tz = _terms(t)
    return expm_hermitian((np.pi / 2) * (tx * SX + ty * SY + tz * SZ))

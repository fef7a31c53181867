"""Small dense complex linear algebra helpers.

Everything here operates on explicit numpy arrays; Hilbert-space
dimensions in this package are 2 or 4, so no sparsity or blocking is
worth the complexity.
"""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def expm_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(-i*h) for Hermitian h, via eigendecomposition.

    For the 2x2/4x4 Hermitian matrices used throughout, eigh is both
    faster and more accurate than a general matrix exponential. A stack
    (..., n, n) gives each matrix's exponential, bit for bit as alone.
    """
    w, q = np.linalg.eigh(h)
    return (q * np.exp(-1j * w)[..., None, :]) @ q.conj().swapaxes(-1, -2)


def is_unitary(u: np.ndarray, tol: float = 1e-10) -> bool:
    n = u.shape[0]
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(n))) < tol)


def gate_infidelity(u: np.ndarray, v: np.ndarray, dim: int) -> float:
    """1 - |Tr(v^dag u)|^2 / dim^2, insensitive to global phase.

    Zero iff u and v agree up to a phase; at most 1 for unitaries.
    Clipped into [0, 1] to absorb rounding at the endpoints.
    """
    return overlap_infidelity(np.trace(v.conj().T @ u), dim)


def overlap_infidelity(tr: complex, dim: int) -> float:
    """Gate infidelity from the overlap tr = Tr(v^dag u) (see gate_infidelity).

    Takes one overlap, a scalar, never an array: ``x**2`` calls pow()
    on a NumPy scalar but multiplies on an array, and the two differ in
    the last bit for about 1 in 1,200 random values, so batched callers
    pass their overlaps one at a time.
    """
    return float(np.clip(1.0 - (tr.real**2 + tr.imag**2) / dim**2, 0.0, 1.0))


def su_branch(u: np.ndarray, v: np.ndarray, dim: int) -> int:
    """Branch k of u relative to v, for u and v in SU(dim).

    The dim unitaries c * v with c^dim = 1 all lie in SU(dim) and all
    have gate infidelity 0 against v. Returns the k in 0..dim-1 for which
    exp(2*pi*i*k/dim) is the root nearest to Tr(v^dag u) / dim; k = 0
    means u implements v itself.
    """
    tr = np.trace(v.conj().T @ u)
    return int(np.round(np.angle(tr) * dim / (2 * np.pi))) % dim

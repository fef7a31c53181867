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


def gate_infidelity(u: np.ndarray, v: np.ndarray) -> float:
    """1 - |Tr(v^dag u)|^2 / dim^2, insensitive to global phase.

    dim is the matrices' own, ``u.shape[-1]``. Zero iff u and v agree up
    to a phase; at most 1 for unitaries. Clipped into [0, 1] to absorb
    rounding at the endpoints. The batch of one of gate_infidelities.
    """
    return gate_infidelities(u[None], v[None])[0]


def gate_infidelities(u: np.ndarray, v: np.ndarray) -> list:
    """gate_infidelity of each pair of the stacks u and v, (B, dim, dim) each."""
    overlaps = np.trace(v.conj().swapaxes(-1, -2) @ u, axis1=-2, axis2=-1)
    return [overlap_infidelity(tr, u.shape[-1]) for tr in overlaps.tolist()]


def overlap_infidelity(tr: complex, dim: int) -> float:
    """Gate infidelity from the overlap tr = Tr(v^dag u) (see gate_infidelity).

    Takes one overlap, a scalar, never an array, and computes on Python
    floats: ``x**2`` calls C pow() on a float (as on a NumPy scalar) but
    multiplies on an array, and the two differ in the last bit for about
    1 in 1,200 random values, so batched callers pass their overlaps one
    at a time. Python's min and max clip as ``np.clip`` does, NaN included.
    """
    tr = complex(tr)
    return min(max(1.0 - (tr.real**2 + tr.imag**2) / dim**2, 0.0), 1.0)

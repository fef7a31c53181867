"""Checks on unitaries that only the tests use."""

import numpy as np


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

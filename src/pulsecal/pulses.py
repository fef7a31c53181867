"""Piecewise-constant control ansatz: time evolution, cost, gradient.

A pulse is a flat real vector ``alpha`` of length n_controls * n_segments
in control-major layout: entry ``k * n_segments + s`` is the amplitude of
control k during segment s. Layout is shared by every module and by the
on-disk format, so it must never change silently.

The simulated propagator is

    U_T = U_{n_p} ... U_2 U_1,   U_s = exp(-i H_s dt),
    H_s = sum_k alpha[k, s] * B_k,

with no drift term. The optimization cost is an infidelity term plus a
Tikhonov term pulling alpha toward an anchor vector alpha0:

    J(alpha) = E(alpha) + lam_tilde * ||alpha - alpha0||^2.

By default E is the phase-insensitive gate infidelity

    E = 1 - |Tr(V^dag U_T)|^2 / dim^2,

which is zero on every sheet c * V with |c| = 1. Every control
Hamiltonian and family generator is traceless, so U_T and V lie in
SU(dim) and those sheets are the dim separate branches c^dim = 1. The
branch-pinned form

    E = 2 * (1 - Re Tr(V^dag U_T) / dim)

is zero only at U_T = V itself, and equals the gate infidelity to first
order near it, so lam_tilde keeps its meaning in both forms.

The gradient of the infidelity term is exact: each segment exponential is
differentiated through its eigendecomposition (the standard divided-
difference formula for the derivative of a matrix exponential), and the
chain rule over segments reuses the forward/backward partial products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import overlap_infidelity


@dataclass(frozen=True)
class ControlAnsatz:
    """Shape of the control parameterization."""

    n_controls: int
    n_segments: int = 20
    duration: float = np.pi
    alpha_max: float = 1.0

    def __post_init__(self):
        if self.n_controls < 1 or self.n_segments < 1:
            raise ValueError("n_controls and n_segments must be positive")
        if self.duration <= 0 or self.alpha_max <= 0:
            raise ValueError("duration and alpha_max must be positive")

    @property
    def dt(self) -> float:
        return self.duration / self.n_segments

    @property
    def n_params(self) -> int:
        return self.n_controls * self.n_segments


@dataclass(frozen=True)
class HamiltonianModel:
    """Control Hamiltonians B_k (stacked (n_f, dim, dim)).

    ``drift`` is an always-on Hamiltonian term; the built-in families
    have none, so it defaults to None (zero).
    """

    controls: np.ndarray
    dim: int
    drift: np.ndarray = None

    @property
    def n_controls(self) -> int:
        return self.controls.shape[0]


def tikhonov_weight(lam: float, ansatz: ControlAnsatz) -> float:
    """Normalized regularization weight lam / (n_f * n_p * alpha_max^2)."""
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    return lam / (ansatz.n_controls * ansatz.n_segments * ansatz.alpha_max**2)


@dataclass(frozen=True)
class CostSpec:
    """Target unitary plus regularization for one optimization problem.

    ``pin_branch`` selects the infidelity term (see the module header):
    False gives the phase-insensitive gate infidelity, which accepts any
    of the dim sheets c * V; True gives the branch-pinned form, which
    accepts V itself only.
    """

    target: np.ndarray
    lam: float
    alpha0: np.ndarray
    pin_branch: bool = False


def _infidelity_term(overlap: complex, dim: int, pin_branch: bool) -> float:
    """Infidelity term E of the cost from the overlap Tr(V^dag U_T).

    The phase-insensitive form is gate_infidelity(U_T, V, dim).
    """
    if pin_branch:
        return float(2.0 * (1.0 - overlap.real / dim))
    return overlap_infidelity(overlap, dim)


def _check_alpha(ansatz: ControlAnsatz, alpha: np.ndarray) -> np.ndarray:
    """One pulse (n_params,) or a batch (B, n_params), within the amplitude bound."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim not in (1, 2) or alpha.shape[-1] != ansatz.n_params:
        raise ValueError(
            f"alpha has shape {alpha.shape}, expected ({ansatz.n_params},) "
            f"or (B, {ansatz.n_params})"
        )
    if np.max(np.abs(alpha)) > ansatz.alpha_max * (1 + 1e-12):
        raise ValueError("alpha amplitude out of bounds")
    return alpha


def _segment_unitaries(model, ansatz, alpha2d):
    """Eigendecompose every segment Hamiltonian at once.

    alpha2d is (..., n_f, n_p). Returns (w, q, useg): eigenvalues
    (..., n_p, dim), eigenvectors (..., n_p, dim, dim) and the segment
    propagators exp(-i H_s dt). Each pulse of a batch gets the bits it
    gets alone: the stacked eigh and matmul work matrix by matrix.
    """
    h = np.einsum("...ks,kij->...sij", alpha2d, model.controls)
    if model.drift is not None:
        h = h + model.drift
    w, q = np.linalg.eigh(h)
    phase = np.exp(-1j * ansatz.dt * w)
    useg = (q * phase[..., None, :]) @ q.conj().swapaxes(-1, -2)
    return w, q, useg


def evolve(model: HamiltonianModel, ansatz: ControlAnsatz, alpha: np.ndarray) -> np.ndarray:
    """Total propagator of the pulse, segment 1 acting first.

    A batch of pulses (B, n_params) gives the stack (B, dim, dim) of
    their propagators, each bit for bit as evolving that pulse alone.
    """
    alpha = _check_alpha(ansatz, alpha)
    alpha2d = alpha.reshape(*alpha.shape[:-1], ansatz.n_controls, ansatz.n_segments)
    _, _, useg = _segment_unitaries(model, ansatz, alpha2d)
    u = np.eye(model.dim, dtype=complex)
    for s in range(ansatz.n_segments):
        u = useg[..., s, :, :] @ u
    return u


def cost_and_gradient(
    spec: CostSpec, model: HamiltonianModel, ansatz: ControlAnsatz, alpha: np.ndarray
) -> tuple[float, np.ndarray]:
    """Cost J(alpha) and its exact gradient, sharing one propagation."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (ansatz.n_params,):
        raise ValueError(
            f"alpha has shape {alpha.shape}, expected ({ansatz.n_params},)"
        )
    nf, ns, dim, dt = ansatz.n_controls, ansatz.n_segments, model.dim, ansatz.dt
    alpha2d = alpha.reshape(nf, ns)
    w, q, useg = _segment_unitaries(model, ansatz, alpha2d)

    # Forward products F[s] = U_s...U_1 (F[0] = I) and backward products
    # B[s] = U_{n_p}...U_{s+1} (B[n_p] = I).
    fwd = np.empty((ns + 1, dim, dim), dtype=complex)
    bwd = np.empty((ns + 1, dim, dim), dtype=complex)
    fwd[0] = np.eye(dim)
    for s in range(ns):
        fwd[s + 1] = useg[s] @ fwd[s]
    bwd[ns] = np.eye(dim)
    for s in range(ns - 1, -1, -1):
        bwd[s] = bwd[s + 1] @ useg[s]

    vh = spec.target.conj().T
    g_overlap = np.trace(vh @ fwd[ns])
    # Same overlap and formula as cost(), so the two agree bit for bit.
    infid = _infidelity_term(g_overlap, dim, spec.pin_branch)

    lam_tilde = tikhonov_weight(spec.lam, ansatz)
    dev = alpha - np.asarray(spec.alpha0, dtype=float)
    j = infid + lam_tilde * float(dev @ dev)

    # Derivative of each segment exponential in its eigenbasis: the
    # divided difference of exp(-i*dt*x) between eigenvalue pairs,
    # written with sinc so coincident eigenvalues need no special case.
    mu = 0.5 * (w[:, :, None] + w[:, None, :])
    delta = w[:, :, None] - w[:, None, :]
    phi = (-1j * dt) * np.exp(-1j * dt * mu) * np.sinc(dt * delta / (2 * np.pi))

    k_mid = np.einsum("sij,jk,skl->sil", fwd[:ns], vh, bwd[1:])
    r = np.einsum("sai,sab,sbj->sij", q.conj(), k_mid, q)
    w_ctrl = np.einsum("sai,kab,sbj->ksij", q.conj(), model.controls, q)
    # t_all[k, s] is the derivative of Tr(V^dag U_T) by alpha[k, s].
    t_all = np.einsum("sba,sab,ksab->ks", r, phi, w_ctrl)
    if spec.pin_branch:
        grad_infid = (-2.0 / dim) * np.real(t_all)
    else:
        grad_infid = (-2.0 / dim**2) * np.real(np.conj(g_overlap) * t_all)

    return j, grad_infid.reshape(-1) + 2.0 * lam_tilde * dev


def cost(spec: CostSpec, model: HamiltonianModel, ansatz: ControlAnsatz, alpha) -> float:
    alpha = _check_alpha(ansatz, alpha)
    u = evolve(model, ansatz, alpha)
    overlap = np.trace(spec.target.conj().T @ u)
    lam_tilde = tikhonov_weight(spec.lam, ansatz)
    dev = alpha - np.asarray(spec.alpha0, dtype=float)
    return _infidelity_term(overlap, model.dim, spec.pin_branch) + lam_tilde * float(dev @ dev)


def cost_gradient(spec: CostSpec, model: HamiltonianModel, ansatz: ControlAnsatz, alpha) -> np.ndarray:
    return cost_and_gradient(spec, model, ansatz, alpha)[1]

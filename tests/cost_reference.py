"""Reference paths for the pulse kernel's propagator, cost and gradient.

``evolve_reference`` is ``evolve`` as first written: its own product
loop, u = U_s @ u segment by segment, where ``evolve`` now returns the
last product of the kernel's forward pass.

``cost`` recomputes the cost from the propagator ``evolve`` returns, with
the formulas of the ``pulses`` module header: a path independent of the
kernel, so tests can check the kernel's cost bit for bit and its gradient
by finite differences.

``cost_and_gradient_reference`` is the kernel as first written: the same
products, with its contractions as 3-operand einsums over (p, s, i, j)
stacks (problem, segment, matrix row, matrix column) and ``w_ctrl`` over
every entry of the controls. Its summation orders are the ones the
kernel pins, so the kernel must equal it bit for bit.

The shape check, the segment eigendecomposition and the two infidelity
terms are this module's own copies, so the tests reach the kernel through
its public names only.
"""

import numpy as np

from pulsecal.pulses import evolve, tikhonov_weight


def _as_pulses(ansatz, alpha):
    """One pulse (n_params,) or a batch (B, n_params), as floats."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim not in (1, 2) or alpha.shape[-1] != ansatz.n_params:
        raise ValueError(
            f"alpha has shape {alpha.shape}, expected ({ansatz.n_params},) "
            f"or (B, {ansatz.n_params})"
        )
    return alpha


def _segment_unitaries(model, ansatz, alpha2d):
    """Eigenvalues, eigenvectors and propagators of the segments of alpha2d (..., n_f, n_p)."""
    h = np.einsum("...ks,kij->...sij", alpha2d, model.controls)
    w, q = np.linalg.eigh(h)
    phase = np.exp(-1j * ansatz.dt * w)
    useg = (q * phase[..., None, :]) @ q.conj().swapaxes(-1, -2)
    return w, q, useg


def _infidelity_term(overlap, dim, pin_branch):
    """Infidelity term E from the overlap Tr(V^dag U_T), as a float."""
    if pin_branch:
        return float(2.0 * (1.0 - overlap.real / dim))
    return float(np.clip(1.0 - (overlap.real**2 + overlap.imag**2) / dim**2, 0.0, 1.0))


def evolve_reference(model, ansatz, alpha):
    """U_T of one pulse, or the stack of a batch's, one segment at a time."""
    alpha = _as_pulses(ansatz, alpha)
    alpha2d = alpha.reshape(*alpha.shape[:-1], ansatz.n_controls, ansatz.n_segments)
    _, _, useg = _segment_unitaries(model, ansatz, alpha2d)
    u = np.eye(model.dim, dtype=complex)
    for s in range(ansatz.n_segments):
        u = useg[..., s, :, :] @ u
    return u


def cost(spec, model, ansatz, alpha) -> float:
    """J(alpha) of one pulse: infidelity term plus Tikhonov term."""
    alpha = np.asarray(alpha, dtype=float)
    overlap = np.trace(spec.target.conj().T @ evolve(model, ansatz, alpha))
    dev = alpha - np.asarray(spec.alpha0, dtype=float)
    return (_infidelity_term(overlap, model.dim, spec.pin_branch)
            + tikhonov_weight(spec.lam, ansatz) * float(dev @ dev))


def cost_and_gradient_reference(spec, model, ansatz, alpha):
    """cost_and_gradient with (p, s, i, j) einsums over dense controls."""
    alpha = _as_pulses(ansatz, alpha)
    nf, ns, dim, dt = ansatz.n_controls, ansatz.n_segments, model.dim, ansatz.dt
    target = np.asarray(spec.target)
    if target.shape != alpha.shape[:-1] + (dim, dim):
        raise ValueError(
            f"target has shape {target.shape}, expected {alpha.shape[:-1] + (dim, dim)}"
        )
    single = alpha.ndim == 1
    alpha = alpha.reshape(-1, ansatz.n_params)
    n_b = len(alpha)
    w, q, useg = _segment_unitaries(model, ansatz, alpha.reshape(n_b, nf, ns))

    # Forward products F[s] = U_s...U_1 (F[0] = I) and backward products
    # B[s] = U_{n_p}...U_{s+1} (B[n_p] = I), written in place.
    fwd = np.empty((n_b, ns + 1, dim, dim), dtype=complex)
    bwd = np.empty((n_b, ns + 1, dim, dim), dtype=complex)
    fwd[:, 0] = np.eye(dim)
    bwd[:, ns] = np.eye(dim)
    u_s = [useg[:, s] for s in range(ns)]
    f_s = [fwd[:, s] for s in range(ns + 1)]
    b_s = [bwd[:, s] for s in range(ns + 1)]
    for s in range(ns):
        np.matmul(u_s[s], f_s[s], out=f_s[s + 1])
    for s in range(ns - 1, -1, -1):
        np.matmul(b_s[s + 1], u_s[s], out=b_s[s])

    vh = target.reshape(n_b, dim, dim).conj().swapaxes(-1, -2)
    overlaps = np.trace(vh @ f_s[ns], axis1=-2, axis2=-1)
    lam_tilde = tikhonov_weight(spec.lam, ansatz)
    dev = alpha - np.asarray(spec.alpha0, dtype=float)
    j = [
        _infidelity_term(tr, dim, spec.pin_branch) + lam_tilde * float(d @ d)
        for tr, d in zip(overlaps, dev)
    ]

    # Derivative of each segment exponential in its eigenbasis: the
    # divided difference of exp(-i*dt*x) between eigenvalue pairs,
    # written with sinc so coincident eigenvalues need no special case.
    mu = 0.5 * (w[..., :, None] + w[..., None, :])
    delta = w[..., :, None] - w[..., None, :]
    phi = (-1j * dt) * np.exp(-1j * dt * mu) * np.sinc(dt * delta / (2 * np.pi))

    k_mid = np.einsum("psij,pjk,pskl->psil", fwd[:, :ns], vh, bwd[:, 1:])
    r = np.einsum("psai,psab,psbj->psij", q.conj(), k_mid, q)
    w_ctrl = np.einsum("psai,kab,psbj->pksij", q.conj(), model.controls, q)
    # t_all[p, k, s] is the derivative of Tr(V^dag U_T) by alpha[p, k, s].
    t_all = np.einsum("psba,psab,pksab->pks", r, phi, w_ctrl)
    if spec.pin_branch:
        grad_infid = (-2.0 / dim) * np.real(t_all)
    else:
        grad_infid = (-2.0 / dim**2) * np.real(np.conj(overlaps)[:, None, None] * t_all)

    grad = grad_infid.reshape(n_b, -1) + 2.0 * lam_tilde * dev
    if single:
        return j[0], grad[0]
    return np.array(j), grad


"""Piecewise-constant control ansatz: time evolution, cost, gradient.

A pulse is a flat real vector ``alpha`` of length n_controls * n_segments
in control-major layout: entry ``k * n_segments + s`` is the amplitude of
control k during segment s. Layout is shared by every module and by the
on-disk format, so it must never change silently.

The simulated propagator is

    U_T = U_{n_p} ... U_2 U_1,   U_s = exp(-i H_s dt),
    H_s = sum_k alpha[k, s] * B_k,

so the controls alone drive the system. The optimization cost is an
infidelity term plus a Tikhonov term pulling alpha toward an anchor
vector alpha0:

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

``evolve`` and ``cost_and_gradient`` take one pulse or a batch of any
size, run as kernel calls on row slices of at most ``KERNEL_BATCH``
rows; every row gets the bits that pulse gets alone. ``evolve`` is the
forward pass (``_forward``) alone, and checks pulses with ``check_pulses``.

The gradient's four contractions (K_mid = F V^dag B, R = Q^dag K_mid Q,
W_k = Q^dag B_k Q and their trace against phi) run on contiguous
(i, j, p, s) copies of the stacks: matrix row, matrix column, problem,
segment. Every einsum's innermost loop then runs over all p * s
segments of the batch, not over a matrix index of length dim. W_k runs
over each control row's nonzero entries only
(``HamiltonianModel.row_support``); the controls of every family have
one per row.

The bits are part of the contract. The chamber's calibration amplifies
last-bit changes in the gradient, so each operation happens in a pinned
order, and the order is written out, since einsum picks its summation
order from its operands' strides:

* K_mid sums over j from zero for each k, then adds the k-partials in
  ascending k;
* R, W_k and the trace each sum over (a, b) in one flat sum, a outer and
  b inner, each term formed as (x * y) * z by einsum's scalar complex
  product (numpy's elementwise complex multiply rounds differently);
* the zeros that pad a control row to the widest row's length add
  nothing: such a sum starts at +0 and, rounding to nearest, never
  becomes -0, so a +-0 term leaves it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .linalg import overlap_infidelity

# Most problems per kernel call; evolve and cost_and_gradient split a larger
# batch. A two-qubit problem's temporaries take about 25 kB, and past about 43
# problems the time per problem hardly falls.
KERNEL_BATCH = 64


@dataclass(frozen=True)
class ControlAnsatz:
    """Shape of the control parameterization."""

    n_controls: int
    n_segments: int = 20
    duration: float = np.pi
    alpha_max: float = 1.0

    def __post_init__(self):
        for name in ("n_controls", "n_segments"):
            object.__setattr__(self, name, check_count(getattr(self, name), 1, name))
        for name in ("duration", "alpha_max"):
            object.__setattr__(self, name, check_number(getattr(self, name), 0, name, above=True))

    @property
    def dt(self) -> float:
        return self.duration / self.n_segments

    @property
    def n_params(self) -> int:
        return self.n_controls * self.n_segments


@dataclass(frozen=True)
class HamiltonianModel:
    """Control Hamiltonians B_k (stacked (n_f, dim, dim))."""

    controls: np.ndarray

    @property
    def dim(self) -> int:
        return self.controls.shape[-1]

    @property
    def n_controls(self) -> int:
        return self.controls.shape[0]

    @cached_property
    def row_support(self) -> tuple:
        """Nonzero entries of each control row: columns and values.

        Two (n_f, dim, width) arrays: row a of control k holds the value
        ``vals[k, a, t]`` in column ``cols[k, a, t]``, columns ascending.
        Rows with fewer than ``width`` nonzeros (the widest row's count)
        are padded with value 0 in column 0, which adds exact zeros.
        """
        controls = np.asarray(self.controls, dtype=complex)
        nonzero = controls != 0
        width = max(int(nonzero.sum(axis=-1).max()), 1)
        # A stable sort puts each row's nonzero columns first, ascending.
        order = np.argsort(~nonzero, axis=-1, kind="stable")[..., :width]
        keep = np.take_along_axis(nonzero, order, axis=-1)
        cols = np.where(keep, order, 0)
        vals = np.where(keep, np.take_along_axis(controls, order, axis=-1), 0)
        return cols, vals


def check_count(value, least: int = 0, name: str = "") -> int:
    """An integer (numpy's too, not a bool) >= ``least``, as an int; errors name ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        problem = f"expected an integer, got {value!r}"
    elif value < least:
        kind = "a non-negative integer" if least == 0 else f"an integer >= {least}"
        problem = f"expected {kind}, got {value}"
    else:
        return int(value)
    raise ValueError(f"{name}: {problem}" if name else problem)


def check_number(value, least: float = -np.inf, name: str = "", *, above: bool = False) -> float:
    """A finite number >= ``least`` (> if ``above``), as a float; errors name ``name``.

    Python's and numpy's ints and floats pass; a bool, a string, None, a complex
    number and an int past 2**53 (not every one is a float) do not.
    """
    integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (isinstance(value, (float, np.floating)) or integral and abs(int(value)) <= 2**53):
        problem = f"expected a number, got {value!r}"
    elif not -np.inf < (number := float(value)) < np.inf:
        problem = f"expected a finite number, got {value!r}"
    elif number < least or above and number == least:
        problem = f"expected a number {'>' if above else '>='} {least}, got {value!r}"
    else:
        return number
    raise ValueError(f"{name}: {problem}" if name else problem)


def check_lambda(lam: float) -> float:
    """lam as a float, which must be >= 0: every kernel call checks it."""
    return check_number(lam, 0, "lambda")


def tikhonov_weight(lam: float, ansatz: ControlAnsatz) -> float:
    """Normalized regularization weight lam / (n_f * n_p * alpha_max^2)."""
    return check_lambda(lam) / (ansatz.n_controls * ansatz.n_segments * ansatz.alpha_max**2)


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


def _as_pulses(ansatz: ControlAnsatz, alpha: np.ndarray) -> np.ndarray:
    """One pulse (n_params,) or a batch (B, n_params), as floats."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim not in (1, 2) or alpha.shape[-1] != ansatz.n_params:
        raise ValueError(
            f"alpha has shape {alpha.shape}, expected ({ansatz.n_params},) "
            f"or (B, {ansatz.n_params})"
        )
    return alpha


def check_pulses(ansatz: ControlAnsatz, alpha) -> np.ndarray:
    """One pulse (n_params,) or a batch (B, n_params), within +-alpha_max (slack 1e-12)."""
    alpha = _as_pulses(ansatz, alpha)
    # NaN fails the comparison, so it is rejected with the out-of-bound values.
    if not np.all(np.abs(alpha) <= ansatz.alpha_max * (1 + 1e-12)):
        raise ValueError(f"alpha amplitude out of bounds (+-{ansatz.alpha_max}) or not finite")
    return alpha


def _segment_unitaries(model, ansatz, alpha2d):
    """Eigendecompose every segment Hamiltonian at once.

    alpha2d is (..., n_f, n_p). Returns (w, q, useg): eigenvalues
    (..., n_p, dim), eigenvectors (..., n_p, dim, dim) and the segment
    propagators exp(-i H_s dt). Each pulse of a batch gets the bits it
    gets alone: the stacked eigh and matmul work matrix by matrix.
    """
    h = np.einsum("...ks,kij->...sij", alpha2d, model.controls)
    w, q = np.linalg.eigh(h)
    phase = np.exp(-1j * ansatz.dt * w)
    useg = (q * phase[..., None, :]) @ q.conj().swapaxes(-1, -2)
    return w, q, useg


def _forward(useg: np.ndarray) -> np.ndarray:
    """Products F[s] = U_s...U_1 (F[0] = I) of segment propagators useg (B, n_p, dim, dim)."""
    n_b, ns, dim = useg.shape[:3]
    # Segment-major, (n_p + 1, B, dim, dim): every product is contiguous.
    fwd = np.empty((ns + 1, n_b, dim, dim), dtype=complex)
    fwd[0] = np.eye(dim)
    for s in range(ns):
        np.matmul(useg[:, s], fwd[s], out=fwd[s + 1])
    return fwd


def evolve(model: HamiltonianModel, ansatz: ControlAnsatz, alpha: np.ndarray) -> np.ndarray:
    """Total propagator of the pulse, segment 1 acting first.

    A batch of pulses (B, n_params) gives the stack (B, dim, dim) of
    their propagators, each bit for bit as evolving that pulse alone.
    """
    alpha = check_pulses(ansatz, alpha)
    if alpha.ndim == 2 and len(alpha) > KERNEL_BATCH:
        return np.concatenate([evolve(model, ansatz, alpha[start : start + KERNEL_BATCH])
                               for start in range(0, len(alpha), KERNEL_BATCH)])
    alpha2d = alpha.reshape(-1, ansatz.n_controls, ansatz.n_segments)
    u = _forward(_segment_unitaries(model, ansatz, alpha2d)[2])[-1]
    return u if alpha.ndim == 2 else u[0]


def _matrix_axes_first(a: np.ndarray) -> np.ndarray:
    """(p, s, i, j) stack as a contiguous (i, j, p, s) copy."""
    return np.ascontiguousarray(a.transpose(2, 3, 0, 1))


def cost_and_gradient(
    spec: CostSpec, model: HamiltonianModel, ansatz: ControlAnsatz, alpha: np.ndarray
) -> tuple:
    """Cost J(alpha) and its exact gradient, sharing one propagation.

    One pulse (n_params,) gives the cost as a float and the gradient
    (n_params,). A batch (B, n_params) of problems, with ``spec.target``
    (B, dim, dim) and ``spec.alpha0`` (B, n_params), gives the costs
    (B,) and the gradients (B, n_params). Each row is bit for bit what
    that problem gives alone: a single pulse is the batch of one, a batch
    splits into row slices, every product works matrix by matrix, and the
    phase-insensitive costs go through the scalar infidelity formula one
    row at a time.
    """
    alpha = _as_pulses(ansatz, alpha)
    nf, ns, dim, dt = ansatz.n_controls, ansatz.n_segments, model.dim, ansatz.dt
    target = np.asarray(spec.target)
    if target.shape != alpha.shape[:-1] + (dim, dim):
        raise ValueError(
            f"target has shape {target.shape}, expected {alpha.shape[:-1] + (dim, dim)}"
        )
    if alpha.ndim == 2 and len(alpha) > KERNEL_BATCH:
        alpha0 = np.broadcast_to(np.asarray(spec.alpha0, dtype=float), alpha.shape)
        rows = [slice(start, start + KERNEL_BATCH) for start in range(0, len(alpha), KERNEL_BATCH)]
        costs, grads = zip(*(
            cost_and_gradient(replace(spec, target=target[r], alpha0=alpha0[r]), model, ansatz,
                              alpha[r]) for r in rows))
        return np.concatenate(costs), np.concatenate(grads)
    single = alpha.ndim == 1
    alpha = alpha.reshape(-1, ansatz.n_params)
    n_b = len(alpha)
    w, q, useg = _segment_unitaries(model, ansatz, alpha.reshape(n_b, nf, ns))

    # Forward products F[s] = U_s...U_1 (F[0] = I) and backward products
    # B[s] = U_{n_p}...U_{s+1} (B[n_p] = I), written in place.
    fwd = _forward(useg)
    bwd = np.empty((n_b, ns + 1, dim, dim), dtype=complex)
    bwd[:, ns] = np.eye(dim)
    for s in range(ns - 1, -1, -1):
        np.matmul(bwd[:, s + 1], useg[:, s], out=bwd[:, s])

    vh = target.reshape(n_b, dim, dim).conj().swapaxes(-1, -2)
    overlaps = np.trace(vh @ fwd[ns], axis1=-2, axis2=-1)
    lam_tilde = tikhonov_weight(spec.lam, ansatz)
    dev = alpha - np.asarray(spec.alpha0, dtype=float)
    # np.vecdot on contiguous rows is the BLAS dot of a 1-D d @ d.
    if spec.pin_branch:
        infid = 2.0 * (1.0 - overlaps.real / dim)
    else:
        infid = np.array([overlap_infidelity(tr, dim) for tr in overlaps.tolist()])
    j = infid + lam_tilde * np.vecdot(dev, dev)

    # Derivative of each segment exponential in its eigenbasis: the
    # divided difference of exp(-i*dt*x) between eigenvalue pairs,
    # written with sinc so coincident eigenvalues need no special case.
    mu = 0.5 * (w[..., :, None] + w[..., None, :])
    delta = w[..., :, None] - w[..., None, :]
    phi = (-1j * dt) * np.exp(-1j * dt * mu) * np.sinc(dt * delta / (2 * np.pi))

    # (i, j, p, s) copies, so each contraction's inner loop runs over p*s.
    q_t = _matrix_axes_first(q)
    qc_t = q_t.conj()
    vh_t = np.ascontiguousarray(vh.transpose(1, 2, 0))  # (j, k, p)

    # The summation orders are pinned (see the module header): K_mid sums
    # over j for each k, then adds the k-partials in ascending k.
    parts = np.einsum(
        "ijps,jkp,klps->kilps",
        _matrix_axes_first(fwd[:ns].swapaxes(0, 1)), vh_t, _matrix_axes_first(bwd[:, 1:]),
    )
    k_mid = parts[0]
    for part in parts[1:]:
        k_mid += part
    r = np.einsum("aips,abps,bjps->ijps", qc_t, k_mid, q_t)
    cols, vals = model.row_support
    w_ctrl = np.einsum("aips,kat,katjps->kijps", qc_t, vals, q_t[cols])
    # t_all[p, k, s] is the derivative of Tr(V^dag U_T) by alpha[p, k, s].
    t_all = np.einsum("baps,abps,kabps->kps", r, _matrix_axes_first(phi), w_ctrl)
    t_all = np.ascontiguousarray(t_all.transpose(1, 0, 2))  # (p, k, s)
    if spec.pin_branch:
        grad_infid = (-2.0 / dim) * np.real(t_all)
    else:
        grad_infid = (-2.0 / dim**2) * np.real(np.conj(overlaps)[:, None, None] * t_all)

    grad = grad_infid.reshape(alpha.shape) + 2.0 * lam_tilde * dev
    if single:
        return float(j[0]), grad[0]
    return j, grad


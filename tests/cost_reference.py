"""The pulse cost from one ``evolve``: a path independent of the kernel.

``cost_and_gradient`` computes the cost from its own forward products;
this reference recomputes it from the propagator ``evolve`` returns, with
the formulas of the ``pulses`` module header, so tests can check the
kernel's cost bit for bit and its gradient by finite differences.
"""

import numpy as np

from pulsecal.linalg import overlap_infidelity
from pulsecal.pulses import evolve, tikhonov_weight


def cost(spec, model, ansatz, alpha) -> float:
    """J(alpha) of one pulse: infidelity term plus Tikhonov term."""
    alpha = np.asarray(alpha, dtype=float)
    overlap = np.trace(spec.target.conj().T @ evolve(model, ansatz, alpha))
    if spec.pin_branch:
        infidelity = float(2.0 * (1.0 - overlap.real / model.dim))
    else:
        infidelity = overlap_infidelity(overlap, model.dim)
    dev = alpha - np.asarray(spec.alpha0, dtype=float)
    return infidelity + tikhonov_weight(spec.lam, ansatz) * float(dev @ dev)

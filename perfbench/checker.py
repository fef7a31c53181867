"""Independent checker for the benchmark's outputs.

Nothing here comes from pulsecal. The checker has its own Pauli and
control matrices, its own targets

    two-qubit:    exp(-i*pi/2*(tx XX + ty YY + tz ZZ))
    single-qubit: exp(-i*pi/2*(tx X + ty Y + tz Z)),

its own propagator (the product of scipy.linalg.expm over the pulse
segments), its own barycentric solve and its own reader of the landscape
file. Every check returns a list of fault messages; an empty list means
the outputs passed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Controls: an XX coupling plus y and z fields on each qubit for the
# two-qubit families; y and z fields for the single-qubit family.
CONTROLS = {
    4: np.stack([np.kron(X, X), np.kron(Y, I2), np.kron(Z, I2),
                 np.kron(I2, Y), np.kron(I2, Z)]),
    2: np.stack([Y, Z]),
}
GENERATORS = {
    4: np.stack([np.kron(X, X), np.kron(Y, Y), np.kron(Z, Z)]),
    2: np.stack([X, Y, Z]),
}
DIMS = {"weyl-chamber": 4, "cartan-box": 4, "single-qubit": 2}

INFIDELITY_TOL = 1e-9
# A convex combination of pulses at the bound may land an ulp beyond it.
BOUND_SLACK = 1 + 1e-12
COMBINATION_TOL = 1e-10
LOCATE_TOL = 1e-9


@dataclass(frozen=True)
class LandscapeFile:
    """A landscape as read from its JSON file by the checker alone."""

    family: str
    dim: int
    n_segments: int
    duration: float
    alpha_max: float
    points: np.ndarray  # (n, 3)
    alphas: np.ndarray  # (n, n_controls * n_segments), control-major
    infidelities: np.ndarray  # (n,), as stored
    simplices: np.ndarray  # (m, 4)
    round_iterations: list
    cumulative_iterations: int


def read_landscape(path) -> LandscapeFile:
    with open(path) as f:
        data = json.load(f)
    refs = data["references"]
    log = data["log"]
    return LandscapeFile(
        family=data["family"],
        dim=DIMS[data["family"]],
        n_segments=int(data["ansatz"]["n_segments"]),
        duration=float(data["ansatz"]["duration"]),
        alpha_max=float(data["ansatz"]["alpha_max"]),
        points=np.array([r["point"] for r in refs], dtype=float),
        alphas=np.array([[float.fromhex(h) for h in r["alpha_hex"]] for r in refs]),
        infidelities=np.array([r["infidelity"] for r in refs], dtype=float),
        simplices=np.array(data["simplices"], dtype=int),
        round_iterations=[int(rec["iterations"]) for rec in log],
        cumulative_iterations=int(log[-1]["cumulative_iterations"]) if log else 0,
    )


def lattice(family: str, granularity: Fraction) -> list:
    """Domain lattice points at spacing ``granularity``, in lexicographic order."""
    n = int(1 / granularity)
    pts = []
    for a in range(n + 1):
        for b in range(n + 1):
            for c in range(n + 1):
                if family != "weyl-chamber" or (b <= min(a, n - a) and c <= b):
                    pts.append((a / n, b / n, c / n))
    return pts


def targets(dim: int, points) -> np.ndarray:
    """Family targets at each point, (P, d, d)."""
    h = (np.pi / 2) * np.einsum("pk,kij->pij", np.asarray(points, dtype=float), GENERATORS[dim])
    return expm(-1j * h)


def propagators(dim: int, alphas, n_segments: int, duration: float) -> np.ndarray:
    """Total propagator of each pulse, segment 1 acting first, (P, d, d)."""
    a = np.asarray(alphas, dtype=float)
    a = a.reshape(a.shape[0], len(CONTROLS[dim]), n_segments)
    h = np.einsum("pks,kij->psij", a, CONTROLS[dim])
    seg = expm(-1j * (duration / n_segments) * h)
    u = np.broadcast_to(np.eye(dim, dtype=complex), (a.shape[0], dim, dim)).copy()
    for s in range(n_segments):
        u = seg[:, s] @ u
    return u


def _overlaps(u, v) -> np.ndarray:
    return np.einsum("pij,pij->p", v.conj(), u)  # Tr(V^dag U)


def infidelities(u, v) -> np.ndarray:
    d = u.shape[-1]
    return 1.0 - np.abs(_overlaps(u, v)) ** 2 / d**2


def branches(u, v) -> np.ndarray:
    """k such that exp(2*pi*i*k/d) is the d-th root of unity nearest Tr(V^dag U)/d."""
    d = u.shape[-1]
    return np.round(np.angle(_overlaps(u, v)) * d / (2 * np.pi)).astype(int) % d


def barycentric(land: LandscapeFile, points) -> np.ndarray:
    """Barycentric coordinates of every point in every simplex, (P, m, 4).

    Solves [v0 v1 v2 v3; 1 1 1 1] b = [p; 1] for each simplex.
    """
    verts = land.points[land.simplices]  # (m, 4, 3)
    m = len(land.simplices)
    system = np.concatenate([verts.transpose(0, 2, 1), np.ones((m, 1, 4))], axis=1)
    rhs = np.concatenate([np.asarray(points, dtype=float),
                          np.ones((len(points), 1))], axis=1)
    return np.einsum("mij,pj->pmi", np.linalg.inv(system), rhs)


def containing(land: LandscapeFile, points, block: int = 256):
    """(simplex, coords) per point, simplex -1 where no simplex holds it.

    The first containing simplex in file order is taken; on a shared face
    every containing simplex gives the same convex combination.
    """
    points = np.asarray(points, dtype=float)
    simplex = np.empty(len(points), dtype=int)
    coords = np.empty((len(points), 4))
    for start in range(0, len(points), block):
        b = barycentric(land, points[start:start + block])
        inside = b.min(axis=2) >= -LOCATE_TOL
        s = np.where(inside.any(axis=1), inside.argmax(axis=1), -1)
        simplex[start:start + block] = s
        coords[start:start + block] = b[np.arange(len(b)), np.maximum(s, 0)]
    return simplex, coords


def combinations(land: LandscapeFile, simplex, coords) -> np.ndarray:
    """Convex combination of the vertex pulses, (P, n_params)."""
    return np.einsum("pi,pij->pj", coords, land.alphas[land.simplices[simplex]])


def reference_faults(land: LandscapeFile, on_branch: bool) -> list:
    """Bounds and stored infidelity of every reference; optionally its branch."""
    faults = []
    over = np.abs(land.alphas).max(axis=1) > land.alpha_max
    if over.any():
        faults.append(f"{int(over.sum())} reference pulses exceed alpha_max")
    u = propagators(land.dim, land.alphas, land.n_segments, land.duration)
    v = targets(land.dim, land.points)
    off = np.abs(infidelities(u, v) - land.infidelities) > INFIDELITY_TOL
    if off.any():
        faults.append(f"{int(off.sum())} stored reference infidelities do not recompute")
    if on_branch:
        wrong = branches(u, v) != 0
        if wrong.any():
            faults.append(f"{int(wrong.sum())} references do not implement V(t) itself")
    if sum(land.round_iterations) != land.cumulative_iterations:
        faults.append("round log iterations do not sum to the cumulative count")
    return faults


def evaluation_faults(land: LandscapeFile, points, infids, mean, maximum) -> list:
    """Recompute the per-point and summary infidelities of a whole test grid."""
    faults = []
    simplex, coords = containing(land, points)
    if (simplex < 0).any():
        return [f"{int((simplex < 0).sum())} test points lie in no simplex"]
    alphas = combinations(land, simplex, coords)
    if np.abs(alphas).max() > land.alpha_max * BOUND_SLACK:
        faults.append("an interpolated pulse exceeds alpha_max")
    u = propagators(land.dim, alphas, land.n_segments, land.duration)
    mine = infidelities(u, targets(land.dim, points))
    bad = np.abs(mine - np.asarray(infids)) > INFIDELITY_TOL
    if bad.any():
        faults.append(f"{int(bad.sum())} per-point infidelities do not recompute")
    if abs(float(np.mean(mine)) - mean) > INFIDELITY_TOL:
        faults.append(f"mean infidelity {mean!r} does not recompute")
    if abs(float(np.max(mine)) - maximum) > INFIDELITY_TOL:
        faults.append(f"max infidelity {maximum!r} does not recompute")
    return faults


def serving_faults(land: LandscapeFile, queries, served, vertex_of) -> list:
    """Every served pulse is its containing simplex's convex combination.

    ``vertex_of[q]`` is the reference index of a vertex query, else -1;
    vertex queries must return the stored pulse bit for bit.
    """
    faults = []
    simplex, coords = containing(land, queries)
    if (simplex < 0).any():
        return [f"{int((simplex < 0).sum())} queries lie in no simplex"]
    served = np.asarray(served, dtype=float)
    if np.abs(served).max() > land.alpha_max * BOUND_SLACK:
        faults.append("a served pulse exceeds alpha_max")
    err = np.abs(served - combinations(land, simplex, coords)).max(axis=1)
    if (err > COMBINATION_TOL).any():
        faults.append(f"{int((err > COMBINATION_TOL).sum())} served pulses are not the "
                      f"convex combination of their simplex (worst {err.max():.3e})")
    vertex_of = np.asarray(vertex_of)
    at = vertex_of >= 0
    if not same_bits(served[at], land.alphas[vertex_of[at]]):
        faults.append("a vertex query does not return its stored pulse bit for bit")
    return faults


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()

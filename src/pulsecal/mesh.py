"""Simplicial mesh over reference points.

Construction delegates to scipy's Delaunay triangulation. Regular
parameter grids are maximally degenerate for Delaunay (many co-spherical
point groups), so the points are perturbed by a tiny deterministic
jitter before triangulating; simplex volumes are then re-checked on the
*unperturbed* coordinates and slivers dropped. ``from_simplices`` checks
each row and stores the rows canonically (sorted vertex tuples in
lexicographic order), so identical inputs give bit-identical meshes.

Point location goes through a uniform cell index over the vertices'
bounding box, with about m^(1/d) cells per axis for m simplices. Every
simplex is registered in each cell its padded bounding box touches, so a
cell's candidate list holds every simplex that can contain a point of
that cell, in ascending simplex order; locate computes barycentric
coordinates for those candidates only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

_JITTER_SEED = 0x5EED
_JITTER_SCALE = 1e-6
_MIN_VOLUME = 1e-12
_LOCATE_TOL = 1e-9
# Padding of each simplex's bounding box in the cell index, relative to
# the mesh extent. A point accepted with barycentric coordinates down to
# -_LOCATE_TOL lies within about (d + 1) * _LOCATE_TOL * extent of its
# simplex, far inside this margin.
_CELL_PAD = 1e-6
_MAX_CELLS_PER_SIMPLEX = 64


@dataclass(frozen=True)
class BarycentricLocation:
    """A point expressed inside one simplex of a mesh."""

    simplex: int
    coords: np.ndarray  # (d+1,), non-negative up to tolerance, sums to 1


@dataclass(frozen=True)
class _CellIndex:
    """Candidate simplices per cell, stored cell after cell.

    Entries ``starts[c]:starts[c + 1]`` of ``simplex`` are the
    candidates of cell c, whose multi-index is (k_0, ..., k_{d-1}) with
    c = sum k_a * n^(d-1-a).
    """

    n: int  # cells per axis
    lo: tuple  # (d,) lower corner of the vertices' bounding box
    scale: tuple  # (d,) cells per unit length on each axis
    starts: list  # (n^d + 1,) entry offsets
    simplex: np.ndarray  # (E,) simplex index of each entry

    def cell_of(self, p) -> int:
        """Cell holding the point (a list of floats), clamped into the grid.

        The same arithmetic as ``_cell_coords``, so that a point inside
        a padded bounding box lands in one of the cells it registered.
        A NaN coordinate lands in cell 0, where no simplex contains it.
        """
        n, cell = self.n, 0
        for x, lo, scale in zip(p, self.lo, self.scale):
            t = (x - lo) * scale
            cell = cell * n + (n - 1 if t >= n else int(t) if t >= 0 else 0)
        return cell


@dataclass(frozen=True)
class SimplicialMesh:
    vertices: np.ndarray  # (n, d)
    simplices: np.ndarray  # (m, d+1) vertex-index rows, canonical order
    _t_inv: np.ndarray = field(repr=False)  # (m, d, d) inverse affine maps
    _origins: np.ndarray = field(repr=False)  # (m, d) first vertex of each simplex
    _neighbor_sets: tuple = field(repr=False)
    _index: _CellIndex = field(repr=False)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]


def _simplex_volumes(vertices: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    d = vertices.shape[1]
    edges = vertices[simplices[:, 1:]] - vertices[simplices[:, :1]]
    return np.abs(np.linalg.det(edges)) / math.factorial(d)


def _neighbor_sets_from(simplices: np.ndarray, n_vertices: int) -> tuple:
    sets = [set() for _ in range(n_vertices)]
    for row in simplices:
        for i in range(len(row)):
            for j in range(i + 1, len(row)):
                sets[row[i]].add(int(row[j]))
                sets[row[j]].add(int(row[i]))
    return tuple(frozenset(s) for s in sets)


def _cell_coords(x, lo, scale, n):
    """Clamped cell coordinates of the points x, as in ``_CellIndex.cell_of``."""
    return np.clip(np.floor((x - lo) * scale), 0, n - 1).astype(int)


def _cell_index(vertices, simplices) -> _CellIndex:
    """Register every simplex in the cells its padded bounding box touches."""
    m, d = simplices.shape[0], vertices.shape[1]
    lo = vertices.min(axis=0)
    extent = vertices.max(axis=0) - lo
    pad = _CELL_PAD * float(extent.max())
    corners = vertices[simplices]
    low, high = corners.min(axis=1) - pad, corners.max(axis=1) + pad
    n = max(1, round(m ** (1.0 / d)))
    while True:
        scale = n / extent
        first = _cell_coords(low, lo, scale, n)
        span = _cell_coords(high, lo, scale, n) - first + 1
        count = span.prod(axis=1)
        # Lattice meshes put each simplex in about 20 cells. Slivers
        # spanning the mesh could put it in most of them, so coarsen
        # until the index stays linear in m; one cell is a full scan.
        if n == 1 or count.sum() <= _MAX_CELLS_PER_SIMPLEX * m:
            break
        n //= 2

    # One entry per (simplex, cell) pair: the rank of an entry within
    # its simplex's box of cells is decoded axis by axis.
    owner = np.repeat(np.arange(m), count)
    rank = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
    cell = np.zeros_like(owner)
    for axis in range(d):
        size = span[owner, axis]
        cell = cell * n + first[owner, axis] + rank % size
        rank //= size
    # A stable sort keeps each cell's candidates in ascending simplex order.
    order = np.argsort(cell, kind="stable")
    starts = np.searchsorted(cell[order], np.arange(n**d + 1))
    return _CellIndex(
        n=n,
        lo=tuple(lo.tolist()),
        scale=tuple(scale.tolist()),
        starts=starts.tolist(),
        simplex=owner[order],
    )


def from_simplices(vertices, simplices) -> SimplicialMesh:
    """Assemble a mesh from explicit vertex-index rows.

    Used when reloading a stored landscape, so interpolation never
    depends on re-triangulating; a bad row's DomainError names it. Rows
    are canonicalized the same way build_mesh emits them, and a row
    that repeats another in any vertex order is refused.
    """
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim != 2:
        raise DomainError("vertices must be a 2-d array")
    n, d = vertices.shape
    for k, row in enumerate(simplices):
        if len(row) != d + 1:
            raise DomainError(f"simplices {k}: {len(row)} vertices, expected {d + 1}")
    rows = np.asarray(simplices)  # object dtype if an index overflows int64
    if rows.ndim != 2:
        raise DomainError("simplices must be a 2-d array")
    outside = np.argwhere((rows < 0) | (rows >= n))
    if len(outside):
        k, a = outside[0]
        raise DomainError(f"simplices {k}: vertex index {rows[k, a]} out of range")
    simplices = rows.astype(int)
    if np.any(_simplex_volumes(vertices, simplices) <= _MIN_VOLUME):
        raise DomainError("degenerate simplex (volume below threshold)")
    simplices = np.sort(simplices, axis=1)
    order = np.lexsort(simplices.T[::-1])
    simplices = simplices[order]
    # Sorting puts equal rows side by side, and the stable sort keeps each
    # after the rows it repeats; the error names the first repeat stored.
    repeats = np.flatnonzero((simplices[1:] == simplices[:-1]).all(axis=1))
    if len(repeats):
        first = repeats[np.argmin(order[repeats + 1])]
        raise DomainError(f"simplices {order[first + 1]}: repeats simplices {order[first]}")

    origins = vertices[simplices[:, 0]]
    spans = (vertices[simplices[:, 1:]] - origins[:, None, :]).transpose(0, 2, 1)
    return SimplicialMesh(
        vertices=vertices,
        simplices=simplices,
        _t_inv=np.linalg.inv(spans),
        _origins=origins,
        _neighbor_sets=_neighbor_sets_from(simplices, n),
        _index=_cell_index(vertices, simplices),
    )


def build_mesh(points) -> SimplicialMesh:
    """Triangulate the reference points into a simplicial mesh.

    Deterministic for a fixed input order. Raises DomainError when the
    points are degenerate (e.g. all coplanar in 3D): no nonzero-volume
    simplices can be generated from such a set.
    """
    vertices = np.asarray(points, dtype=float)
    if vertices.ndim != 2:
        raise DomainError("points must be a 2-d array of coordinates")
    n, d = vertices.shape
    if n < d + 1:
        raise DomainError(f"need at least {d + 1} points in {d}-d, got {n}")

    rng = np.random.default_rng(_JITTER_SEED)
    extent = float(np.ptp(vertices, axis=0).max())
    if extent == 0.0:
        raise DomainError("all points coincide; mesh is degenerate")
    jitter = rng.uniform(-1.0, 1.0, vertices.shape) * _JITTER_SCALE * extent
    # SciPy is imported here, not with the module: loading a landscape
    # (from_simplices) and serving from it never triangulate, and the
    # import would triple the start-up time of every command-line query.
    from scipy.spatial import Delaunay, QhullError

    try:
        raw = Delaunay(vertices + jitter).simplices
    except QhullError as exc:
        raise DomainError(f"degenerate point set, triangulation failed: {exc}") from exc

    volumes = _simplex_volumes(vertices, raw)
    kept = raw[volumes > _MIN_VOLUME]
    if kept.shape[0] == 0:
        raise DomainError("all candidate simplices are degenerate (points coplanar?)")
    return from_simplices(vertices, kept)


def neighbors(mesh: SimplicialMesh, i: int) -> frozenset:
    """Vertices joined to vertex i by a mesh edge (symmetric, excludes i)."""
    if not 0 <= i < mesh.n_vertices:
        raise IndexError(f"vertex index {i} out of range [0, {mesh.n_vertices})")
    return mesh._neighbor_sets[i]


def locate(mesh: SimplicialMesh, p) -> BarycentricLocation:
    """Find a simplex containing p and its barycentric coordinates.

    Points outside the convex hull (beyond a 1e-9 tolerance) raise
    DomainError. On shared faces the lowest-index matching simplex is
    returned; interpolation is consistent either way because off-face
    coordinates vanish.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (mesh.dim,):
        raise DomainError(f"point has shape {p.shape}, expected ({mesh.dim},)")
    index = mesh._index
    cell = index.cell_of(p.tolist())
    candidates = index.simplex[index.starts[cell] : index.starts[cell + 1]]
    t_inv = mesh._t_inv.take(candidates, axis=0)
    b_rest = np.einsum("mij,mj->mi", t_inv, p - mesh._origins.take(candidates, axis=0))
    # The first candidate with every coordinate >= -tol; a NaN anywhere
    # in a row makes its b0 NaN, which fails the test.
    b0, rows = (1.0 - b_rest.sum(axis=1)).tolist(), b_rest.tolist()
    for k, first in enumerate(b0):
        if first >= -_LOCATE_TOL and min(rows[k]) >= -_LOCATE_TOL:
            break
    else:
        raise DomainError(f"point {tuple(float(c) for c in p)} lies outside the mesh")
    b = np.array([0.0 if abs(c) < 1e-12 else c for c in (first, *rows[k])])
    return BarycentricLocation(simplex=int(candidates[k]), coords=b / b.sum())

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
coordinates for those candidates only. A batch of points (B, d) is
located in one pass: the cells come from ``_CellIndex.cell_of``'s
arithmetic on arrays, every point's candidates from one ragged gather,
and one coordinate test over all of them picks each point's first hit
in candidate order, so each row is bit for bit that point's location.
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
    """A point expressed inside one simplex of a mesh, or a batch of them."""

    simplex: int  # or (B,) ints for a batch
    coords: np.ndarray  # (d+1,) or (B, d+1), non-negative up to tolerance, rows sum to 1


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
    starts: np.ndarray  # (n^d + 1,) entry offsets
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

    def cells_of(self, points: np.ndarray) -> np.ndarray:
        """``cell_of`` of each row of points (B, d), in array arithmetic."""
        k = _cell_coords(points, np.array(self.lo), np.array(self.scale), self.n)
        return np.ravel_multi_index(tuple(k.T), (self.n,) * k.shape[1])


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
    """Each vertex's mesh neighbours: every edge of every row, coded both ways as a * n + b.

    The sorted codes hold each vertex's edges together; the frozensets drop
    repeats. (np.unique would drop them too, but its first call imports
    numpy.ma, which costs a fresh interpreter's load about 14 ms.)
    """
    first, second = np.triu_indices(simplices.shape[1], 1)
    a, b = simplices[:, first].ravel(), simplices[:, second].ravel()
    edges = np.sort(np.concatenate([a * n_vertices + b, b * n_vertices + a]))
    source, target = np.divmod(edges, n_vertices)
    bounds = np.searchsorted(source, np.arange(n_vertices + 1)).tolist()
    return tuple(frozenset(target[lo:hi].tolist()) for lo, hi in zip(bounds, bounds[1:]))


def _cell_coords(x, lo, scale, n):
    """Clamped cell coordinates of the points x, as in ``_CellIndex.cell_of``.

    Truncation is the floor where t >= 0; NaN fails both tests and gives 0.
    """
    t = (x - lo) * scale
    return np.where(t >= n, n - 1, np.where(t >= 0, t, 0)).astype(int)


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
        starts=starts,
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
    coordinates vanish. A batch of points (B, d) gives the simplices
    (B,) and coordinates (B, d+1), each row bit for bit what that point
    gives alone; the first point outside the mesh raises.
    """
    p = np.asarray(p, dtype=float)
    d = mesh.dim
    if p.shape == (d,):
        index = mesh._index
        cell = index.cell_of(p.tolist())
        candidates = index.simplex[index.starts[cell] : index.starts[cell + 1]]
        b0, b_rest = _barycentric(mesh, candidates, p)
        # The first candidate with every coordinate >= -tol; a NaN anywhere
        # in a row makes its b0 NaN, which fails the test. Over one cell's
        # few candidates, Python floats cost less than the array form below.
        rows = b_rest.tolist()
        for k, first in enumerate(b0.tolist()):
            if first >= -_LOCATE_TOL and min(rows[k]) >= -_LOCATE_TOL:
                break
        else:
            raise _outside(p)
        b = np.array([0.0 if abs(c) < 1e-12 else c for c in (first, *rows[k])])
        return BarycentricLocation(simplex=int(candidates[k]), coords=b / b.sum())
    if p.ndim != 2 or p.shape[1] != d:
        raise DomainError(f"point has shape {p.shape}, expected ({d},) or (B, {d})")

    # The same test, snap and normalisation over every point's candidates.
    candidates, owner, offsets = _candidates(mesh._index, p)
    b0, b_rest = _barycentric(mesh, candidates, p[owner])
    hits = np.flatnonzero((b0 >= -_LOCATE_TOL) & (b_rest >= -_LOCATE_TOL).all(axis=1))
    # Each point's first hit, or past the end; it must come before the
    # next point's candidates.
    first = np.append(hits, len(candidates))[np.searchsorted(hits, offsets)]
    outside = first >= np.append(offsets[1:], len(candidates))
    if outside.any():
        raise _outside(p[np.argmax(outside)])
    b = np.concatenate([b0[first, None], b_rest[first]], axis=1)
    b[np.abs(b) < 1e-12] = 0.0
    return BarycentricLocation(simplex=candidates[first], coords=b / b.sum(axis=1, keepdims=True))


def _candidates(index: _CellIndex, points: np.ndarray) -> tuple:
    """Every point's cell candidates in one ragged gather.

    Returns the candidates (K,), the point each belongs to (K,) and the
    offset (B,) of each point's first candidate.
    """
    cells = index.cells_of(points)
    first = index.starts[cells]
    count = index.starts[cells + 1] - first
    offsets = np.cumsum(count) - count
    owner = np.repeat(np.arange(len(points)), count)
    entry = np.arange(owner.size) + np.repeat(first - offsets, count)
    return index.simplex[entry], owner, offsets


def _barycentric(mesh: SimplicialMesh, candidates: np.ndarray, x: np.ndarray) -> tuple:
    """Coordinates b0 (K,) and b_rest (K, d) of x in each candidate simplex.

    x is one point (d,) or one point per candidate (K, d).
    """
    t_inv = mesh._t_inv.take(candidates, axis=0)
    b_rest = np.einsum("mij,mj->mi", t_inv, x - mesh._origins.take(candidates, axis=0))
    return 1.0 - b_rest.sum(axis=1), b_rest


def _outside(p: np.ndarray) -> DomainError:
    return DomainError(f"point {tuple(float(c) for c in p)} lies outside the mesh")

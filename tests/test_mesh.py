import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsecal.errors import DomainError
from pulsecal.families import FAMILIES, WEYL_CHAMBER
from pulsecal.mesh import (
    build_mesh,
    from_simplices,
    locate,
    neighbors,
)

TETRA = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])

CUBE = np.array(
    [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
)


def simplex_volume(vertices, row):
    edges = vertices[row[1:]] - vertices[row[0]]
    return abs(np.linalg.det(edges)) / 6.0


# -- construction -------------------------------------------------------------

def test_tetrahedron_gives_single_simplex():
    mesh = build_mesh(TETRA)
    assert mesh.simplices.shape == (1, 4)
    for v in range(4):
        assert neighbors(mesh, v) == set(range(4)) - {v}


def test_cube_corners_tile_unit_volume():
    mesh = build_mesh(CUBE)
    total = sum(simplex_volume(mesh.vertices, row) for row in mesh.simplices)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_build_is_deterministic():
    pts = WEYL_CHAMBER.grid(Fraction(1, 4))
    a = build_mesh(pts)
    b = build_mesh(pts)
    assert np.array_equal(a.simplices, b.simplices)


def test_simplices_are_canonically_sorted():
    mesh = build_mesh(CUBE)
    assert np.array_equal(mesh.simplices, np.sort(mesh.simplices, axis=1))
    rows = [tuple(r) for r in mesh.simplices]
    assert rows == sorted(rows)


def test_coplanar_points_rejected():
    flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.5, 0.5, 0]], float)
    with pytest.raises(DomainError):
        build_mesh(flat)


def test_too_few_points_rejected():
    with pytest.raises(DomainError):
        build_mesh(TETRA[:3])


def test_all_volumes_above_threshold():
    mesh = build_mesh(WEYL_CHAMBER.grid(Fraction(1, 4)))
    for row in mesh.simplices:
        assert simplex_volume(mesh.vertices, row) > 1e-12


# -- neighbors ----------------------------------------------------------------

def test_neighbor_relation_symmetric_and_irreflexive():
    mesh = build_mesh(WEYL_CHAMBER.grid(Fraction(1, 4)))
    for i in range(mesh.n_vertices):
        nbrs = neighbors(mesh, i)
        assert i not in nbrs
        for j in nbrs:
            assert i in neighbors(mesh, j)


def test_neighbors_rejects_bad_index():
    mesh = build_mesh(TETRA)
    with pytest.raises(IndexError):
        neighbors(mesh, 4)
    with pytest.raises(IndexError):
        neighbors(mesh, -1)


# -- point location -----------------------------------------------------------

def test_locate_at_vertex_gives_unit_coordinate():
    mesh = build_mesh(CUBE)
    for i, v in enumerate(CUBE):
        loc = locate(mesh, v)
        row = mesh.simplices[loc.simplex]
        assert i in row
        slot = list(row).index(i)
        expected = np.zeros(4)
        expected[slot] = 1.0
        assert np.array_equal(loc.coords, expected)


def test_locate_at_centroid_gives_equal_coordinates():
    mesh = build_mesh(TETRA)
    centroid = TETRA.mean(axis=0)
    loc = locate(mesh, centroid)
    assert np.allclose(loc.coords, 0.25, atol=1e-12)


def test_locate_at_edge_midpoint_splits_evenly():
    mesh = build_mesh(TETRA)
    mid = (TETRA[0] + TETRA[1]) / 2
    loc = locate(mesh, mid)
    coords = dict(zip(mesh.simplices[loc.simplex], loc.coords))
    assert coords[0] == pytest.approx(0.5, abs=1e-12)
    assert coords[1] == pytest.approx(0.5, abs=1e-12)
    assert coords[2] == pytest.approx(0.0, abs=1e-12)
    assert coords[3] == pytest.approx(0.0, abs=1e-12)


def test_locate_outside_hull_raises():
    mesh = build_mesh(TETRA)
    with pytest.raises(DomainError, match="outside"):
        locate(mesh, np.array([0.5, 0.5, 0.5]))  # beyond the x+y+z=1 face


def test_coordinates_sum_to_one_and_reconstruct():
    rng = np.random.default_rng(13)
    mesh = build_mesh(CUBE)
    for _ in range(1000):
        p = rng.random(3)
        loc = locate(mesh, p)
        assert abs(loc.coords.sum() - 1.0) < 1e-12
        rebuilt = loc.coords @ mesh.vertices[mesh.simplices[loc.simplex]]
        assert np.linalg.norm(rebuilt - p) < 1e-10


def test_chamber_mesh_covers_fine_grid():
    mesh = build_mesh(WEYL_CHAMBER.grid(Fraction(1, 4)))
    fine = WEYL_CHAMBER.grid(Fraction(1, 24))
    assert len(fine) == 819
    for p in fine:
        loc = locate(mesh, p)
        assert loc.coords.min() >= -1e-9


def test_interpolation_consistent_across_shared_faces():
    # Any vertex-valued function must interpolate identically from the
    # two simplices adjoining a shared face.
    rng = np.random.default_rng(21)
    mesh = build_mesh(CUBE)
    values = rng.normal(size=(mesh.n_vertices, 5))
    pairs = []
    rows = [set(map(int, r)) for r in mesh.simplices]
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            shared = rows[a] & rows[b]
            if len(shared) == 3:
                pairs.append((a, b, sorted(shared)))
    assert pairs, "expected at least one adjacent simplex pair in the cube mesh"

    def interp_via(simplex, p):
        row = mesh.simplices[simplex]
        v = mesh.vertices[row]
        b_rest = np.linalg.solve((v[1:] - v[0]).T, p - v[0])
        b = np.concatenate([[1 - b_rest.sum()], b_rest])
        return b @ values[row]

    for a, b, shared in pairs[:8]:
        w = rng.dirichlet(np.ones(3))
        p = w @ mesh.vertices[shared]
        assert np.allclose(interp_via(a, p), interp_via(b, p), atol=1e-10)


# -- cell index against the full scan -----------------------------------------

def full_scan_locate(mesh, p):
    """Reference locate: barycentric coordinates in every simplex.

    The arithmetic locate used before its cell index. Returns (simplex,
    coords) of the lowest-index simplex holding p, or None.
    """
    b_rest = np.einsum("mij,mj->mi", mesh._t_inv, p[None, :] - mesh._origins)
    b0 = 1.0 - b_rest.sum(axis=1)
    b_all = np.concatenate([b0[:, None], b_rest], axis=1)
    hits = np.flatnonzero(b_all.min(axis=1) >= -1e-9)
    if hits.size == 0:
        return None
    b = b_all[hits[0]].copy()
    b[np.abs(b) < 1e-12] = 0.0
    return int(hits[0]), b / b.sum()


TRIANGLE_PAIR = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
MESHES = [(name, n) for name in sorted(FAMILIES) for n in (2, 4, 6)] + [("2-d", 0)]


@functools.cache
def indexed_mesh(name, n):
    if name == "2-d":
        return build_mesh(TRIANGLE_PAIR)
    return build_mesh(FAMILIES[name].grid(Fraction(1, n)))


def query_points(mesh, kind, rng, count=40):
    """Points of one kind for a mesh: uniform, lattice, face or outside."""
    v, rows = mesh.vertices, mesh.simplices
    lo, hi = v.min(axis=0), v.max(axis=0)
    if kind == "uniform":
        return lo + (hi - lo) * rng.uniform(-0.05, 1.05, (count, mesh.dim))
    if kind == "lattice":
        steps = rng.choice([2, 3, 4, 6, 8, 12, 24])
        return lo + (hi - lo) * rng.integers(0, steps + 1, (count, mesh.dim)) / steps
    # A point on a random face or edge of a random simplex.
    weights = rng.dirichlet(np.ones(mesh.dim + 1), count)
    keep = rng.integers(2, mesh.dim + 1, count)
    for w, k in zip(weights, keep):
        w[rng.permutation(mesh.dim + 1)[k:]] = 0.0
        w /= w.sum()
    on_faces = np.einsum("pv,pvc->pc", weights, v[rows[rng.integers(len(rows), size=count)]])
    if kind == "face":
        return on_faces
    # Just off a face, on either side: outside the hull where the face
    # is on it, and across the 1e-9 tolerance band.
    direction = rng.normal(size=(count, mesh.dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    size = 10.0 ** rng.uniform(-13, -5, (count, 1))
    return on_faces + size * direction * (hi - lo).max()


@settings(max_examples=150, deadline=None)
@given(
    mesh_key=st.sampled_from(MESHES),
    kind=st.sampled_from(["uniform", "lattice", "face", "outside"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_indexed_locate_matches_full_scan_bit_for_bit(mesh_key, kind, seed):
    mesh = indexed_mesh(*mesh_key)
    for p in query_points(mesh, kind, np.random.default_rng(seed)):
        want = full_scan_locate(mesh, p)
        if want is None:
            with pytest.raises(DomainError, match="outside"):
                locate(mesh, p)
            continue
        got = locate(mesh, p)
        assert got.simplex == want[0]
        assert got.coords.tobytes() == want[1].tobytes()


def test_locate_rejects_points_far_outside_and_nan():
    mesh = indexed_mesh("cartan-box", 4)
    for p in ([1e300, 0.5, 0.5], [-np.inf, 0.0, 0.0], [np.nan, 0.5, 0.5], [2.0, 2.0, 2.0]):
        with pytest.raises(DomainError, match="outside"), np.errstate(invalid="ignore"):
            locate(mesh, np.array(p))


def test_cell_index_coarsens_for_simplices_spanning_the_mesh():
    # 1,000 copies of one tetrahedron would each touch all 10^3 cells;
    # the index coarsens until it stays linear in the simplex count.
    mesh = from_simplices(TETRA, [[0, 1, 2, 3]] * 1000)
    assert mesh._index.simplex.size <= 64 * 1000
    assert mesh._index.n < 10
    loc = locate(mesh, np.array([0.1, 0.2, 0.3]))
    assert loc.simplex == 0
    assert np.allclose(loc.coords, [0.4, 0.1, 0.2, 0.3], atol=1e-15)


# -- explicit construction ----------------------------------------------------

def test_from_simplices_round_trips_build():
    pts = WEYL_CHAMBER.grid(Fraction(1, 4))
    built = build_mesh(pts)
    rebuilt = from_simplices(built.vertices, built.simplices)
    assert np.array_equal(built.simplices, rebuilt.simplices)
    p = np.array([0.4, 0.2, 0.1])
    assert np.array_equal(locate(built, p).coords, locate(rebuilt, p).coords)


def test_from_simplices_validates_indices_and_volume():
    with pytest.raises(DomainError, match="out of range"):
        from_simplices(TETRA, [[0, 1, 2, 4]])
    degenerate = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.0]])
    with pytest.raises(DomainError, match="degenerate"):
        from_simplices(degenerate, [[0, 1, 2, 3]])


def test_two_dimensional_meshes_supported():
    # The data model is dimension-generic even though the built-in
    # families are 3-d.
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    mesh = build_mesh(tri)
    loc = locate(mesh, np.array([0.25, 0.25]))
    assert abs(loc.coords.sum() - 1.0) < 1e-12
    assert neighbors(mesh, 0)

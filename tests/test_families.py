import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

import pulsecal as pc
from pulsecal.errors import DomainError
from pulsecal.families import CARTAN_BOX, SINGLE_QUBIT, WEYL_CHAMBER, divisions, get_family
from pulsecal.linalg import expm_hermitian

from gate_checks import cartan_target, is_unitary, pauli_target

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


# -- grid counts ------------------------------------------------------------
# These counts are geometry facts about boundary-inclusive lattices and are
# relied on throughout: simple closed forms for the cube, a tetrahedral sum
# for the chamber.

@pytest.mark.parametrize(
    "family,granularity,count",
    [
        ("weyl-chamber", Fraction(1, 4), 14),
        ("weyl-chamber", Fraction(1, 24), 819),
        ("cartan-box", Fraction(1, 6), 343),
        ("cartan-box", Fraction(1, 4), 125),
        ("single-qubit", Fraction(1, 4), 125),
        ("single-qubit", Fraction(1, 12), 2197),
    ],
)
def test_grid_counts(family, granularity, count):
    assert len(get_family(family).grid(granularity)) == count


@pytest.mark.parametrize("name", sorted(pc.FAMILIES))
@pytest.mark.parametrize("n", [2, 3, 4, 6, 12, 24])
def test_grid_equals_exact_fraction_enumeration(name, n):
    family = get_family(name)
    want = [
        [float(c) for c in t]
        for t in (
            (Fraction(a, n), Fraction(b, n), Fraction(c, n))
            for a in range(n + 1)
            for b in range(n + 1)
            for c in range(n + 1)
        )
        if family.contains(t)
    ]
    got = family.grid(Fraction(1, n))
    assert got.dtype == np.float64
    assert got.tobytes() == np.array(want, dtype=float).tobytes()


@pytest.mark.parametrize("name", sorted(pc.FAMILIES))
def test_batched_targets_equal_single_targets(name):
    family = get_family(name)
    points = family.grid(Fraction(1, 6))
    stack = family.target(points)
    assert stack.shape == (len(points), family.model.dim, family.model.dim)
    for p, u in zip(points, stack):
        assert u.tobytes() == family.unitary(tuple(p)).tobytes()


def test_cube_grid_count_closed_form():
    for n in range(1, 7):
        pts = CARTAN_BOX.grid(Fraction(1, n))
        assert len(pts) == (n + 1) ** 3


def test_chamber_grid_count_matches_tetrahedral_sum():
    # Lattice points with c <= b <= min(a, n-a): sum of triangular slabs.
    for n in (2, 4, 6, 12):
        expected = sum(
            (m + 1) * (m + 2) // 2 for m in (min(a, n - a) for a in range(n + 1))
        )
        assert len(WEYL_CHAMBER.grid(Fraction(1, n))) == expected


def test_grid_is_lexicographically_ordered():
    pts = WEYL_CHAMBER.grid(Fraction(1, 4))
    as_tuples = [tuple(p) for p in pts]
    assert as_tuples == sorted(as_tuples)


def test_grid_rejects_non_unit_granularity():
    with pytest.raises(ValueError):
        SINGLE_QUBIT.grid(Fraction(2, 3))
    with pytest.raises(ValueError):
        SINGLE_QUBIT.grid(Fraction(0))
    # A reference spacing meets the same check before its corners are checked.
    with pytest.raises(ValueError, match="must evenly divide 1"):
        WEYL_CHAMBER.check_spacing(Fraction(2, 3))


@pytest.mark.parametrize("granularity", [True, False])
def test_spacing_rule_refuses_a_bool(granularity):
    # Fraction(True) is 1: without the type test, True would be spacing 1.
    with pytest.raises(ValueError, match=rf"^granularity must be a number, got {granularity}$"):
        divisions(granularity)


@pytest.mark.parametrize("granularity", [Fraction(1, 4), "1/4", 0.25, np.float64(0.25)])
def test_spacing_rule_counts_divisions_of_any_exact_spelling(granularity):
    assert divisions(granularity) == 4
    assert SINGLE_QUBIT.check_spacing(granularity) == Fraction(1, 4)


@pytest.mark.parametrize("granularity, n", [
    (np.float32(0.5), 2), (np.int64(1), 1), ("1/4", 4), (0.25, 4), (Fraction(1, 4), 4),
], ids=repr)
def test_spacing_is_read_from_a_fraction_a_string_or_a_number(granularity, n):
    assert divisions(granularity) == n
    stored = pc.CalibConfig("single-qubit", granularity).granularity
    assert stored == Fraction(1, n) and type(stored) is Fraction


@pytest.mark.parametrize("read", [divisions, lambda g: pc.CalibConfig("single-qubit", g)],
                         ids=["divisions", "CalibConfig"])
@pytest.mark.parametrize("granularity", [
    None, [1], float("nan"), float("inf"), float("-inf"), "1/0", "abc", True, np.float32("nan"),
], ids=repr)
def test_spacing_that_is_not_a_number_is_refused_by_name(read, granularity):
    message = rf"^granularity must be a number, got {re.escape(repr(granularity))}$"
    with pytest.raises(ValueError, match=message):
        read(granularity)


@pytest.mark.parametrize("name", sorted(pc.FAMILIES))
def test_corners_are_exact_extreme_points_of_the_domain(name):
    family = get_family(name)
    corners = np.array([[float(c) for c in corner] for corner in family.corners])
    assert family.contains(corners).all()
    # The corners span the domain: a fine grid's hull is no larger than theirs.
    fine = family.grid(Fraction(1, 12))
    assert ConvexHull(corners).volume == pytest.approx(ConvexHull(fine).volume)


@pytest.mark.parametrize("granularity", [Fraction(1, 3), Fraction(1, 5), Fraction(1)])
def test_chamber_spacing_that_misses_a_corner_is_refused(granularity):
    message = r"misses the corner \(1/2, 1/2, 0\) of family 'weyl-chamber'"
    with pytest.raises(ValueError, match=message):
        WEYL_CHAMBER.check_spacing(granularity)


@pytest.mark.parametrize("family,granularity", [
    (WEYL_CHAMBER, Fraction(1, 2)), (WEYL_CHAMBER, Fraction(1, 6)),
    (CARTAN_BOX, Fraction(1, 3)), (SINGLE_QUBIT, Fraction(1, 5)), (SINGLE_QUBIT, Fraction(1)),
])
def test_spacing_whose_lattice_holds_every_corner_is_accepted(family, granularity):
    family.check_spacing(granularity)
    lattice = {tuple(p) for p in family.grid(granularity)}
    assert {tuple(float(c) for c in corner) for corner in family.corners} <= lattice


def test_chamber_grid_is_subset_of_box_grid():
    chamber = {tuple(p) for p in WEYL_CHAMBER.grid(Fraction(1, 4))}
    box = {tuple(p) for p in CARTAN_BOX.grid(Fraction(1, 4))}
    assert chamber < box


# -- membership -------------------------------------------------------------

def test_chamber_membership_examples():
    assert WEYL_CHAMBER.contains((0.5, 0.25, 0.25))
    assert WEYL_CHAMBER.contains((0.5, 0.5, 0.5))
    assert WEYL_CHAMBER.contains((1.0, 0.0, 0.0))
    assert not WEYL_CHAMBER.contains((0.8, 0.5, 0.1))  # ty > 1 - tx
    assert not WEYL_CHAMBER.contains((0.25, 0.1, 0.2))  # tz > ty


def test_membership_tolerates_float_boundary_noise():
    # ty == 1 - tx evaluated in floats can overshoot by an ulp; such
    # points must still count as inside.
    tx, ty = float(Fraction(7, 12)), float(Fraction(5, 12))
    assert ty > 1 - tx  # the raw comparison really does fail
    assert WEYL_CHAMBER.contains((tx, ty, 0.0))


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_box_grid_points_lie_in_domain(a, b, c):
    t = (Fraction(a, 6), Fraction(b, 6), Fraction(c, 6))
    assert SINGLE_QUBIT.contains(t)


@settings(max_examples=200)
@given(
    st.floats(0, 1, allow_nan=False),
    st.floats(0, 1, allow_nan=False),
    st.floats(0, 1, allow_nan=False),
)
def test_chamber_membership_matches_inequalities(tx, ty, tz):
    inside = 0 <= tz <= ty <= min(tx, 1 - tx)
    if inside:
        assert WEYL_CHAMBER.contains((tx, ty, tz))
    # strictly outside by more than the tolerance -> rejected
    if ty > min(tx, 1 - tx) + 1e-6 or tz > ty + 1e-6:
        assert not WEYL_CHAMBER.contains((tx, ty, tz))


_SLACK = 1e-9  # the membership slack families.py allows past each face


def _unit():
    return st.floats(-0.25, 1.25, allow_nan=False)


@st.composite
def _lattice_point(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 6, 12, 24]))
    return tuple(draw(st.integers(-1, n + 1)) / n for _ in range(3))


@st.composite
def _face_point(draw):
    """A point on one face of a domain, moved across it by about the slack."""
    t = [draw(st.floats(0, 1)) for _ in range(3)]
    face = draw(st.sampled_from(["0", "1", "ty=tx", "ty=1-tx", "tz=ty"]))
    k = draw(st.integers(0, 2))  # the coordinate moved across the face
    if face in ("0", "1"):
        t[k] = float(face)
    elif face == "tz=ty":
        k, t[2] = 2, t[1]
    else:
        k, t[1] = 1, (t[0] if face == "ty=tx" else 1 - t[0])
    delta = draw(st.sampled_from([0.5, 1.0, 1.5])) * _SLACK * draw(st.sampled_from([-1, 1]))
    t[k] += delta
    if draw(st.booleans()):
        t[k] = np.nextafter(t[k], draw(st.sampled_from([-np.inf, np.inf])))
    return tuple(t)


_POINTS = st.one_of(
    st.tuples(_unit(), _unit(), _unit()),
    _lattice_point(),
    _face_point(),
    st.tuples(st.sampled_from([np.nan, 0.5]), st.sampled_from([np.nan, 0.0]), st.just(0.0)),
)


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(pc.FAMILIES)),
    points=st.lists(_POINTS, min_size=1, max_size=12),
)
def test_contains_on_a_batch_equals_each_point(name, points):
    family = get_family(name)
    got = family.contains(np.array(points))
    assert got.dtype == bool
    assert got.tolist() == [bool(family.contains(p)) for p in points]


# -- target unitaries -------------------------------------------------------

@pytest.mark.parametrize("family,reference", [
    (WEYL_CHAMBER, cartan_target), (CARTAN_BOX, cartan_target), (SINGLE_QUBIT, pauli_target),
], ids=["weyl-chamber", "cartan-box", "single-qubit"])
def test_targets_equal_the_three_term_formulas_bit_for_bit(family, reference):
    points = np.concatenate([
        family.grid(Fraction(1, 24)), np.random.default_rng(19).random((2000, 3)),
    ])
    assert family.target(points).tobytes() == reference(points).tobytes()
    for p in points[::97]:
        assert family.target(p).tobytes() == reference(p).tobytes()


def _family(**changes):
    fields = dict(vars(SINGLE_QUBIT), name="probe")
    return pc.GateFamily(**{**fields, **changes})


@pytest.mark.parametrize("changes,message", [
    ({"generators": np.stack([SX, SY])}, r"generators have shape \(2, 2, 2\), expected \(3, 2, 2\)"),
    ({"generators": CARTAN_BOX.generators}, r"generators have shape \(3, 4, 4\), expected \(3, 2, 2\)"),
    ({"param_names": ("a", "b")}, r"generators have shape \(3, 2, 2\), expected \(2, 2, 2\)"),
    ({"corners": ((0, 0, 0), (1, 0), (0, 1, 0), (0, 0, 1))},
     r"corner \(1, 0\) has 2 entries, expected 3"),
], ids=["generator-count", "generator-dimension", "names-count", "corner-length"])
def test_family_refuses_generators_and_corners_that_miss_its_parameter_count(changes, message):
    with pytest.raises(ValueError, match=rf"^family 'probe': {message}$"):
        _family(**changes)
    assert _family().n_params == 3


def test_unitary_raises_outside_domain():
    with pytest.raises(DomainError):
        WEYL_CHAMBER.unitary((0.8, 0.5, 0.1))
    with pytest.raises(DomainError):
        SINGLE_QUBIT.unitary((1.2, 0.0, 0.0))


@pytest.mark.parametrize("family", list(pc.FAMILIES.values()), ids=list(pc.FAMILIES))
def test_batched_unitary_equals_each_point_bit_for_bit(family):
    points = family.grid(Fraction(1, 6))
    stack = family.unitary(points)
    assert stack.shape == (len(points), family.model.dim, family.model.dim)
    for p, u in zip(points, stack):
        assert u.tobytes() == family.unitary(p).tobytes()
    assert family.unitary(points[:1]).tobytes() == stack[:1].tobytes()


@pytest.mark.parametrize("family", list(pc.FAMILIES.values()), ids=list(pc.FAMILIES))
def test_batched_unitary_names_the_first_point_outside(family):
    points = np.concatenate([
        family.grid(Fraction(1, 2)), [[1.25, 0.0, 0.0], [0.5, 0.0, np.nan], [-1.0, 0.0, 0.0]],
    ])
    message = rf"^point \(1.25, 0.0, 0.0\) outside the domain of family '{family.name}': requires"
    with pytest.raises(DomainError, match=message):
        family.unitary(points)
    with pytest.raises(DomainError, match=r"^point \(0.5, 0.0, nan\) outside"):
        family.unitary(points[[0, -2, -1]])


@pytest.mark.parametrize("shape", [(2,), (4, 2), (2, 2, 3), (0,)])
def test_unitary_rejects_points_of_the_wrong_shape(shape):
    with pytest.raises(DomainError, match="shape"):
        SINGLE_QUBIT.unitary(np.zeros(shape))


def test_targets_are_unitary():
    rng = np.random.default_rng(8)
    for _ in range(25):
        a, b, c = rng.random(3)
        assert is_unitary(SINGLE_QUBIT.unitary((a, b, c)), tol=1e-10)
        assert is_unitary(CARTAN_BOX.unitary((a, b, c)), tol=1e-10)


def test_single_qubit_target_closed_form():
    # exp(-i (pi/2) n.sigma) = cos(pi|n|/2) I - i sin(pi|n|/2) n̂.sigma
    t = np.array([0.3, 0.2, 0.6])
    r = np.linalg.norm(t)
    nhat = t / r
    expected = np.cos(np.pi * r / 2) * np.eye(2) - 1j * np.sin(np.pi * r / 2) * (
        nhat[0] * SX + nhat[1] * SY + nhat[2] * SZ
    )
    assert np.allclose(SINGLE_QUBIT.unitary(t), expected, atol=1e-12)


def test_cartan_target_separates_commuting_factors():
    # XX, YY, ZZ commute, so the target factorizes exactly.
    t = (0.5, 0.25, 0.125)
    xx = np.kron(SX, SX)
    yy = np.kron(SY, SY)
    zz = np.kron(SZ, SZ)
    expected = (
        expm_hermitian((np.pi / 2) * t[0] * xx)
        @ expm_hermitian((np.pi / 2) * t[1] * yy)
        @ expm_hermitian((np.pi / 2) * t[2] * zz)
    )
    assert np.allclose(CARTAN_BOX.unitary(t), expected, atol=1e-12)


def test_identity_point_gives_identity_gate():
    assert np.allclose(SINGLE_QUBIT.unitary((0, 0, 0)), np.eye(2), atol=1e-15)
    assert np.allclose(WEYL_CHAMBER.unitary((0, 0, 0)), np.eye(4), atol=1e-15)


def test_get_family_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown family"):
        get_family("three-qubit")


def test_families_expose_consistent_control_shapes():
    for fam in pc.FAMILIES.values():
        controls = fam.model.controls
        assert controls.shape == (fam.model.n_controls, fam.model.dim, fam.model.dim)
        # controls are Hermitian
        assert np.allclose(controls, controls.conj().transpose(0, 2, 1))


@pytest.mark.parametrize("family", pc.FAMILIES.values(), ids=lambda f: f.name)
def test_each_family_holds_one_model(family):
    # Every access gives the same model, so its row support is computed
    # once, and the model is the one source of the dimension and controls.
    assert family.model is family.model
    assert family.model.row_support is family.model.row_support
    assert not any(hasattr(family, name) for name in ("controls", "dim", "n_controls"))

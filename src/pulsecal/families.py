"""Parameterized gate families and their reference/test grids.

A gate family maps a 3-component parameter point t = (tx, ty, tz) to a
target unitary. Three families are provided:

* ``weyl-chamber``: two-qubit gates exp(-i*(pi/2)*(tx XX + ty YY + tz ZZ))
  restricted to the tetrahedral cell 0 <= tx <= 1, ty <= min(tx, 1-tx),
  0 <= tz <= ty, which contains one representative per local-equivalence
  class of two-qubit gates.
* ``cartan-box``: the same map on the full cube [0,1]^3.
* ``single-qubit``: exp(-i*(pi/2)*(tx sx + ty sy + tz sz)) on [0,1]^3.

Each family states its domain once, as ``contains``, which takes one
point or a batch. A grid is the lattice points a / n that ``contains``
accepts. A lattice point outside a domain lies at least 1/n outside it,
far beyond the membership slack and the one rounding of a / n, so point
counts do not depend on floating-point rounding.

Each family also states the corners of its domain, as exact fractions.
The references' hull is the whole domain only when every corner is a
reference, so ``check_spacing`` refuses a reference spacing whose
lattice misses one: the chamber at 1/3 misses (1/2, 1/2, 0).

``GateFamily.unitary`` is the one way to a target, for one point or a
batch; it checks the points with ``check_domain``, as the loader does.
Each family holds its pulse model, built once: ``family.model.dim`` and
``family.model.n_controls`` are read off its controls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import DomainError
from .linalg import I2, SX, SY, SZ, expm_hermitian
from .pulses import HamiltonianModel

XX = np.kron(SX, SX)
YY = np.kron(SY, SY)
ZZ = np.kron(SZ, SZ)

# Control Hamiltonians: one XX coupling plus local y/z fields on each
# qubit for the two-qubit families; the first qubit's two local fields
# alone for the single-qubit family.
CONTROLS_2Q = np.stack(
    [XX, np.kron(SY, I2), np.kron(SZ, I2), np.kron(I2, SY), np.kron(I2, SZ)]
)
CONTROLS_1Q = np.stack([SY, SZ])


def _components(t):
    """tx, ty, tz of one point (3,) or a batch (B, 3), shaped to scale matrices."""
    t = np.asarray(t, dtype=float)
    return (t[..., k, None, None] for k in range(3))


def cartan_unitary(t) -> np.ndarray:
    """Two-qubit target exp(-i*(pi/2)*(tx XX + ty YY + tz ZZ)).

    A batch of points (B, 3) gives the stack (B, 4, 4) of their targets.
    """
    tx, ty, tz = _components(t)
    return expm_hermitian((np.pi / 2) * (tx * XX + ty * YY + tz * ZZ))


def single_qubit_unitary(t) -> np.ndarray:
    """Single-qubit target exp(-i*(pi/2)*(tx sx + ty sy + tz sz)).

    A batch of points (B, 3) gives the stack (B, 2, 2) of their targets.
    """
    tx, ty, tz = _components(t)
    return expm_hermitian((np.pi / 2) * (tx * SX + ty * SY + tz * SZ))


# Membership slack: queries usually arrive as floats, where boundary
# points can land a few ulp outside the exact domain (e.g. ty == 1 - tx
# evaluated at tx = 7/12). The slack is far below any lattice spacing,
# so exact-rational grid membership is unaffected.
_DOMAIN_TOL = 1e-9


# Membership of one point (3,) or, row by row, of a batch (B, 3). The
# chamber is the part of the cube below the faces ty = min(tx, 1 - tx)
# and tz = ty.
def _in_box(t):
    t = np.asarray(t, dtype=float)
    return ((-_DOMAIN_TOL <= t) & (t <= 1 + _DOMAIN_TOL)).all(axis=-1)


def _in_chamber(t):
    tx, ty, tz = np.asarray(t, dtype=float).T
    return _in_box(t) & (ty <= np.minimum(tx, 1 - tx) + _DOMAIN_TOL) & (tz <= ty + _DOMAIN_TOL)


@dataclass(frozen=True)
class GateFamily:
    """Descriptor bundling a family's name, domain, pulse model and target map.

    ``corners`` lists the corners of the domain as exact numbers (ints
    and Fractions). ``model`` holds the control Hamiltonians, and with
    them the dimension and the control count. ``contains`` and
    ``target`` each take one point (3,) or a batch (B, 3): ``contains``
    gives the point's membership, or each row's, and ``target`` the
    point's unitary, or the stack (B, dim, dim).
    """

    name: str
    domain_description: str
    corners: tuple = field(repr=False)
    model: HamiltonianModel = field(repr=False)
    contains: Callable[[tuple], bool] = field(repr=False)
    target: Callable[[tuple], np.ndarray] = field(repr=False)

    def check_domain(self, t) -> np.ndarray:
        """One point (3,) or a batch (B, 3), as floats; DomainError names the first outside."""
        t = np.asarray(t, dtype=float)
        if t.ndim not in (1, 2) or t.shape[-1] != 3:
            raise DomainError(f"points have shape {t.shape}, expected (3,) or (B, 3)")
        outside = np.flatnonzero(~self.contains(t.reshape(-1, 3)))
        if len(outside):
            p = tuple(float(c) for c in t.reshape(-1, 3)[outside[0]])
            raise DomainError(f"point {p} outside the domain of family {self.name!r}: "
                              f"requires {self.domain_description}")
        return t

    def unitary(self, t) -> np.ndarray:
        """Target of one point (3,), or the stack (B, dim, dim) of a batch (B, 3)."""
        t = self.check_domain(t)
        u = self.target(t)
        if np.shape(u) != t.shape[:-1] + (self.model.dim,) * 2:
            raise ValueError(f"family {self.name!r} gave targets of shape {np.shape(u)} "
                             f"for points of shape {t.shape}; its target must accept a batch")
        return u

    def grid(self, granularity: Fraction) -> np.ndarray:
        """All domain lattice points with spacing ``granularity``, as floats.

        The lattice is the integer multiples of the granularity inside
        the domain, boundary included. Ordering is lexicographic in
        (tx, ty, tz), which every other module relies on being stable.
        """
        n = _divisions(granularity)
        # Float division of the exact integers rounds a / n once, as
        # float(Fraction(a, n)) does.
        points = np.indices((n + 1,) * 3).reshape(3, -1).T / n
        return points[self.contains(points)]

    def check_spacing(self, granularity: Fraction) -> None:
        """Refuse a reference spacing whose lattice misses a corner of the domain."""
        n = _divisions(granularity)
        for corner in self.corners:
            if any((Fraction(c) * n).denominator != 1 for c in corner):
                raise ValueError(
                    f"granularity {Fraction(granularity)} misses the corner "
                    f"({', '.join(map(str, corner))}) of family {self.name!r}: "
                    "the reference lattice must hold every corner of the domain"
                )


def _divisions(granularity: Fraction) -> int:
    """The n of a spacing 1/n; a spacing that does not divide 1 is refused."""
    g = Fraction(granularity)
    if g <= 0 or (1 / g).denominator != 1:
        raise ValueError(f"granularity must evenly divide 1, got {g}")
    return int(1 / g)


_HALF = Fraction(1, 2)
_CUBE_CORNERS = tuple(itertools.product((0, 1), repeat=3))


WEYL_CHAMBER = GateFamily(
    name="weyl-chamber",
    domain_description="0 <= tz <= ty <= min(tx, 1 - tx) with 0 <= tx <= 1",
    corners=((0, 0, 0), (1, 0, 0), (_HALF, _HALF, 0), (_HALF, _HALF, _HALF)),
    model=HamiltonianModel(controls=CONTROLS_2Q),
    contains=_in_chamber,
    target=cartan_unitary,
)

CARTAN_BOX = GateFamily(
    name="cartan-box",
    domain_description="the unit cube 0 <= tx, ty, tz <= 1",
    corners=_CUBE_CORNERS,
    model=HamiltonianModel(controls=CONTROLS_2Q),
    contains=_in_box,
    target=cartan_unitary,
)

SINGLE_QUBIT = GateFamily(
    name="single-qubit",
    domain_description="the unit cube 0 <= tx, ty, tz <= 1",
    corners=_CUBE_CORNERS,
    model=HamiltonianModel(controls=CONTROLS_1Q),
    contains=_in_box,
    target=single_qubit_unitary,
)

FAMILIES = {f.name: f for f in (WEYL_CHAMBER, CARTAN_BOX, SINGLE_QUBIT)}


def get_family(name: str) -> GateFamily:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; expected one of {sorted(FAMILIES)}"
        ) from None

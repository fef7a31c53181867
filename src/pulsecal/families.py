"""Parameterized gate families and their reference/test grids.

A gate family is data: one Hermitian generator G_k per gate parameter,
and the target of a point t is exp(-i*(pi/2)*sum_k t_k G_k). Three
families are provided, each on points t = (tx, ty, tz):

* ``weyl-chamber``: two-qubit gates exp(-i*(pi/2)*(tx XX + ty YY + tz ZZ))
  restricted to the tetrahedral cell 0 <= tx <= 1, ty <= min(tx, 1-tx),
  0 <= tz <= ty, which contains one representative per local-equivalence
  class of two-qubit gates.
* ``cartan-box``: the same generators on the full cube [0,1]^3.
* ``single-qubit``: exp(-i*(pi/2)*(tx sx + ty sy + tz sz)) on [0,1]^3.

Each family states its domain once, as ``contains``, which takes one
point or a batch. A grid is the lattice points a / n that ``contains``
accepts, for a spacing 1/n that ``divisions`` accepts. ``divisions`` is
the one reader of a spacing, a ``Spacing``: a Fraction, a string such as
"1/4", or a number that ``check_number`` takes; the command line passes
its strings straight to it. A lattice point outside a domain lies at
least 1/n outside it, far beyond the membership slack and the one
rounding of a / n, so point counts do not depend on floating-point
rounding.

Each family names its parameters, ``param_names``, and is refused when
it is built unless it has one generator per parameter and each corner
of its domain (exact fractions) one entry per parameter. The references'
hull is the whole domain only when every corner is a reference, so
``check_spacing`` refuses a spacing whose lattice misses one: the
chamber at 1/3 misses (1/2, 1/2, 0).

``GateFamily.unitary`` is the one checked way to a target, for one point
or a batch; it checks the points with ``check_domain``, as the loader
does. Each family holds its pulse model, built once: ``family.model.dim``
and ``family.model.n_controls`` are read off its controls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import DomainError
from .linalg import I2, SX, SY, SZ, expm_hermitian
from .pulses import HamiltonianModel, check_number

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
    """A gate family as data: its name, domain, pulse model and generators.

    ``param_names`` names the n gate parameters. ``corners`` lists the
    corners of the domain as exact numbers (ints and Fractions), n each.
    ``model`` holds the control Hamiltonians, and with them the dimension
    and the control count; ``generators`` (n, dim, dim), one Hermitian
    matrix per parameter. ``contains`` takes one point (n,) or a batch
    (B, n) and gives the point's membership, or each row's.
    """

    name: str
    domain_description: str
    param_names: tuple
    corners: tuple = field(repr=False)
    model: HamiltonianModel = field(repr=False)
    contains: Callable[[tuple], bool] = field(repr=False)
    generators: np.ndarray = field(repr=False)

    def __post_init__(self):
        """Refuse generators or corners that do not have one entry per parameter."""
        n, dim = self.n_params, self.model.dim
        if np.shape(self.generators) != (n, dim, dim):
            raise ValueError(f"family {self.name!r}: generators have shape "
                             f"{np.shape(self.generators)}, expected {(n, dim, dim)}")
        for corner in self.corners:
            if len(corner) != n:
                raise ValueError(f"family {self.name!r}: corner {corner} has "
                                 f"{len(corner)} entries, expected {n}")

    @property
    def n_params(self) -> int:
        """The number of gate parameters: the length of ``param_names``."""
        return len(self.param_names)

    def check_domain(self, t) -> np.ndarray:
        """One point (n,) or a batch (B, n), as floats; DomainError names the first outside."""
        t = np.asarray(t, dtype=float)
        n = self.n_params
        if t.ndim not in (1, 2) or t.shape[-1] != n:
            raise DomainError(f"points have shape {t.shape}, expected ({n},) or (B, {n})")
        outside = np.flatnonzero(~self.contains(t.reshape(-1, n)))
        if len(outside):
            p = tuple(float(c) for c in t.reshape(-1, n)[outside[0]])
            raise DomainError(f"point {p} outside the domain of family {self.name!r}: "
                              f"requires {self.domain_description}")
        return t

    def target(self, t) -> np.ndarray:
        """exp(-i*(pi/2)*sum_k t_k G_k) of one point (n,) or a batch (B, n), unchecked."""
        return expm_hermitian((np.pi / 2) * np.tensordot(t, self.generators, 1))

    def unitary(self, t) -> np.ndarray:
        """Target of one point (n,), or the stack (B, dim, dim) of a batch (B, n)."""
        return self.target(self.check_domain(t))

    def grid(self, granularity: Spacing) -> np.ndarray:
        """All domain lattice points with spacing ``granularity``, as floats.

        The lattice is the integer multiples of the granularity inside
        the domain, boundary included. Ordering is lexicographic in
        the parameters, which every other module relies on being stable.
        """
        n, d = divisions(granularity), self.n_params
        # Float division of the exact integers rounds a / n once, as
        # float(Fraction(a, n)) does.
        points = np.indices((n + 1,) * d).reshape(d, -1).T / n
        return points[self.contains(points)]

    def check_spacing(self, granularity: Spacing) -> Fraction:
        """The spacing 1/n as a Fraction; refused if its lattice misses a corner of the domain."""
        n = divisions(granularity)
        for corner in self.corners:
            if any((Fraction(c) * n).denominator != 1 for c in corner):
                raise ValueError(
                    f"granularity {Fraction(1, n)} misses the corner "
                    f"({', '.join(map(str, corner))}) of family {self.name!r}: "
                    "the reference lattice must hold every corner of the domain"
                )
        return Fraction(1, n)


# Every form of a spacing that divisions reads.
Spacing = Fraction | str | float


def divisions(granularity: Spacing) -> int:
    """The n of a spacing 1/n; a spacing that does not divide 1 is refused.

    A Fraction and a string such as "1/4" are read exactly, and a number
    through ``check_number`` (a bool, NaN or inf is refused). Anything
    else, "1/0" too, is not a number: every refusal is a ValueError.
    """
    try:
        g = Fraction(granularity if isinstance(granularity, (Fraction, str))
                     else check_number(granularity))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"granularity must be a number, got {granularity!r}") from None
    if g <= 0 or (1 / g).denominator != 1:
        raise ValueError(f"granularity must evenly divide 1, got {g}")
    return int(1 / g)


_HALF = Fraction(1, 2)
_CUBE_CORNERS = tuple(itertools.product((0, 1), repeat=3))


WEYL_CHAMBER = GateFamily(
    name="weyl-chamber",
    domain_description="0 <= tz <= ty <= min(tx, 1 - tx) with 0 <= tx <= 1",
    param_names=("tx", "ty", "tz"),
    corners=((0, 0, 0), (1, 0, 0), (_HALF, _HALF, 0), (_HALF, _HALF, _HALF)),
    model=HamiltonianModel(controls=CONTROLS_2Q),
    contains=_in_chamber,
    generators=np.stack([XX, YY, ZZ]),
)

CARTAN_BOX = GateFamily(
    name="cartan-box",
    domain_description="the unit cube 0 <= tx, ty, tz <= 1",
    param_names=("tx", "ty", "tz"),
    corners=_CUBE_CORNERS,
    model=HamiltonianModel(controls=CONTROLS_2Q),
    contains=_in_box,
    generators=np.stack([XX, YY, ZZ]),
)

SINGLE_QUBIT = GateFamily(
    name="single-qubit",
    domain_description="the unit cube 0 <= tx, ty, tz <= 1",
    param_names=("tx", "ty", "tz"),
    corners=_CUBE_CORNERS,
    model=HamiltonianModel(controls=CONTROLS_1Q),
    contains=_in_box,
    generators=np.stack([SX, SY, SZ]),
)

FAMILIES = {f.name: f for f in (WEYL_CHAMBER, CARTAN_BOX, SINGLE_QUBIT)}


def get_family(name: str) -> GateFamily:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; expected one of {sorted(FAMILIES)}"
        ) from None

"""Parameterized gate families and their reference/test grids.

A gate family maps a 3-component parameter point t = (tx, ty, tz) to a
target unitary. Three families are provided:

* ``weyl-chamber``: two-qubit gates exp(-i*(pi/2)*(tx XX + ty YY + tz ZZ))
  restricted to the tetrahedral cell 0 <= tx <= 1, ty <= min(tx, 1-tx),
  0 <= tz <= ty, which contains one representative per local-equivalence
  class of two-qubit gates.
* ``cartan-box``: the same map on the full cube [0,1]^3.
* ``single-qubit``: exp(-i*(pi/2)*(tx sx + ty sy + tz sz)) on [0,1]^3.

Grids are selected with exact integer arithmetic on the lattice
numerators, so that point counts and membership tests do not depend on
floating-point rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

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


def _in_box(t) -> bool:
    return all(-_DOMAIN_TOL <= c <= 1 + _DOMAIN_TOL for c in t)


def _in_chamber(t) -> bool:
    tx, ty, tz = t
    return (
        -_DOMAIN_TOL <= tx <= 1 + _DOMAIN_TOL
        and -_DOMAIN_TOL <= ty <= min(tx, 1 - tx) + _DOMAIN_TOL
        and -_DOMAIN_TOL <= tz <= ty + _DOMAIN_TOL
    )


# Exact membership of lattice points (a, b, c) / n, from the integer
# numerators 0 <= a, b, c <= n; k is (N, 3).
def _box_lattice(k, n):
    return np.ones(len(k), dtype=bool)


def _chamber_lattice(k, n):
    a, b, c = k.T
    return (b <= np.minimum(a, n - a)) & (c <= b)


@dataclass(frozen=True)
class GateFamily:
    """Descriptor bundling a family's name, dimension, domain and target map.

    ``target`` maps one point (3,) to its unitary and, for evaluate_grid,
    a batch (B, 3) to the stack (B, dim, dim). ``lattice``, when given,
    is the domain's exact membership test on lattice numerators (see
    ``grid``); without it, grid tests each lattice point with
    ``contains`` on exact fractions.
    """

    name: str
    dim: int
    n_controls: int
    domain_description: str
    controls: np.ndarray = field(repr=False)
    contains: Callable[[tuple], bool] = field(repr=False)
    target: Callable[[tuple], np.ndarray] = field(repr=False)
    lattice: Optional[Callable[[np.ndarray, int], np.ndarray]] = field(default=None, repr=False)

    @property
    def model(self) -> HamiltonianModel:
        """The family's control Hamiltonians, as the pulse model."""
        return HamiltonianModel(controls=self.controls, dim=self.dim)

    def unitary(self, t) -> np.ndarray:
        if not self.contains(t):
            raise DomainError(
                f"point {tuple(float(c) for c in t)} outside domain of family "
                f"{self.name!r}: requires {self.domain_description}"
            )
        return self.target(t)

    def grid(self, granularity: Fraction) -> np.ndarray:
        """All domain lattice points with spacing ``granularity``, as floats.

        The lattice is the integer multiples of the granularity inside
        the domain, boundary included. Ordering is lexicographic in
        (tx, ty, tz), which every other module relies on being stable.
        """
        g = Fraction(granularity)
        if g <= 0 or (1 / g).denominator != 1:
            raise ValueError(f"granularity must evenly divide 1, got {g}")
        n = int(1 / g)
        k = np.indices((n + 1,) * 3).reshape(3, -1).T
        if self.lattice is not None:
            inside = self.lattice(k, n)
        else:
            inside = [self.contains(tuple(Fraction(c, n) for c in row)) for row in k.tolist()]
        # Float division of the exact integers rounds a / n once, as
        # float(Fraction(a, n)) does.
        return k[np.asarray(inside, dtype=bool)] / n


WEYL_CHAMBER = GateFamily(
    name="weyl-chamber",
    dim=4,
    n_controls=5,
    domain_description="0 <= tz <= ty <= min(tx, 1 - tx) with 0 <= tx <= 1",
    controls=CONTROLS_2Q,
    contains=_in_chamber,
    target=cartan_unitary,
    lattice=_chamber_lattice,
)

CARTAN_BOX = GateFamily(
    name="cartan-box",
    dim=4,
    n_controls=5,
    domain_description="the unit cube 0 <= tx, ty, tz <= 1",
    controls=CONTROLS_2Q,
    contains=_in_box,
    target=cartan_unitary,
    lattice=_box_lattice,
)

SINGLE_QUBIT = GateFamily(
    name="single-qubit",
    dim=2,
    n_controls=2,
    domain_description="the unit cube 0 <= tx, ty, tz <= 1",
    controls=CONTROLS_1Q,
    contains=_in_box,
    target=single_qubit_unitary,
    lattice=_box_lattice,
)

FAMILIES = {f.name: f for f in (WEYL_CHAMBER, CARTAN_BOX, SINGLE_QUBIT)}


def get_family(name: str) -> GateFamily:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; expected one of {sorted(FAMILIES)}"
        ) from None

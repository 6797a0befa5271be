"""Arithmetic of hyperbolic (split-complex) numbers.

The algebra is the commutative two-dimensional real algebra generated by j
with j*j = 1.  It is not a field: (1 + j)(1 - j) = 0.  The involution sends
x + j*y to x - j*y and the squared norm x^2 - y^2 may be negative, so the
modulus is only defined on the positive cone.  The cone {|z|^2 >= 0} is
closed under multiplication and its interior {|z|^2 > 0} is a group.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import NotInPositiveCone, RapidityOverflow
from .records import ValueTuple

# cosh overflows double precision shortly above this rapidity
MAX_RAPIDITY = 700.0


class _HyperbolicFields(NamedTuple):
    x: float
    y: float


class HyperbolicNumber(ValueTuple, _HyperbolicFields):
    """x + j*y with j*j = 1; equal and hashed by value."""

    __slots__ = ()

    def __add__(self, other: "HyperbolicNumber") -> "HyperbolicNumber":
        return HyperbolicNumber(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "HyperbolicNumber") -> "HyperbolicNumber":
        return HyperbolicNumber(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "HyperbolicNumber":
        return HyperbolicNumber(-self.x, -self.y)

    def __mul__(self, other):
        if isinstance(other, HyperbolicNumber):
            return HyperbolicNumber(
                self.x * other.x + self.y * other.y,
                self.x * other.y + self.y * other.x,
            )
        if isinstance(other, (int, float)):
            return HyperbolicNumber(self.x * other, self.y * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return HyperbolicNumber(self.x * other, self.y * other)
        return NotImplemented

    def conj(self) -> "HyperbolicNumber":
        return HyperbolicNumber(self.x, -self.y)

    def norm_sq(self) -> float:
        """Signed squared norm x^2 - y^2; callers needing a modulus must
        check positivity themselves."""
        return self.x * self.x - self.y * self.y

    def in_positive_cone(self, tol: float = 0.0) -> bool:
        return self.norm_sq() >= -tol


ZERO = HyperbolicNumber(0.0, 0.0)


def exp_j(theta: float) -> HyperbolicNumber:
    """cosh(theta) + j*sinh(theta), the unit-norm exponential."""
    if abs(theta) > MAX_RAPIDITY:
        raise RapidityOverflow(f"rapidity {theta!r} exceeds the double range")
    return HyperbolicNumber(math.cosh(theta), math.sinh(theta))


class HyperbolicPolar(NamedTuple):
    """sign * modulus * exp_j(theta); valid only on the open positive cone."""

    sign: int
    modulus: float
    theta: float

    def reconstruct(self) -> HyperbolicNumber:
        return (self.sign * self.modulus) * exp_j(self.theta)


def polar(z: HyperbolicNumber) -> HyperbolicPolar:
    """Polar decomposition of a number with strictly positive squared norm."""
    n = z.norm_sq()
    if n <= 0.0:
        raise NotInPositiveCone(
            f"squared norm {n!r} is not positive; no polar form exists"
        )
    modulus = math.sqrt(n)
    sign = 1 if z.x > 0 else -1
    theta = math.asinh(sign * z.y / modulus)
    return HyperbolicPolar(sign, modulus, theta)

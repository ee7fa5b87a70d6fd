"""Unit quaternion and sphere arithmetic.

Conventions
-----------
- Quaternions are written a + b*i + c*j + d*k and kept unit-norm
  (renormalized after every product).
- A ``Quaternion`` is a named 4-tuple (a, b, c, d) of Python floats, so it
  unpacks, packs and compares like a tuple.  ``*`` is the Hamilton product,
  renormalized by ``from_components``; ``qmul`` and ``qdistance`` are ``*``
  and ``distance`` over (..., 4) stacks, row by row bitwise.  The other
  tuple operators (``+``, ``k * q``, slicing) are not quaternion arithmetic.
- ``pow`` reads its angle theta = atan2(|v|, a) in [0, pi] straight from
  the components (v the pure part) and returns exp(k*theta, v/|v|); at
  +-1, where the axis is undefined, it takes the scalar power.
- Points of S^2 are pure unit quaternions, stored as length-3 numpy arrays.
- Rotations act on the *right* of their argument with the right-hand rule:
  ``rotate(u, angle, v)`` rotates u about the axis v.  Conjugation by
  exp(beta, v) therefore acts as the rotation by -2*beta about v.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

POLE_TOL = 1e-12
_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])  # _cross's cycles

__all__ = [
    "POLE_TOL",
    "Quaternion",
    "geodesic_distance",
    "rotate",
]


def geodesic_distance(u, v):
    """Length of the shortest great-circle arc between unit vectors.

    Computed as atan2(|u x v|, u.v), which stays accurate near 0 and pi
    where arccos of the dot product loses half the significant digits.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    cross = _cross(u, v)
    return np.arctan2(np.sqrt((cross * cross).sum(axis=-1)),
                      (u * v).sum(axis=-1))


def _cross(a, b):
    """a x b over the last axis as one indexed expression, component i =
    a[i+1] b[i+2] - a[i+2] b[i+1] (mod 3): np.cross's products and
    differences, so bitwise np.cross, signed zeros included, without its
    axis handling or a np.stack of the components, which cost more than
    the arithmetic on the small stacks used here."""
    return a[..., _NEXT] * b[..., _LAST] - a[..., _LAST] * b[..., _NEXT]


def rotate(u, angle, v):
    """Rodrigues rotation of u about the unit axis v (right-hand rule).

    Broadcasts over leading axes: u and v may be stacks of shape (..., 3),
    angle a scalar or matching stack.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    angle = np.asarray(angle, dtype=float)
    cos_a = np.cos(angle)[..., np.newaxis]
    sin_a = np.sin(angle)[..., np.newaxis]
    dot = (u * v).sum(axis=-1, keepdims=True)
    return u * cos_a + _cross(v, u) * sin_a + v * dot * (1.0 - cos_a)


class Quaternion(NamedTuple):
    """Element of SU(2) as a unit quaternion a + b*i + c*j + d*k.

    The product path builds instances with ``tuple.__new__``, skipping the
    extra Python frame of the generated constructor.
    """

    a: float
    b: float
    c: float
    d: float

    @staticmethod
    def one():
        return Quaternion(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def from_components(a, b, c, d):
        """(a, b, c, d) scaled to unit norm; ValueError on the zero tuple."""
        nrm = math.sqrt(a * a + b * b + c * c + d * d)
        if nrm == 0.0:
            raise ValueError("zero quaternion")
        return tuple.__new__(Quaternion,
                             (a / nrm, b / nrm, c / nrm, d / nrm))

    @staticmethod
    def exp(theta, axis):
        """cos(theta) + sin(theta) * axis for a unit axis in S^2."""
        x, y, z = np.asarray(axis, dtype=float).tolist()
        s = math.sin(theta)
        return Quaternion.from_components(math.cos(theta), s * x, s * y, s * z)

    def __mul__(self, other):
        """Hamilton product self*other, renormalized."""
        a1, b1, c1, d1 = self
        a2, b2, c2, d2 = other
        return Quaternion.from_components(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def __neg__(self):
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def inverse(self):
        # unit quaternion: inverse = conjugate
        a, b, c, d = self
        return tuple.__new__(Quaternion, (a, -b, -c, -d))

    def pow(self, k):
        """Integer power exp(k*theta, v/|v|), theta = atan2(|v|, a) for the
        pure part v; q^0 = 1, and q = +-1 (|v| < POLE_TOL) by scalar power.
        |v| is sqrt(v.v), which is what np.linalg.norm computes for a 1-D
        float array, without its wrapper."""
        if not isinstance(k, (int, np.integer)):
            raise TypeError("only integer exponents are supported")
        if k == 0:
            return Quaternion.one()
        v = np.array(self[1:])
        s = math.sqrt(v.dot(v))
        if s < POLE_TOL:
            # q is +-1 up to rounding
            if self.a > 0 or k % 2 == 0:
                return Quaternion.one()
            return Quaternion(-1.0, 0.0, 0.0, 0.0)
        return Quaternion.exp(k * math.atan2(s, self.a), v / s)


def distance(p, q):
    """Euclidean distance between two quaternions as points of S^3."""
    da, db, dc, dd = p.a - q.a, p.b - q.b, p.c - q.c, p.d - q.d
    return math.sqrt(da * da + db * db + dc * dc + dd * dd)


def qmul(p, q):
    """Hamilton product p*q of (..., 4) stacks, broadcast over the leading
    axes: ``Quaternion.__mul__`` row by row, bitwise.  Either factor may be
    a Quaternion, and two give their product.  ValueError on a zero row."""
    if isinstance(p, Quaternion) and isinstance(q, Quaternion):
        return p * q
    a1, b1, c1, d1 = np.moveaxis(np.asarray(p, dtype=float), -1, 0)
    a2, b2, c2, d2 = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    a = a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2
    b = a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2
    c = a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2
    d = a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2
    nrm = np.sqrt(a * a + b * b + c * c + d * d)
    if (nrm == 0.0).any():
        raise ValueError("zero quaternion")
    return np.stack([a / nrm, b / nrm, c / nrm, d / nrm], axis=-1)


def qdistance(p, q):
    """``distance`` over (..., 4) stacks, row by row bitwise."""
    a, b, c, d = np.moveaxis(np.subtract(p, q, dtype=float), -1, 0)
    return np.sqrt(a * a + b * b + c * c + d * d)

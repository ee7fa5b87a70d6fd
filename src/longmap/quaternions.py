"""Unit quaternion and sphere arithmetic.

Conventions
-----------
- Quaternions are written a + b*i + c*j + d*k and kept unit-norm
  (renormalized after every product).
- ``Quaternion``, ``distance`` and ``POLE_TOL`` live in ``longmap.scalar``,
  which imports no numpy, and are re-exported here: the same objects under
  either path.  ``qmul`` and ``qdistance`` are ``Quaternion``'s ``*`` and
  ``distance`` over (..., 4) stacks, row by row bitwise.
- Points of S^2 are pure unit quaternions, stored as length-3 numpy arrays.
- Rotations act on the *right* of their argument with the right-hand rule:
  ``rotate(u, angle, v)`` rotates u about the axis v.  Conjugation by
  exp(beta, v) therefore acts as the rotation by -2*beta about v.
"""

from __future__ import annotations

import numpy as np

from .scalar import POLE_TOL, Quaternion, distance

_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])  # _cross's cycles

__all__ = [
    "POLE_TOL",
    "Quaternion",
    "distance",
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

"""Quandle instances used for tangle colorings.

Five concrete quandles, each defining op, op_inv, validate, sample and
distance (the base class adds only ``op_signed`` and the element check):

- ``SphereQuandle(psi)``       : S^2 with u*v = rotate(u, psi, v)
- ``ConjClassQuandle(theta)``  : the SU(2) conjugacy class {exp(theta, u)}
  under a*b = b^-1 a b
- ``DihedralQuandle(m)``       : residues mod m with i*j = 2j - i
- ``GAlexQuandle(x)``          : all of SU(2) with g*h = f(g h^-1) h where
  f(g) = x^-1 g x (SU(2) is perfect, so the carrier is the whole group)
- ``EisQuandle(x)``            : pairs (a, g) with a = g^-1 x g

Elements are plain payloads (numpy unit vectors, Quaternions, ints, or
(Quaternion, Quaternion) pairs); each quandle validates its own payloads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, MixedQuandleError
from .quaternions import Quaternion, distance, geodesic_distance, rotate

__all__ = [
    "SphereQuandle",
    "ConjClassQuandle",
    "DihedralQuandle",
    "GAlexQuandle",
    "EisQuandle",
    "iso_sphere_to_conj",
    "eis_to_galex",
    "axiom_check",
]

ELEMENT_TOL = 1e-9
AXIOM_SAMPLES = 500  # random triples per axiom_check


# Both draws divide by math.sqrt(v.dot(v)), which is what np.linalg.norm
# computes for a 1-D array, so the points are bitwise its quotient.
def random_unit_quaternion(rng):
    v = rng.normal(size=4)
    return Quaternion(*(v / math.sqrt(v.dot(v))).tolist())


def random_sphere_point(rng):
    v = rng.normal(size=3)
    return v / math.sqrt(v.dot(v))


class Quandle:
    """Helpers built on a subclass's op, op_inv and validate."""

    def op_signed(self, a, b, sign):
        """op for sign +1, op_inv for sign -1."""
        return self.op(a, b) if sign > 0 else self.op_inv(a, b)

    def _check(self, *elems):
        for e in elems:
            if not self.validate(e):
                raise MixedQuandleError(
                    f"{e!r} is not an element of {self!r}"
                )


@dataclass(frozen=True)
class SphereQuandle(Quandle):
    """S^2 with u*v = rotation of u about v by psi (right-hand rule)."""

    psi: float

    def __post_init__(self):
        if not 0.0 < self.psi < 2.0 * math.pi:
            raise BadParameter(f"psi must lie in (0, 2*pi), not {self.psi}")

    def op(self, a, b):
        return rotate(a, self.psi, b)

    def op_inv(self, a, b):
        return rotate(a, -self.psi, b)

    def validate(self, a):
        a = np.asarray(a)
        return a.shape == (3,) and abs(np.linalg.norm(a) - 1.0) <= ELEMENT_TOL

    def sample(self, rng):
        return random_sphere_point(rng)

    def distance(self, a, b):
        return geodesic_distance(a, b)


@dataclass(frozen=True)
class ConjClassQuandle(Quandle):
    """The conjugacy class {exp(theta, u) : u in S^2} under a*b = b^-1 a b."""

    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta < math.pi:
            raise BadParameter("theta must lie in (0, pi)")

    def op(self, a, b):
        self._check(a, b)
        return b.inverse() * a * b

    def op_inv(self, a, b):
        self._check(a, b)
        return b * a * b.inverse()

    def validate(self, a):
        if not isinstance(a, Quaternion):
            return False
        w, x, y, z = a
        return (
            abs(a.norm - 1.0) <= ELEMENT_TOL
            and abs(math.atan2(math.sqrt(x * x + y * y + z * z), w)
                    - self.theta) <= ELEMENT_TOL
        )

    def sample(self, rng):
        return Quaternion.exp(self.theta, random_sphere_point(rng))

    def distance(self, a, b):
        return distance(a, b)


@dataclass(frozen=True)
class DihedralQuandle(Quandle):
    """Residues mod m with i*j = 2j - i; self-inverse."""

    m: int

    def __post_init__(self):
        if self.m < 3:
            raise BadParameter("m must be at least 3")

    def op(self, a, b):
        self._check(a, b)
        return (2 * b - a) % self.m

    def op_inv(self, a, b):
        return self.op(a, b)

    def validate(self, a):
        return isinstance(a, (int, np.integer)) and 0 <= a < self.m

    def sample(self, rng):
        return int(rng.integers(self.m))

    def distance(self, a, b):
        return 0.0 if a == b else 1.0

    def elements(self):
        return range(self.m)


@dataclass(frozen=True)
class GAlexQuandle(Quandle):
    """SU(2) with g*h = f(g h^-1) h, f = conjugation by the basepoint x."""

    x: Quaternion

    def _f(self, g):
        return self.x.inverse() * g * self.x

    def _f_inv(self, g):
        return self.x * g * self.x.inverse()

    def op(self, a, b):
        self._check(a, b)
        return self._f(a * b.inverse()) * b

    def op_inv(self, a, b):
        self._check(a, b)
        return self._f_inv(a * b.inverse()) * b

    def validate(self, a):
        return isinstance(a, Quaternion) and abs(a.norm - 1.0) <= ELEMENT_TOL

    def sample(self, rng):
        return random_unit_quaternion(rng)

    def distance(self, a, b):
        return distance(a, b)


@dataclass(frozen=True)
class EisQuandle(Quandle):
    """Pairs (a, g) with a = g^-1 x g:

    (a, g) * (b, h)  = (b^-1 a b, x^-1 g b)
    (a, g) *~ (b, h) = (b a b^-1, x g b^-1)
    """

    x: Quaternion

    def op(self, a, b):
        self._check(a, b)
        (pa, ga), (pb, _gb) = a, b
        return (pb.inverse() * pa * pb, self.x.inverse() * ga * pb)

    def op_inv(self, a, b):
        self._check(a, b)
        (pa, ga), (pb, _gb) = a, b
        return (pb * pa * pb.inverse(), self.x * ga * pb.inverse())

    def validate(self, a):
        if not (isinstance(a, tuple) and len(a) == 2):
            return False
        pa, ga = a
        if not (isinstance(pa, Quaternion) and isinstance(ga, Quaternion)):
            return False
        return distance(pa, ga.inverse() * self.x * ga) <= 1e-8

    def sample(self, rng):
        g = random_unit_quaternion(rng)
        return (g.inverse() * self.x * g, g)

    def distance(self, a, b):
        return np.maximum(distance(a[0], b[0]), distance(a[1], b[1]))


def iso_sphere_to_conj(u, theta):
    """u -> exp(theta, u): S^2_(2*pi - 2*theta) -> conjugacy class of theta."""
    return _iso_sphere_to_conj_rows([u], theta)[0]


def _iso_sphere_to_conj_rows(points, theta):
    """``iso_sphere_to_conj`` over an (m, 3) stack of nonzero vectors, in
    one numpy pass: a list of m ``Quaternion``s.

    Each row sum adds its components left to right, the order of the
    plain-float sqrt(x*x + y*y + z*z) and of ``Quaternion.from_components``,
    so a row is bitwise the plain-float value.
    """
    if not 0.0 < theta < math.pi:
        raise BadParameter("theta must lie in (0, pi)")
    p = np.asarray(points, dtype=float)
    nrm = np.sqrt((p * p).sum(axis=1, keepdims=True))
    if (nrm == 0.0).any():
        raise ValueError("cannot normalize a zero vector")
    q = np.empty((len(p), 4))
    q[:, 0] = math.cos(theta)
    q[:, 1:] = math.sin(theta) * (p / nrm)
    rows = (q / np.sqrt((q * q).sum(axis=1, keepdims=True))).tolist()
    return [tuple.__new__(Quaternion, r) for r in rows]


def eis_to_galex(elem):
    """Project (a, g) to its second coordinate; a quandle isomorphism."""
    return elem[1]


def axiom_check(q, rng=None):
    """Max violation of the quandle axioms over AXIOM_SAMPLES random
    (exhaustive for small dihedral) triples: idempotence a*a = a, right
    self-distributivity (a*b)*c = (a*c)*(b*c), and op/op_inv
    cancellation.

    Samples are drawn one element at a time, a, b, c per triple.  Sphere
    triples then run stacked, as three (AXIOM_SAMPLES, 3) arrays through
    the one loop body, since the sphere op and distance broadcast.  A NaN
    violation is returned as NaN.
    """
    if isinstance(q, DihedralQuandle) and q.m <= 13:
        triples = itertools.product(q.elements(), repeat=3)
    else:
        rng = np.random.default_rng(0) if rng is None else rng
        triples = [(q.sample(rng), q.sample(rng), q.sample(rng))
                   for _ in range(AXIOM_SAMPLES)]
        if isinstance(q, SphereQuandle):
            triples = [tuple(map(np.array, zip(*triples)))]

    violations = []
    for a, b, c in triples:
        ab = q.op(a, b)
        violations += [
            q.distance(q.op(a, a), a),
            q.distance(q.op(ab, c), q.op(q.op(a, c), q.op(b, c))),
            q.distance(q.op_inv(ab, b), a),
            q.distance(q.op(q.op_inv(a, b), b), a),
        ]
    return float(np.max(violations, initial=0.0))

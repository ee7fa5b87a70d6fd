"""Quandle instances used for tangle colorings.

Five concrete quandles, each defining op_signed(a, b, sign), which is a*b
for sign 1 and its inverse for sign -1, validate, sample and distance (the
base class adds ``op`` and ``op_inv``, the two signs, ``stack`` and a check):

- ``SphereQuandle(psi)``       : S^2 with u*v = rotate(u, psi, v)
- ``ConjClassQuandle(theta)``  : the SU(2) conjugacy class {exp(theta, u)}
  under a*b = b^-1 a b
- ``DihedralQuandle(m)``       : residues mod m with i*j = 2j - i
- ``GAlexQuandle(x)``          : all of SU(2) with g*h = f(g h^-1) h where
  f(g) = x^-1 g x (SU(2) is perfect, so the carrier is the whole group)
- ``EisQuandle(x)``            : pairs (a, g) with a = g^-1 x g

Elements are plain payloads (numpy unit vectors, Quaternions or float rows
(a, b, c, d), ints, or (Quaternion, Quaternion) pairs); each quandle
validates its own payloads.  Elements may also be stacks, as ``stack``
builds them, such as a conjugation coloring's (arcs, 4) float array: then
op_signed, with sign +-1 or an array of signs that broadcasts over the
rows, and distance run once on all rows (quaternions through ``qmul``,
bitwise ``*`` per row), validate returns a bool per row, and one foreign
row is a MixedQuandleError.  A single Quaternion in gives a Quaternion out.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, MixedQuandleError
from .quaternions import Quaternion, geodesic_distance, qdistance, qmul, rotate
from .tangles import check_psi

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


def _is_quaternion(a):
    """Whether a payload is a Quaternion or an (..., 4) float stack."""
    return isinstance(a, Quaternion) or (
        isinstance(a, np.ndarray) and a.dtype == float and a.ndim > 0
        and a.shape[-1] == 4)


def _pow(q, sign):
    """q^sign for sign +-1 or an array of signs over the rows of q: the
    conjugate where sign is -1, bitwise ``Quaternion.inverse``."""
    if isinstance(q, Quaternion) and np.ndim(sign) == 0:
        return q if sign > 0 else q.inverse()
    s = np.asarray(sign, dtype=float)
    return np.asarray(q) * np.stack([np.ones_like(s), s, s, s], axis=-1)


def _mul(*factors):
    """The product of quaternions or stacks, left to right: a Quaternion
    when every factor is one, else an (..., 4) array."""
    return functools.reduce(qmul, factors)


class Quandle:
    """Helpers built on a subclass's op_signed and validate."""

    def op(self, a, b):
        return self.op_signed(a, b, 1)

    def op_inv(self, a, b):
        return self.op_signed(a, b, -1)

    def stack(self, elements):
        """The elements as one stacked element, a row each."""
        return np.asarray(elements)

    def _check(self, *elems):
        for e in elems:
            if not np.all(self.validate(e)):
                raise MixedQuandleError(f"{e!r} is not an element of {self!r}")


@dataclass(frozen=True)
class SphereQuandle(Quandle):
    """S^2 with u*v = rotation of u about v by psi (right-hand rule)."""

    psi: float

    def __post_init__(self):
        check_psi(self.psi)

    def op_signed(self, a, b, sign):
        return rotate(a, self.psi * sign, b)

    def validate(self, a):
        a = np.asarray(a)
        return a.shape[-1:] == (3,) and (
            abs(np.linalg.norm(a, axis=-1) - 1.0) <= ELEMENT_TOL)

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

    def op_signed(self, a, b, sign):
        self._check(a, b)
        b = _pow(b, sign)
        return _mul(_pow(b, -1), a, b)

    def validate(self, a):
        if not _is_quaternion(a):
            return False
        w, x, y, z = a if isinstance(a, Quaternion) else np.moveaxis(a, -1, 0)
        return (
            (abs(np.sqrt(w * w + x * x + y * y + z * z) - 1.0) <= ELEMENT_TOL)
            & (abs(np.arctan2(np.sqrt(x * x + y * y + z * z), w)
                   - self.theta) <= ELEMENT_TOL)
        )

    def sample(self, rng):
        return Quaternion.exp(self.theta, random_sphere_point(rng))

    def distance(self, a, b):
        return qdistance(a, b)


@dataclass(frozen=True)
class DihedralQuandle(Quandle):
    """Residues mod m with i*j = 2j - i; self-inverse."""

    m: int

    def __post_init__(self):
        if self.m < 3:
            raise BadParameter("m must be at least 3")

    def op_signed(self, a, b, sign):
        self._check(a, b)
        return (2 * b - a) % self.m  # the same for either sign

    def validate(self, a):
        a = np.asarray(a)
        return a.dtype.kind in "iu" and (0 <= a) & (a < self.m)

    def sample(self, rng):
        return int(rng.integers(self.m))

    def distance(self, a, b):
        return (a != b) * 1.0


@dataclass(frozen=True)
class GAlexQuandle(Quandle):
    """SU(2) with g*h = f(g h^-1) h, f = conjugation by the basepoint x."""

    x: Quaternion

    def op_signed(self, a, b, sign):
        self._check(a, b)
        x = _pow(self.x, sign)
        return _mul(_pow(x, -1), qmul(a, _pow(b, -1)), x, b)

    def validate(self, a):
        if not _is_quaternion(a):
            return False
        w, x, y, z = a if isinstance(a, Quaternion) else np.moveaxis(a, -1, 0)
        return abs(np.sqrt(w * w + x * x + y * y + z * z) - 1.0) <= ELEMENT_TOL

    def sample(self, rng):
        return random_unit_quaternion(rng)

    def distance(self, a, b):
        return qdistance(a, b)


@dataclass(frozen=True)
class EisQuandle(Quandle):
    """Pairs (a, g) with a = g^-1 x g:

    (a, g) * (b, h)  = (b^-1 a b, x^-1 g b)
    (a, g) *~ (b, h) = (b a b^-1, x g b^-1)
    """

    x: Quaternion

    def op_signed(self, a, b, sign):
        self._check(a, b)
        (pa, ga), (pb, _gb) = a, b
        pb, x = _pow(pb, sign), _pow(self.x, sign)
        return (_mul(_pow(pb, -1), pa, pb), _mul(_pow(x, -1), ga, pb))

    def validate(self, a):
        if not (isinstance(a, tuple) and len(a) == 2):
            return False
        pa, ga = a
        if not (_is_quaternion(pa) and _is_quaternion(ga)
                and np.shape(pa) == np.shape(ga)):
            return False
        return qdistance(pa, _mul(_pow(ga, -1), self.x, ga)) <= 1e-8

    def sample(self, rng):
        g = random_unit_quaternion(rng)
        return (g.inverse() * self.x * g, g)

    def stack(self, elements):
        """The pairs as one pair of stacks."""
        return tuple(map(np.array, zip(*elements)))

    def distance(self, a, b):
        return np.maximum(qdistance(a[0], b[0]), qdistance(a[1], b[1]))


def iso_sphere_to_conj(points, theta):
    """u -> exp(theta, u), S^2_(2*pi - 2*theta) -> conjugacy class of theta,
    over an (m, 3) stack of nonzero vectors u in one numpy pass: an (m, 4)
    float array, a row (a, b, c, d) per vector.

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
    return q / np.sqrt((q * q).sum(axis=1, keepdims=True))


def eis_to_galex(elem):
    """Project (a, g) to its second coordinate; a quandle isomorphism."""
    return elem[1]


def axiom_check(q, rng=None):
    """Max violation of the quandle axioms over AXIOM_SAMPLES random
    (exhaustive for small dihedral) triples: idempotence a*a = a, right
    self-distributivity (a*b)*c = (a*c)*(b*c), and op/op_inv
    cancellation.

    Samples are drawn one element at a time, a, b, c per triple, and then
    stacked, so that each axiom is one pass of op and distance over all
    the triples.  A NaN violation is returned as NaN.
    """
    if isinstance(q, DihedralQuandle) and q.m <= 13:
        triples = itertools.product(range(q.m), repeat=3)
    else:
        rng = np.random.default_rng(0) if rng is None else rng
        triples = [(q.sample(rng), q.sample(rng), q.sample(rng))
                   for _ in range(AXIOM_SAMPLES)]
    a, b, c = map(q.stack, zip(*triples))
    ab = q.op(a, b)
    return float(np.max([
        q.distance(q.op(a, a), a),
        q.distance(q.op(ab, c), q.op(q.op(a, c), q.op(b, c))),
        q.distance(q.op_inv(ab, b), a),
        q.distance(q.op(q.op_inv(a, b), b), a),
    ]))

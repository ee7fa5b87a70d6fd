"""The scalar layer: unit quaternions and the closed forms, in plain floats.

This module imports no numpy, and must not: ``longmap sweep`` imports it
and nothing else that computes, so a sweep's fresh interpreter never loads
numpy (70-100 ms of a fresh interpreter's start on a shared 2-CPU machine,
Python 3.11, numpy 2.4) and its figure data is the closed forms below in
``math`` on Python floats.  ``tests/test_lint.py`` checks that no
module-level numpy import creeps in; ``Quaternion.pow`` imports numpy when
it is called, and ``sweep`` never calls it.

- ``Quaternion``: a named 4-tuple (a, b, c, d) of Python floats, so it
  unpacks, packs and compares like a tuple.  ``*`` is the Hamilton product,
  renormalized by ``from_components``; the other tuple operators (``+``,
  ``k * q``, slicing) are not quaternion arithmetic.  ``pow`` reads its
  angle theta = atan2(|v|, a) in [0, pi] straight from the components (v
  the pure part) and returns exp(k*theta, v/|v|); at +-1, where the axis is
  undefined, it takes the scalar power.  ``quaternions`` adds the stacked
  (numpy) kernels.
- The seed angles of the closed-form colorings, ``star_beta`` (T(2, n)) and
  ``fig8_betas``, with the windows they answer on; ``colorings`` builds the
  colorings from them.
- The closed-form longitudes ``t2n_closed_form`` and ``fig8_closed_form``
  and the ``LongitudeValue`` they return.
- ``linspace``, the theta grid of ``sweep``, bitwise ``numpy.linspace``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import BadParameter, NotInLambda, OutOfInterval
from .tangles import _index, torus_interval

POLE_TOL = 1e-12
SPREAD_TOL = 1e-6       # a seed angle at most this is the trivial coloring
LAMBDA_TOL = 1e-9

FIG8_PSI_LO = 2.0 * math.pi / 3.0
FIG8_PSI_HI = 4.0 * math.pi / 3.0

# sign of the closed-form imaginary part matched to the figure-eight seed
# branches, established numerically at theta = 0.45*pi
FIG8_BRANCH_SIGN = {1: -1.0, 2: 1.0}

# the basepoint axis i, ``colorings.BASEPOINT`` as a tuple of floats
_BASEPOINT = (1.0, 0.0, 0.0)

__all__ = [
    "POLE_TOL",
    "SPREAD_TOL",
    "LAMBDA_TOL",
    "FIG8_PSI_LO",
    "FIG8_PSI_HI",
    "FIG8_BRANCH_SIGN",
    "Quaternion",
    "distance",
    "star_beta",
    "fig8_betas",
    "wrap_angle",
    "LongitudeValue",
    "t2n_closed_form",
    "fig8_closed_form",
    "linspace",
]


# ---------------------------------------------------------------------------
# unit quaternions


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
        """cos(theta) + sin(theta) * axis for a unit axis in S^2, three
        floats or a numpy array, which is read through ``tolist`` so that
        the components are Python floats."""
        x, y, z = axis.tolist() if hasattr(axis, "tolist") else axis
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
        |v| is sqrt(v.v) of a numpy array, which is what np.linalg.norm
        computes for a 1-D float array, without its wrapper; a plain-float
        sum of squares rounds differently."""
        import numpy as np  # the one numpy use here; sweep never calls pow

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


# ---------------------------------------------------------------------------
# seed angles of the closed-form colorings


def _star_latitude(n, h, psi):
    """Height r and radius s = sqrt(1 - r^2) of the circle of latitude that
    carries the step-h spherical star n-gon with vertex angle psi, the half
    step angle a = pi*h/n and the seed angle beta between two vertices a
    step h apart.

    Napier's rule on the right triangle formed by the pole, a vertex and the
    midpoint of a step-h side gives r = cot(a) * cot(theta) with
    theta = pi - psi/2, so |r| < 1 exactly on the open psi-window.  Near a
    window end the polygon shrinks to a point and its vertices move by
    orders of magnitude more than r, so r is evaluated as
    -cot(a) * cot(psi/2), which never forms the rounded pi - psi/2, with
    cot(a) taken from a tangent argument in (0, pi/4].

    The solver's rule for the trivial coloring applies: a beta at most
    SPREAD_TOL, as where |r| rounds to 1 or more and s clamps to 0, raises
    OutOfInterval.
    """
    lo, hi = torus_interval(n, h)
    if not lo < psi < hi:
        raise OutOfInterval(
            f"psi={psi:.6f} outside ({lo:.6f}, {hi:.6f}) for n={n}, h={h}"
        )
    a = math.pi * h / n
    if 4 * h <= n:
        cot_a = 1.0 / math.tan(a)
    else:
        cot_a = math.tan(math.pi * (n - 2 * h) / (2 * n))
    half = 0.5 * psi
    r = -cot_a * math.cos(half) / math.sin(half)
    s = math.sqrt(max(0.0, (1.0 - r) * (1.0 + r)))
    beta = 2.0 * math.atan2(s * math.sin(a), math.hypot(r, s * math.cos(a)))
    if beta <= SPREAD_TOL:  # psi within rounding of a window end
        raise OutOfInterval(f"psi={psi!r} rounds onto a window end")
    return r, s, a, beta


def star_beta(n, h, psi):
    """Seed angle of ``star_polygon(n, h, psi)``: the geodesic distance
    between its two bridge colors, two vertices a step h apart."""
    return _star_latitude(n, h, psi)[3]


def fig8_betas(psi):
    """The two half-equator seed angles of the figure-eight coloring family.

    Defined for 2*pi/3 <= psi <= 4*pi/3; both branches coincide at
    arccos(-1/3) at the endpoints.
    """
    if not FIG8_PSI_LO - 1e-12 <= psi <= FIG8_PSI_HI + 1e-12:
        raise OutOfInterval(
            f"psi={psi:.6f} outside [{FIG8_PSI_LO:.6f}, {FIG8_PSI_HI:.6f}]"
        )
    c = math.cos(psi)
    root = math.sqrt(max(4.0 * c * c - 4.0 * c - 3.0, 0.0))
    denom = 2.0 * (c - 1.0)
    beta1 = math.pi - math.acos(min(1.0, max(-1.0, (-1.0 + root) / denom)))
    beta2 = math.acos(min(1.0, max(-1.0, (1.0 + root) / denom)))
    return (beta1, beta2)


def _fig8_branch(branch):
    """``branch`` as the int 1 or 2, or a BadParameter."""
    branch = _index(branch, "branch")
    if branch not in (1, 2):
        raise BadParameter("branch must be 1 or 2")
    return branch


# ---------------------------------------------------------------------------
# closed-form longitudes


def wrap_angle(phi):
    """Reduce an angle to (-pi, pi]."""
    phi = math.fmod(phi, 2.0 * math.pi)
    if phi > math.pi:
        phi -= 2.0 * math.pi
    elif phi <= -math.pi:
        phi += 2.0 * math.pi
    return phi


@dataclass(frozen=True)
class LongitudeValue:
    """Element of the longitudinal circle group, with q = exp(phi, i)."""

    q: Quaternion
    phi: float

    @staticmethod
    def from_quaternion(q, basepoint):
        """Wrap a quaternion, checking that it commutes with the basepoint
        and lies on exp(phi, i), each within LAMBDA_TOL."""
        # written as `not <=` so that a NaN distance fails
        if not distance(q * basepoint, basepoint * q) <= LAMBDA_TOL:
            raise NotInLambda(
                "longitude value does not commute with the basepoint"
            )
        phi = math.atan2(q.b, q.a)
        if distance(Quaternion.exp(phi, _BASEPOINT), q) > LAMBDA_TOL:
            raise NotInLambda(
                "longitude value does not lie on the circle about i"
            )
        return LongitudeValue(q=q, phi=phi)


def t2n_closed_form(n, theta, mirror=False):
    """Closed-form longitude of the (2, n) torus knot at basepoint angle
    theta: exp(pi - 2n*theta, i), independent of the particular coloring;
    the mirror knot takes the inverse value.  At theta = pi - psi/2 it
    answers exactly where ``star_beta`` answers at the widest step (n - 1)/2
    and raises its OutOfInterval elsewhere."""
    star_beta(n, (n - 1) // 2, 2.0 * math.pi - 2.0 * theta)
    phi = wrap_angle(math.pi - 2 * n * theta)
    if mirror:
        phi = wrap_angle(-phi)
    return LongitudeValue(q=Quaternion.exp(phi, _BASEPOINT), phi=phi)


def fig8_closed_form(theta, branch):
    """Closed-form longitude of the figure-eight knot:

        (cos 4t - cos 2t - 1) +- sqrt(-1 + 2 cos 4t - 4 cos 2t) sin(2t) i

    at theta = pi - psi/2 exactly where ``fig8_betas(psi)`` answers, theta in
    [pi/3, 2pi/3], and its OutOfInterval elsewhere; the sign follows the
    seed branch.
    """
    branch = _fig8_branch(branch)
    fig8_betas(2.0 * math.pi - 2.0 * theta)  # OutOfInterval off the window
    disc = -1.0 + 2.0 * math.cos(4.0 * theta) - 4.0 * math.cos(2.0 * theta)
    if disc < 1e-12:
        # the discriminant (2c - 3)(2c + 1), c = cos 2theta, vanishes at
        # theta = pi/3, 2pi/3 (about -7e-12 within fig8_betas' slack) and
        # rounding noise under the square root would fake an imaginary part
        # ~1e-8; it grows away from the endpoints fast enough that this
        # clamp only touches a ~1e-13 neighborhood
        disc = 0.0
    re = math.cos(4.0 * theta) - math.cos(2.0 * theta) - 1.0
    im = FIG8_BRANCH_SIGN[branch] * math.sqrt(disc) * math.sin(2.0 * theta)
    q = Quaternion.from_components(re, im, 0.0, 0.0)
    return LongitudeValue(q=q, phi=math.atan2(im, re))


# ---------------------------------------------------------------------------
# the theta grid


def linspace(lo, hi, steps):
    """``numpy.linspace(lo, hi, steps)`` for floats lo < hi with a finite
    difference and steps >= 2, bitwise, yielded a value at a time: value i
    is i * step + lo with step = (hi - lo) / (steps - 1), or, where step
    underflows to 0, numpy's i / (steps - 1) * (hi - lo) + lo; the last
    value is hi itself."""
    div = steps - 1
    delta = hi - lo
    step = delta / div
    if step == 0:
        yield from (i / div * delta + lo for i in range(div))
    else:
        yield from (i * step + lo for i in range(div))
    yield hi

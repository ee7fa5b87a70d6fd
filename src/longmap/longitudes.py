"""Evaluation of the longitudinal mapping.

Given a coloring of a 1-tangle by the conjugacy-class quandle of
x = exp(theta, i), the longitude word

    l = x_0^(-writhe) * x_(kappa 1)^(eps 1) * ... * x_(kappa n)^(eps n)

evaluates to an element of the circle subgroup {exp(phi, i)} about the
basepoint axis.  Spherical colorings are converted first via
u -> exp(theta, u) with theta = pi - psi/2.

Two independent evaluation routes are provided: direct word evaluation and
the generalized-Alexander lift recurrence; they must agree on every valid
coloring.  Both read the rows of ``to_conj_coloring``'s (arcs, 4) array once
as floats; then each multiplies in its own loop with the arithmetic and
renormalization of ``Quaternion.__mul__``, and builds one ``Quaternion`` at
the end.  Closed forms for the (2, n) torus knots, their mirrors, and the
figure-eight knot are the third route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .colorings import (BASEPOINT, FIG8_PSI_HI, FIG8_PSI_LO, Coloring,
                        _check_arity)
from .errors import BadParameter, NotInLambda, NotMinusOne, OutOfInterval
from .quandles import ConjClassQuandle, SphereQuandle, iso_sphere_to_conj
from .quaternions import Quaternion, distance
from .tangles import longitude_word, torus_theta_interval

LAMBDA_TOL = 1e-9

# sign of the closed-form imaginary part matched to the figure-eight seed
# branches, established numerically at theta = 0.45*pi
FIG8_BRANCH_SIGN = {1: -1.0, 2: 1.0}

__all__ = [
    "LAMBDA_TOL",
    "LongitudeValue",
    "to_conj_coloring",
    "eval_word",
    "galex_lift",
    "t2n_closed_form",
    "fig8_closed_form",
    "qn_check",
    "wrap_angle",
]


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
        if distance(Quaternion.exp(phi, BASEPOINT), q) > LAMBDA_TOL:
            raise NotInLambda(
                "longitude value does not lie on the circle about i"
            )
        return LongitudeValue(q=q, phi=phi)


def to_conj_coloring(coloring):
    """A spherical coloring in conjugation coordinates, an (arcs, 4) array."""
    q = coloring.quandle
    if isinstance(q, ConjClassQuandle):
        return coloring
    if not isinstance(q, SphereQuandle):
        raise BadParameter(
            "longitudes are defined for sphere or conjugation colorings"
        )
    theta = math.pi - q.psi / 2.0
    return Coloring(ConjClassQuandle(theta),
                    iso_sphere_to_conj(coloring.colors, theta))


def eval_word(diagram, coloring):
    """Evaluate the longitude word on a coloring.

    Accepts sphere or conjugation colorings; returns a LongitudeValue
    checked for membership in the circle group about the basepoint.
    """
    _check_arity(diagram, coloring)
    cols = np.asarray(to_conj_coloring(coloring).colors, dtype=float).tolist()
    word = longitude_word(diagram.code)
    x0 = Quaternion._make(cols[0])
    # the left fold value * x_arc^e; each product is Quaternion.__mul__'s
    # arithmetic on floats, in its order, so the value is bitwise its fold
    a1, b1, c1, d1 = x0.pow(word.lead_exponent)
    for arc, e in word.factors:
        a2, b2, c2, d2 = cols[arc]
        if e < 0:
            b2, c2, d2 = -b2, -c2, -d2
        a = a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2
        b = a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2
        c = a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2
        d = a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2
        nrm = math.sqrt(a * a + b * b + c * c + d * d)
        if nrm == 0.0:
            raise ValueError("zero quaternion")
        a1, b1, c1, d1 = a / nrm, b / nrm, c / nrm, d / nrm
    value = Quaternion._make((a1, b1, c1, d1))
    return LongitudeValue.from_quaternion(value, basepoint=x0)


def galex_lift(diagram, coloring):
    """Longitude via the generalized-Alexander lift recurrence.

    Starting from g_0 = 1, each crossing updates
    g_i = x^(-eps i) * g_(i-1) * u_(kappa i)^(eps i); the final g_n is the
    longitude value, both products renormalized at every crossing.
    Independent of ``eval_word``: the routes share only the (arcs, 4) array
    of ``to_conj_coloring``, whose rows each reads once as floats, and each
    writes out ``Quaternion.__mul__``'s arithmetic in its own loop.
    """
    _check_arity(diagram, coloring)
    cols = np.asarray(to_conj_coloring(coloring).colors, dtype=float).tolist()
    xa, xb, xc, xd = cols[0]
    ga, gb, gc, gd = Quaternion.one()
    for arc, e in longitude_word(diagram.code).factors:
        ua, ub, uc, ud = cols[arc]
        if e > 0:
            la, lb, lc, ld = xa, -xb, -xc, -xd
        else:
            la, lb, lc, ld = xa, xb, xc, xd
            ub, uc, ud = -ub, -uc, -ud
        # p = x^(-e) * g, renormalized
        a = la * ga - lb * gb - lc * gc - ld * gd
        b = la * gb + lb * ga + lc * gd - ld * gc
        c = la * gc - lb * gd + lc * ga + ld * gb
        d = la * gd + lb * gc - lc * gb + ld * ga
        nrm = math.sqrt(a * a + b * b + c * c + d * d)
        if nrm == 0.0:
            raise ValueError("zero quaternion")
        pa, pb, pc, pd = a / nrm, b / nrm, c / nrm, d / nrm
        # g = p * u^e, renormalized
        a = pa * ua - pb * ub - pc * uc - pd * ud
        b = pa * ub + pb * ua + pc * ud - pd * uc
        c = pa * uc - pb * ud + pc * ua + pd * ub
        d = pa * ud + pb * uc - pc * ub + pd * ua
        nrm = math.sqrt(a * a + b * b + c * c + d * d)
        if nrm == 0.0:
            raise ValueError("zero quaternion")
        ga, gb, gc, gd = a / nrm, b / nrm, c / nrm, d / nrm
    return Quaternion._make((ga, gb, gc, gd))


def t2n_closed_form(n, theta, mirror=False):
    """Closed-form longitude of the (2, n) torus knot at basepoint angle
    theta: exp(pi - 2n*theta, i), independent of the particular coloring;
    the mirror knot takes the inverse value."""
    lo, hi = torus_theta_interval(n, (n - 1) // 2)
    if not lo < theta < hi:
        raise OutOfInterval(
            f"theta={theta:.6f} admits no coloring of T(2,{n})"
        )
    phi = wrap_angle(math.pi - 2 * n * theta)
    if mirror:
        phi = wrap_angle(-phi)
    return LongitudeValue(q=Quaternion.exp(phi, BASEPOINT), phi=phi)


def fig8_closed_form(theta, branch):
    """Closed-form longitude of the figure-eight knot:

        (cos 4t - cos 2t - 1) +- sqrt(-1 + 2 cos 4t - 4 cos 2t) sin(2t) i

    for theta in [pi/3, 2pi/3]; the sign follows the seed branch.
    """
    if branch not in (1, 2):
        raise BadParameter("branch must be 1 or 2")
    if not FIG8_PSI_LO / 2.0 - 1e-12 <= theta <= FIG8_PSI_HI / 2.0 + 1e-12:
        raise OutOfInterval(
            f"theta={theta:.6f} admits no coloring of the figure-eight knot"
        )
    disc = -1.0 + 2.0 * math.cos(4.0 * theta) - 4.0 * math.cos(2.0 * theta)
    if disc < 1e-12:
        # the discriminant (2c - 3)(2c + 1), c = cos 2theta, vanishes at
        # theta = pi/3, 2pi/3 (at least -1.4e-11 within the 1e-12 slack of
        # the window check) and rounding noise under the square root would
        # fake an imaginary part ~1e-8; it grows away from the endpoints
        # fast enough that this clamp only touches a ~1e-13 neighborhood
        disc = 0.0
    re = math.cos(4.0 * theta) - math.cos(2.0 * theta) - 1.0
    im = FIG8_BRANCH_SIGN[branch] * math.sqrt(disc) * math.sin(2.0 * theta)
    q = Quaternion.from_components(re, im, 0.0, 0.0)
    return LongitudeValue(q=q, phi=math.atan2(im, re))


def qn_check(diagram, coloring):
    """Verify q^n = -1 for the braid product q = q_0 q_1 of a coloring of
    ``torus2n(n, sign)``, and that q_0^(2 lead) q^n reproduces the longitude
    word, each within LAMBDA_TOL; lead = -writhe is the word's lead
    exponent, -n for sign +1 and n for the mirror.  Returns q^n."""
    _check_arity(diagram, coloring)
    coloring = to_conj_coloring(coloring)
    cols = np.asarray(coloring.colors, dtype=float).tolist()
    n = diagram.code.n
    q0 = Quaternion._make(cols[0])
    q = q0 * Quaternion._make(cols[(n - 1) // 2 + 1])
    qn = q.pow(n)
    minus_one = Quaternion(-1.0, 0.0, 0.0, 0.0)
    # written as `not <=` so that a NaN q^n fails
    if not distance(qn, minus_one) <= LAMBDA_TOL:
        raise NotMinusOne(f"q^n is {qn}, expected -1")
    direct = eval_word(diagram, coloring).q
    via_product = q0.pow(2 * longitude_word(diagram.code).lead_exponent) * qn
    if not distance(direct, via_product) <= LAMBDA_TOL:
        raise NotMinusOne(
            "q_0^(2 lead) q^n does not reproduce the longitude word"
        )
    return qn

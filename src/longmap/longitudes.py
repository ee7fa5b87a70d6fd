"""Evaluation of the longitudinal mapping.

Given a coloring of a 1-tangle by the conjugacy-class quandle of
x = exp(theta, i), the longitude word

    l = x_0^(-writhe) * x_(kappa 1)^(eps 1) * ... * x_(kappa n)^(eps n)

evaluates to an element of the circle subgroup {exp(phi, i)} about the
basepoint axis.  Spherical colorings are converted first via
u -> exp(theta, u) with theta = pi - psi/2.

Two independent evaluation routes are provided: direct word evaluation and
the generalized-Alexander lift recurrence; they must agree on every valid
coloring.  Both read one list of float rows, ``to_conj_coloring``'s (arcs, 4)
array converted once per coloring and kept on it (``_conj_rows``), and one
``longitude_word``, built once per code and kept on it; then each multiplies
in its own loop with the arithmetic and renormalization of
``Quaternion.__mul__``, and builds one ``Quaternion`` at the end.  Closed
forms for the (2, n) torus knots, their mirrors, and the figure-eight knot
are the third route; they, ``LongitudeValue`` and ``wrap_angle`` live in
``longmap.scalar``, which imports no numpy, and are re-exported here.
"""

from __future__ import annotations

import math

import numpy as np

from .colorings import Coloring, _check_arity
from .errors import BadParameter, NotMinusOne
from .quandles import ConjClassQuandle, SphereQuandle, iso_sphere_to_conj
from .scalar import (
    FIG8_BRANCH_SIGN,
    LAMBDA_TOL,
    LongitudeValue,
    Quaternion,
    distance,
    fig8_closed_form,
    t2n_closed_form,
    wrap_angle,
)
from .tangles import _torus_code, longitude_word

__all__ = [
    "LAMBDA_TOL",
    "FIG8_BRANCH_SIGN",
    "LongitudeValue",
    "to_conj_coloring",
    "eval_word",
    "galex_lift",
    "t2n_closed_form",
    "fig8_closed_form",
    "qn_check",
    "wrap_angle",
]


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


def _conj_rows(coloring):
    """The rows of ``to_conj_coloring(coloring)`` as lists of floats,
    converted on the coloring's first read and kept beside its fields, as
    ``colorings._solver`` keeps a diagram's program; they hold no reference
    to the coloring, so they die with it."""
    rows = vars(coloring).get("_conj_rows")
    if rows is None:
        rows = np.asarray(to_conj_coloring(coloring).colors,
                          dtype=float).tolist()
        object.__setattr__(coloring, "_conj_rows", rows)
    return rows


def eval_word(diagram, coloring):
    """Evaluate the longitude word on a coloring.

    Accepts sphere or conjugation colorings; returns a LongitudeValue
    checked for membership in the circle group about the basepoint.
    """
    _check_arity(diagram, coloring)
    cols = _conj_rows(coloring)
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
    Independent of ``eval_word``: the routes share only the float rows of
    ``to_conj_coloring`` kept on the coloring (``_conj_rows``) and the
    code's ``longitude_word``, and each writes out ``Quaternion.__mul__``'s
    arithmetic in its own loop.
    """
    _check_arity(diagram, coloring)
    cols = _conj_rows(coloring)
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


def qn_check(diagram, coloring):
    """Verify q^n = -1 for the braid product q = q_0 q_1 of a coloring of
    ``torus2n(n, sign)``, and that q_0^(2 lead) q^n reproduces the longitude
    word, each within LAMBDA_TOL; lead = -writhe is the word's lead
    exponent, -n for sign +1 and n for the mirror.  Returns q^n; any other
    code is a BadParameter."""
    _check_arity(diagram, coloring)
    code = diagram.code
    n = code.n
    if not (n >= 3 and n % 2 and code == _torus_code(n, code.eps[0])):
        raise BadParameter(
            "qn_check is defined on the codes of torus2n(n, +-1) only"
        )
    cols = _conj_rows(coloring)
    q0 = Quaternion._make(cols[0])
    q = q0 * Quaternion._make(cols[(n - 1) // 2 + 1])
    qn = q.pow(n)
    minus_one = Quaternion(-1.0, 0.0, 0.0, 0.0)
    # written as `not <=` so that a NaN q^n fails
    if not distance(qn, minus_one) <= LAMBDA_TOL:
        raise NotMinusOne(f"q^n is {qn}, expected -1")
    direct = eval_word(diagram, coloring).q
    via_product = q0.pow(2 * longitude_word(code).lead_exponent) * qn
    if not distance(direct, via_product) <= LAMBDA_TOL:
        raise NotMinusOne(
            "q_0^(2 lead) q^n does not reproduce the longitude word"
        )
    return qn

"""Quandle colorings of tangle diagrams.

Closed-form families (spherical star polygons for the (2, n) torus knots,
the two-branch figure-eight family), a 1-parameter numeric solver for
2-bridge diagrams over spherical quandles, and an exhaustive Fox-coloring
oracle over dihedral quandles.

Basepoint convention: the initial arc is always colored x = (1, 0, 0), and
the second bridge color is sought on the half-equator
E = {(cos b, sin b, 0) : 0 <= b <= pi}.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArityMismatch,
    BadParameter,
    NoSchedule,
    OutOfInterval,
    ResidualTooLarge,
)
from .quandles import DihedralQuandle, SphereQuandle
from .quaternions import geodesic_distance, rotate
from .tangles import TangleDiagram

EPS_COLOR = 1e-8        # residual acceptance for a valid coloring
SEED_TOL = 1e-6         # dedup tolerance between solver seeds
DEFAULT_GRID = 2000
SPREAD_TOL = 1e-6       # below this max pairwise distance a coloring is trivial

BASEPOINT = np.array([1.0, 0.0, 0.0])

__all__ = [
    "EPS_COLOR",
    "SEED_TOL",
    "DEFAULT_GRID",
    "BASEPOINT",
    "Coloring",
    "propagate",
    "residual",
    "torus_interval",
    "torus_theta_interval",
    "admissible_steps",
    "star_polygon",
    "star_beta",
    "fig8_betas",
    "fig8_coloring",
    "solve_colorings",
    "fox_colorings",
    "rotate_coloring",
    "reflect_coloring",
]


@dataclass(frozen=True)
class Coloring:
    """An assignment of quandle elements to the arcs 0..n of a diagram."""

    quandle: object
    colors: tuple

    def __len__(self):
        return len(self.colors)


def propagate(diagram, quandle, bridge_colors):
    """Colors of all arcs from the bridge colors via the diagram schedule."""
    if not diagram.has_schedule:
        raise NoSchedule(f"diagram {diagram.name or diagram!r} has no schedule")
    code = diagram.code
    colors = [None] * (code.n + 1)
    for arc, col in zip(diagram.bridge_arcs, bridge_colors):
        colors[arc] = col
    if diagram.terminal_is_initial:
        colors[code.n] = colors[0]
    for target, ci in diagram.schedule:
        kap = code.kappa[ci - 1]
        e = code.eps[ci - 1]
        if target == ci:
            colors[ci] = quandle.op_signed(colors[ci - 1], colors[kap], e)
        else:
            colors[ci - 1] = quandle.op_signed(colors[ci], colors[kap], -e)
    return colors


def residual(coloring, diagram, crossings=None):
    """Max deviation over crossings between the actual out-arc color and the
    one demanded by the crossing relation."""
    code = diagram.code
    if len(coloring.colors) != code.n + 1:
        raise ArityMismatch(
            f"{len(coloring.colors)} colors for {code.n + 1} arcs"
        )
    q = coloring.quandle
    cols = coloring.colors
    worst = 0.0
    for ci in crossings if crossings is not None else range(1, code.n + 1):
        expected = q.op_signed(
            cols[ci - 1], cols[code.kappa[ci - 1]], code.eps[ci - 1]
        )
        worst = max(worst, q.distance(cols[ci], expected))
    return worst


# ---------------------------------------------------------------------------
# torus knot star polygons


def torus_interval(n, h):
    """Open psi-interval ((n-2h)pi/n, (n+2h)pi/n) admitting the step-h
    star-polygon coloring of the (2, n) torus knot."""
    _check_torus_params(n, h)
    return ((n - 2 * h) * math.pi / n, (n + 2 * h) * math.pi / n)


def torus_theta_interval(n, h):
    """The same interval in theta = pi - psi/2 coordinates."""
    _check_torus_params(n, h)
    return ((n - 2 * h) * math.pi / (2 * n), (n + 2 * h) * math.pi / (2 * n))


def _check_torus_params(n, h):
    if n < 3 or n % 2 == 0:
        raise BadParameter("n must be an odd integer >= 3")
    if not 1 <= h <= (n - 1) // 2:
        raise BadParameter(f"h must lie in 1..{(n - 1) // 2}")


def admissible_steps(n, psi, margin=0.0):
    """Steps h whose star-polygon interval contains psi (with margin)."""
    k = (n - 1) // 2
    out = []
    for h in range(1, k + 1):
        lo, hi = torus_interval(n, h)
        if lo + margin < psi < hi - margin:
            out.append(h)
    return out


def _star_latitude(n, h, psi):
    """Height r and radius s = sqrt(1 - r^2) of the circle of latitude that
    carries the step-h spherical star n-gon with vertex angle psi, and the
    half step angle a = pi*h/n.

    Napier's rule on the right triangle formed by the pole, a vertex and the
    midpoint of a step-h side gives r = cot(a) * cot(theta) with
    theta = pi - psi/2, so |r| < 1 exactly on the open psi-window.  Near a
    window end the polygon shrinks to a point and its vertices move by
    orders of magnitude more than r, so r is evaluated as
    -cot(a) * cot(psi/2), which never forms the rounded pi - psi/2, with
    cot(a) taken from a tangent argument in (0, pi/4].
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
    return r, math.sqrt((1.0 - r) * (1.0 + r)), a


def star_beta(n, h, psi):
    """Seed angle of ``star_polygon(n, h, psi)``: the geodesic distance
    between its two bridge colors, two vertices a step h apart."""
    r, s, a = _star_latitude(n, h, psi)
    return 2.0 * math.atan2(s * math.sin(a), math.hypot(r, s * math.cos(a)))


def star_polygon(n, h, psi, base_rotation=0.0):
    """Star-polygon coloring of torus2n(n, +1) over SphereQuandle(psi).

    The step-h spherical star n-gon with vertex angle psi, at the latitude
    given by ``_star_latitude``, placed so that the initial arc is colored
    (1, 0, 0) and the second bridge lands on the upper half-equator, then
    rotated globally about the x-axis by ``base_rotation``.
    """
    r, s, a = _star_latitude(n, h, psi)
    # vertex m is the basepoint turned by 2*pi*m/n about the pole p; p.x = r
    # and (p.y, p.z) is parallel to (r sin a, cos a), so that vertex h has
    # z = 0 and y >= 0
    scale = s / math.hypot(r * math.sin(a), math.cos(a))
    pole = np.array([r, scale * r * math.sin(a), scale * math.cos(a)])
    verts = rotate(BASEPOINT, 2.0 * math.pi * np.arange(n) / n, pole)

    # arc j carries braid color q_(2j mod n); the step-h coloring sends q_m
    # to vertex h*m
    colors = tuple(
        verts[(h * (2 * j % n)) % n] for j in range(n + 1)
    )
    out = Coloring(SphereQuandle(psi), colors)
    if base_rotation:
        out = rotate_coloring(out, base_rotation)
    return out


# ---------------------------------------------------------------------------
# figure-eight closed forms


FIG8_PSI_LO = 2.0 * math.pi / 3.0
FIG8_PSI_HI = 4.0 * math.pi / 3.0


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
    disc = max(4.0 * c * c - 4.0 * c - 3.0, 0.0)
    root = math.sqrt(disc)
    denom = 2.0 * (c - 1.0)
    beta1 = math.pi - math.acos(_clip1((-1.0 + root) / denom))
    beta2 = math.acos(_clip1((1.0 + root) / denom))
    return (beta1, beta2)


def _clip1(x):
    return min(1.0, max(-1.0, x))


def fig8_coloring(psi, branch, base_rotation=0.0):
    """Figure-eight coloring over SphereQuandle(psi) for branch 1 or 2."""
    if branch not in (1, 2):
        raise BadParameter("branch must be 1 or 2")
    beta = fig8_betas(psi)[branch - 1]
    from .tangles import fig8  # local import to avoid a cycle at module load

    diagram = fig8()
    quandle = SphereQuandle(psi)
    u2 = np.array([math.cos(beta), math.sin(beta), 0.0])
    colors = tuple(propagate(diagram, quandle, (BASEPOINT, u2)))
    out = Coloring(quandle, colors)
    res = residual(out, diagram)
    if res > EPS_COLOR:
        raise ResidualTooLarge(
            f"closed-form beta fails its own equations (residual {res:.3e})"
        )
    if base_rotation:
        out = rotate_coloring(out, base_rotation)
    return out


# ---------------------------------------------------------------------------
# numeric seed solver


def _propagate_batch(diagram, psi, betas):
    """Vectorized sphere propagation for a whole array of seed angles.

    Returns colors of shape (len(betas), n_arcs, 3).
    """
    code = diagram.code
    m = len(betas)
    colors = np.empty((m, code.n + 1, 3))
    colors[:] = np.nan
    seeds = np.stack(
        [np.cos(betas), np.sin(betas), np.zeros(m)], axis=-1
    )
    colors[:, diagram.bridge_arcs[0]] = BASEPOINT
    colors[:, diagram.bridge_arcs[1]] = seeds
    if diagram.terminal_is_initial:
        colors[:, code.n] = colors[:, 0]
    for target, ci in diagram.schedule:
        kap = code.kappa[ci - 1]
        e = code.eps[ci - 1]
        if target == ci:
            colors[:, ci] = rotate(colors[:, ci - 1], e * psi, colors[:, kap])
        else:
            colors[:, ci - 1] = rotate(colors[:, ci], -e * psi, colors[:, kap])
    return colors


def _batch_residual(diagram, psi, colors):
    code = diagram.code
    res = np.zeros(colors.shape[0])
    for ci in diagram.residual_crossings:
        expected = rotate(
            colors[:, ci - 1],
            code.eps[ci - 1] * psi,
            colors[:, code.kappa[ci - 1]],
        )
        res = np.maximum(res, geodesic_distance(colors[:, ci], expected))
    return res


def _seed_residual(diagram, psi, beta):
    colors = _propagate_batch(diagram, psi, np.array([beta]))
    return float(_batch_residual(diagram, psi, colors)[0])


def _coloring_from_seed(diagram, psi, beta):
    colors = _propagate_batch(diagram, psi, np.array([beta]))[0]
    return Coloring(SphereQuandle(psi), tuple(colors))


def _spread(colors):
    pts = np.asarray(colors)
    diff = pts[:, np.newaxis] - pts[np.newaxis, :]
    return float(np.max(np.linalg.norm(diff, axis=-1)))


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, lo, hi, xtol=1e-13):
    """Golden-section minimization; robust for V-shaped objectives."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def solve_colorings(diagram, psi, grid=DEFAULT_GRID):
    """Nontrivial colorings of a 2-bridge diagram over SphereQuandle(psi).

    Scans the seed angle beta over [0, pi] at ``grid`` points, brackets the
    local minima of the propagation residual, refines each bracket to
    ~1e-12, and keeps the seeds whose residual is at most EPS_COLOR.  The
    trivial constant coloring (beta = 0) and duplicate seeds within
    SEED_TOL are dropped.  Returns a sorted list of (beta, Coloring).
    """
    if not diagram.has_schedule:
        raise NoSchedule("solve_colorings needs a 2-bridge schedule")
    if grid < 16:
        raise BadParameter("grid too coarse")
    if not 0.0 < psi < 2.0 * math.pi:  # also rejects nan
        raise BadParameter(f"psi must lie in (0, 2*pi), not {psi}")
    betas = np.linspace(0.0, math.pi, grid)
    colors = _propagate_batch(diagram, psi, betas)
    res = _batch_residual(diagram, psi, colors)

    candidates = []
    for j in range(grid):
        left = res[j - 1] if j > 0 else np.inf
        right = res[j + 1] if j < grid - 1 else np.inf
        if res[j] <= left and res[j] <= right:
            candidates.append(j)

    found = []
    cell = math.pi / (grid - 1)
    for j in candidates:
        lo = betas[max(j - 1, 0)]
        hi = betas[min(j + 1, grid - 1)]
        if hi - lo < 1e-13:
            beta_star = betas[j]
        else:
            # golden section: the residual is V-shaped at a simple root, so
            # parabolic-interpolation minimizers stall short of EPS_COLOR
            beta_star = _golden_min(
                lambda b: _seed_residual(diagram, psi, b), lo, hi
            )
        if _seed_residual(diagram, psi, beta_star) > EPS_COLOR:
            continue
        coloring = _coloring_from_seed(diagram, psi, beta_star)
        if _spread(coloring.colors) <= SPREAD_TOL:
            continue  # trivial (constant) coloring
        found.append((beta_star, coloring))

    found.sort(key=lambda t: t[0])
    deduped = []
    for beta_star, coloring in found:
        if deduped and abs(beta_star - deduped[-1][0]) <= SEED_TOL:
            continue
        if deduped and abs(beta_star - deduped[-1][0]) <= cell:
            warnings.warn(
                "two seeds inside one grid cell; increase the grid",
                stacklevel=2,
            )
        deduped.append((beta_star, coloring))
    return deduped


# ---------------------------------------------------------------------------
# dihedral (Fox) oracle


def fox_colorings(diagram, m):
    """All nontrivial Fox colorings with the initial arc colored 0,
    by exhaustive enumeration of the second bridge color."""
    if m < 3:
        raise BadParameter("m must be at least 3")
    quandle = DihedralQuandle(m)
    out = []
    for b in range(m):
        colors = propagate(diagram, quandle, (0, b))
        coloring = Coloring(quandle, tuple(colors))
        if residual(coloring, diagram) != 0.0:
            continue
        if len(set(colors)) == 1:
            continue
        out.append(coloring)
    return out


# ---------------------------------------------------------------------------
# coloring transforms


def rotate_coloring(coloring, phi):
    """Rotate every color about the basepoint axis (1,0,0) by phi."""
    cols = tuple(rotate(c, phi, BASEPOINT) for c in coloring.colors)
    return Coloring(coloring.quandle, cols)


def reflect_coloring(coloring):
    """Reflect every color through the xz-plane (y -> -y).

    An orientation-reversing isometry: it turns a coloring of a diagram into
    a coloring of the mirror diagram (all crossing signs flipped) over the
    same spherical quandle, fixing the basepoint.
    """
    flip = np.array([1.0, -1.0, 1.0])
    cols = tuple(np.asarray(c) * flip for c in coloring.colors)
    return Coloring(coloring.quandle, cols)

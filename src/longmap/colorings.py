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
from .quaternions import _cross, rotate

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
    """Colors of all arcs from the bridge colors via the diagram schedule.

    Sphere colors may be stacks of shape (..., 3); every arc then carries
    a stack, one coloring per row.
    """
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
    one demanded by the crossing relation; an array of them for a stack of
    sphere colorings."""
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
        worst = np.maximum(worst, q.distance(cols[ci], expected))
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


_POLISH_STEPS = 4  # Gauss-Newton steps; each about squares the error


def _seed_colorings(diagram, quandle, betas):
    """Propagated colorings for an array of seed angles: a list over the
    arcs of (len(betas), 3) stacks."""
    seeds = np.stack(
        [np.cos(betas), np.sin(betas), np.zeros_like(betas)], axis=-1
    )
    base = np.broadcast_to(BASEPOINT, seeds.shape)
    return propagate(diagram, quandle, (base, seeds))


def _grid_minima(diagram, quandle, grid):
    """Stage 1 of ``solve_colorings``: the seed angles on a uniform grid of
    [0, pi] where the propagation residual over the residual crossings is a
    local minimum."""
    betas = np.linspace(0.0, math.pi, grid)
    colors = _seed_colorings(diagram, quandle, betas)
    res = residual(
        Coloring(quandle, colors), diagram, diagram.residual_crossings
    )
    padded = np.concatenate([[np.inf], res, [np.inf]])
    return betas[(res <= padded[:-2]) & (res <= padded[2:])]


def _tangent_frames(u):
    """Orthonormal tangent vectors e1, e2 at each unit vector of a stack,
    branch-free (Duff et al., "Building an orthonormal basis, revisited",
    JCGT 6(1), 2017)."""
    x, y, z = u[..., 0], u[..., 1], u[..., 2]
    s = np.copysign(1.0, z)
    a = -1.0 / (s + z)
    b = x * y * a
    e1 = np.stack([1.0 + s * x * x * a, s * b, -s * x], axis=-1)
    e2 = np.stack([b, s + y * y * a, -y], axis=-1)
    return e1, e2


def _solve_stack(a, b):
    """np.linalg.solve over a stack of systems, nan where one is singular."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for i in range(len(a)):
            try:
                out[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _polish(diagram, quandle, betas):
    """Gauss-Newton on all n crossing relations of a stack of colorings.

    Forward propagation amplifies rounding along the arc chain (by about
    1e10 on T(2,21)), so a propagated coloring can miss EPS_COLOR even at
    the float64 seed nearest the root.  Here every arc but the basepoint is
    unknown: two tangent coordinates per arc, and beta alone for the seed
    arc, which stays on the equator.  Each of the _POLISH_STEPS steps solves
    the least-squares problem of the 3n relation components with the
    closed-form Rodrigues Jacobian, then moves the colors back to the
    sphere.

    Starts from the propagated colorings of the seed angles ``betas``.
    Returns the polished betas, colors of shape (arcs, len(betas), 3) and a
    mask of the candidates whose every step was finite and nonsingular and
    kept beta in [0, pi].
    """
    code = diagram.code
    n = code.n
    seed_arc = diagram.bridge_arcs[1]
    fixed = {0, n} if diagram.terminal_is_initial else {0}
    free = np.array([j for j in range(n + 1) if j not in fixed | {seed_arc}])
    # coordinate t of arc j is column 2j + t; the seed arc has only beta
    unknowns = np.concatenate([[2 * seed_arc], 2 * free, 2 * free + 1])
    crossings = np.arange(n)
    ins, outs, over = crossings, crossings + 1, np.array(code.kappa)
    phi = quandle.psi * np.array(code.eps, dtype=float)[:, np.newaxis]
    c = np.cos(phi)[..., np.newaxis, np.newaxis]
    s = np.sin(phi)[..., np.newaxis, np.newaxis]

    x = np.array(_seed_colorings(diagram, quandle, betas))
    k = len(betas)
    ok = np.ones(k, dtype=bool)
    for _ in range(_POLISH_STEPS):
        # frame[j, :, t] is the derivative of arc j's color in coordinate t
        frame = np.zeros((n + 1, k, 2, 3))
        frame[seed_arc, :, 0, 0] = -np.sin(betas)
        frame[seed_arc, :, 0, 1] = np.cos(betas)
        frame[free, :, 0], frame[free, :, 1] = _tangent_frames(x[free])

        # relation g = out - R in, R w = c w + s v x w + (1 - c) v (v.w)
        # the rotation about v = over; its derivative is
        # dg = d out - R d in - s dv x in - (1 - c) (dv (v.in) + v (in.dv))
        u, v = x[ins], x[over]
        g = x[outs] - rotate(u, phi, v)
        f_in, f_over = frame[ins], frame[over]
        u, v = u[:, :, np.newaxis], v[:, :, np.newaxis]
        rot_in = rotate(f_in, phi[..., np.newaxis], v)
        daxis_over = s * _cross(f_over, u) + (1.0 - c) * (
            f_over * np.sum(u * v, axis=-1, keepdims=True)
            + v * np.sum(u * f_over, axis=-1, keepdims=True)
        )
        # (candidate, crossing, component, arc, coordinate); each term adds
        # at distinct (crossing, arc) pairs, so += is safe with fancy indices
        jac = np.zeros((k, n, 3, n + 1, 2))
        jac[:, crossings, :, outs] += frame[outs].swapaxes(-1, -2)
        jac[:, crossings, :, ins] -= rot_in.swapaxes(-1, -2)
        jac[:, crossings, :, over] -= daxis_over.swapaxes(-1, -2)
        jac = jac.reshape(k, 3 * n, 2 * (n + 1))[:, :, unknowns]
        rhs = g.transpose(1, 0, 2).reshape(k, 3 * n, 1)
        jac_t = jac.transpose(0, 2, 1)
        step = -_solve_stack(jac_t @ jac, jac_t @ rhs)[..., 0]

        beta_next = betas + step[:, 0]
        ok &= (np.isfinite(step).all(axis=-1)
               & (0.0 <= beta_next) & (beta_next <= math.pi))
        step[~ok] = 0.0
        full = np.zeros((k, 2 * (n + 1)))
        full[:, unknowns] = step
        d = full.reshape(k, n + 1, 2, 1).transpose(1, 0, 2, 3)
        betas = betas + d[seed_arc, :, 0, 0]
        x[seed_arc] = np.stack(
            [np.cos(betas), np.sin(betas), np.zeros(k)], axis=-1
        )
        moved = x[free] + np.sum(d[free] * frame[free], axis=2)
        x[free] = moved / np.linalg.norm(moved, axis=-1, keepdims=True)
    return betas, x, ok


def _spread(colors):
    pts = np.asarray(colors)
    diff = pts[:, np.newaxis] - pts[np.newaxis, :]
    return float(np.max(np.linalg.norm(diff, axis=-1)))


def solve_colorings(diagram, psi, grid=DEFAULT_GRID):
    """Nontrivial colorings of a 2-bridge diagram over SphereQuandle(psi).

    Three stages, each run on all candidates at once:

    1. grid scan: the propagation residual over the residual crossings at
       ``grid`` seed angles beta in [0, pi]; every local minimum is a
       candidate (``_grid_minima``);
    2. polish: Gauss-Newton on all crossing relations, started from the
       propagated colorings of the grid minima (``_polish``).  It converges
       quadratically at a simple root and also removes the rounding error
       that propagation amplifies along the arc chain.  At a window end,
       where two seeds merge into a double root, it converges only
       linearly: the seed can land some 1e-5 from the root there (2.6e-5
       for fig8 at psi = 2*pi/3), with a residual still under EPS_COLOR;
    3. acceptance: a candidate is kept if its polish stayed finite with
       beta in [0, pi] and the ``residual`` of the returned coloring over
       all crossings is at most EPS_COLOR.

    The trivial constant coloring (spread at most SPREAD_TOL) and duplicate
    seeds within SEED_TOL are dropped.  Returns a list of (beta, Coloring)
    sorted by beta.
    """
    if not diagram.has_schedule:
        raise NoSchedule("solve_colorings needs a 2-bridge schedule")
    if grid < 16:
        raise BadParameter("grid too coarse")
    if not 0.0 < psi < 2.0 * math.pi:  # also rejects nan
        raise BadParameter(f"psi must lie in (0, 2*pi), not {psi}")
    quandle = SphereQuandle(psi)
    betas, colors, ok = _polish(
        diagram, quandle, _grid_minima(diagram, quandle, grid)
    )
    ok &= residual(Coloring(quandle, colors), diagram) <= EPS_COLOR

    found = []
    for i in np.flatnonzero(ok):
        if _spread(colors[:, i]) <= SPREAD_TOL:
            continue  # trivial (constant) coloring
        found.append((float(betas[i]), Coloring(quandle, tuple(colors[:, i]))))

    found.sort(key=lambda t: t[0])
    cell = math.pi / (grid - 1)
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

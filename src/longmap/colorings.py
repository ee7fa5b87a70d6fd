"""Quandle colorings of tangle diagrams.

Closed-form families (spherical star polygons for the (2, n) torus knots,
the two-branch figure-eight family), a numeric solver that colors 2-bridge
diagrams over spherical quandles by words in the bridge generators, and an
exhaustive Fox-coloring oracle over dihedral quandles.

Basepoint convention: the initial arc is always colored x = (1, 0, 0), and
the second bridge color is sought on the half-equator
E = {(cos b, sin b, 0) : 0 <= b <= pi}.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
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
from .quaternions import rotate

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


def residual(coloring, diagram):
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
    for ci in range(1, code.n + 1):
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
    if not abs(r) < 1.0:  # psi within rounding of a window end
        raise OutOfInterval(f"psi={psi!r} rounds onto a window end")
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
# numeric seed solver on arc words


_POLISH_STEPS = 4  # Gauss-Newton steps in beta
_CSTEP = 1e-20     # complex step for the slope in beta

# the flattened M with p @ M = p*i = (-b, a, d, -c), p*j = (-c, -d, a, b)
# and p, for a quaternion row p = (a, b, c, d)
_TIMES = np.stack([np.eye(4)[[1, 0, 3, 2]].T * [-1, 1, 1, -1],
                   np.eye(4)[[2, 3, 0, 1]].T * [-1, -1, 1, 1],
                   np.eye(4)]).reshape(3, 16)


def _arc_words(diagram):
    """Arc j colored W_j b_j W_j^-1: the reduced word W_j and base b_j (0
    for the basepoint x, 1 for the seed y) of every arc, and the word and
    base that each residual crossing's relation demands of its out-arc.

    A syllable (letter, a) is exp(a*psi/2 * b_letter), whose conjugation
    turns by a*psi about b_letter, so a crossing turns the source arc into
    W_over B_over^(+-1) W_over^-1 W_source.  No word ends in a syllable of
    its own base, which fixes the base, so only W_source can cancel.
    """
    code = diagram.code
    arcs = [((), 0)] * (code.n + 1)
    arcs[diagram.bridge_arcs[1]] = ((), 1)

    def moved(target, ci):
        source, sign = ci - 1, code.eps[ci - 1]
        if target != ci:
            source, sign = ci, -sign
        (w, over), (tail, base) = arcs[code.kappa[ci - 1]], arcs[source]
        word = [*w, (over, sign), *((letter, -a) for letter, a in reversed(w))]
        for letter, a in tail:
            if word and word[-1][0] == letter:
                a += word.pop()[1]
            if a:
                word.append((letter, a))
        if word and word[-1][0] == base:
            word.pop()
        return tuple(word), base

    for target, ci in diagram.schedule:
        arcs[target] = moved(target, ci)
    return arcs, [moved(ci, ci) for ci in diagram.residual_crossings]


def _word_colors(pairs, psi, betas):
    """Colors W b W^-1 of (word, base) pairs over a stack of seed angles,
    shape (3, len(pairs), len(betas)); complex betas give the complex-step
    extension.  Each prefix of the words is multiplied out once, as its own
    prefix times a syllable c + s (u i + v j), c = cos(a*psi/2)."""
    paths, ids = [[0] for _ in pairs], {}
    for path, (word, _) in zip(paths, pairs):
        for letter, a in word:
            path.append(ids.setdefault((path[-1], letter, a), len(ids) + 1))
    # drop a product once its only child is formed, unless a word ends there
    keep = {path[-1] for path in paths}
    keep |= {k for k, n in Counter(key[0] for key in ids).items() if n > 1}

    cos_b, sin_b = np.cos(betas), np.sin(betas)
    # right multiplication by c + s (u i + v j) is (s u, s v, c) @ _TIMES,
    # with (u, v) = (1, 0) for x; rows are components, columns are betas
    axes = [np.array([[1.0], [0.0], [1.0]]),
            np.stack([cos_b, sin_b, np.ones_like(cos_b)])]
    mats, prods = {}, {0: np.eye(4, 1) + 0.0 * cos_b}
    for (parent, letter, a), node in ids.items():  # parents come first
        if (letter, a) not in mats:
            c, s = math.cos(0.5 * a * psi), math.sin(0.5 * a * psi)
            mats[letter, a] = (_TIMES.T @ (axes[letter] * [[s], [s], [c]])
                               ).reshape(4, 4, -1)
        prods[node] = np.einsum("jk,jlk->lk", prods[parent], mats[letter, a])
        if parent not in keep:
            del prods[parent]

    # b = (bx, by, 0) turned by W = s + v: b + s t + v x t, t = 2 v x b
    s, v1, v2, v3 = np.stack([prods[path[-1]] for path in paths], axis=1)
    del mats, prods  # freed before the color temporaries below
    bases = np.array([base for _, base in pairs])[:, np.newaxis]
    bx, by = np.where(bases, cos_b, 1.0), np.where(bases, sin_b, 0.0)
    t1, t2, t3 = -2.0 * v3 * by, 2.0 * v3 * bx, 2.0 * (v1 * by - v2 * bx)
    return np.stack([bx + s * t1 + v2 * t3 - v3 * t2,
                     by + s * t2 + v3 * t1 - v1 * t3,
                     s * t3 + v1 * t2 - v2 * t1])


def _grid_minima(gaps, grid):
    """Stage 1 of ``solve_colorings``: the seed angles on a uniform grid of
    [0, pi] where the largest of the relation ``gaps`` is a local minimum."""
    betas = np.linspace(0.0, math.pi, grid)
    res = np.max(np.sum(gaps(betas) ** 2, axis=0), axis=0)
    padded = np.concatenate([[np.inf], res, [np.inf]])
    return betas[(res <= padded[:-2]) & (res <= padded[2:])]


def _refine(gaps, betas):
    """Stage 2 of ``solve_colorings``: _POLISH_STEPS Gauss-Newton steps in
    beta on the relation gaps, with slopes from a complex step.  The step
    and the doubled step, exact at a double root, are tried together; the
    one that lowers the squared gaps more is taken, or neither.  Returns
    the betas and a mask of the steps that were finite and in [0, pi]."""
    def gaps_and_slopes(b):
        g = gaps(b.ravel() + 1j * _CSTEP).reshape((-1,) + b.shape)
        return g.real, g.imag / _CSTEP

    rows = np.arange(len(betas))
    g, dg = gaps_and_slopes(betas)
    ok = np.ones(len(betas), dtype=bool)
    for _ in range(_POLISH_STEPS):
        jj = np.sum(dg * dg, axis=0)
        step = -np.divide(np.sum(g * dg, axis=0), jj,
                          out=np.zeros_like(jj), where=jj > 0.0)
        # beta itself comes first, so that it stays unless a step is lower
        trial = betas[:, np.newaxis] + step[:, np.newaxis] * [0.0, 1.0, 2.0]
        tg, tdg = gaps_and_slopes(trial)
        cost = np.where((0.0 <= trial) & (trial <= math.pi),
                        np.sum(tg * tg, axis=0), np.inf)
        ok &= cost[:, 1] < np.inf  # the step is finite and in [0, pi]
        best = np.argmin(cost, axis=1)
        betas, g, dg = trial[rows, best], tg[:, rows, best], tdg[:, rows, best]
    return betas, ok


def _spread(colors):
    pts = np.asarray(colors)
    diff = pts[:, np.newaxis] - pts[np.newaxis, :]
    return float(np.max(np.linalg.norm(diff, axis=-1)))


def solve_colorings(diagram, psi, grid=DEFAULT_GRID):
    """Nontrivial colorings of a 2-bridge diagram over SphereQuandle(psi).

    Arc j is colored W_j b_j W_j^-1, with W_j a reduced word in the two
    bridge generators and b_j a bridge color (``_arc_words``), so rounding
    grows with the word length, not along the arc chain as in
    ``propagate``.  Three stages, each run on all candidates at once:

    1. grid scan: every local minimum over ``grid`` seed angles in [0, pi]
       of the largest relation gap of a residual crossing;
    2. refinement: Gauss-Newton in beta alone on those gaps, reaching a
       simple root and also the double root at a window end (``_refine``);
    3. acceptance: the refinement stayed finite in [0, pi] and the
       ``residual`` over all crossings of the coloring, all arcs evaluated
       from their words, is at most EPS_COLOR.

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
    arcs, relations = _arc_words(diagram)
    pairs = [arcs[ci] for ci in diagram.residual_crossings] + relations

    def gaps(b):  # each residual crossing's out-arc minus its demanded color
        return np.subtract(*np.split(_word_colors(pairs, psi, b), 2, axis=1))

    betas, ok = _refine(gaps, _grid_minima(gaps, grid))
    colors = np.moveaxis(_word_colors(arcs, psi, betas), 0, -1)
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

"""Oracles for the benchmark, written without any code from ``longmap``.

Every answer the benchmark gets from the package is checked here against a
derivation that shares nothing with the code that produced it:

- seeds of the (2, n) torus knots come from the star-polygon latitude in
  closed form (Napier's rule), ``r = cot(pi h/n) cot(theta)``, so
  ``cos beta_h = r^2 + (1 - r^2) cos(2 pi h/n)``; no root finding and no
  solver;
- seeds of the figure-eight knot come from its SU(2) character variety:
  with ``x = tr X = tr Y = 2 cos(theta)`` and ``z = tr XY``, nonabelian
  representations satisfy ``z^2 - (1 + x^2) z + 2 x^2 - 1 = 0``, and
  ``z = 2 (cos^2 theta - sin^2 theta cos beta)``;
- expected seed counts come from the coloring windows, with a seed counted
  only when psi lies more than ``WINDOW_MARGIN`` inside its window;
- longitudes come from the closed forms ``exp(pi - 2 n theta, i)`` (inverse
  for the mirror) and, for the figure-eight knot, the A-polynomial relation
  ``Re L = cos 4t - cos 2t - 1`` with the imaginary part's sign set by the
  seed branch (branch 1 is the smaller seed and has
  ``Im L = -sqrt(-1 + 2 cos 4t - 4 cos 2t) sin 2t``);
- crossing relations are checked with a plain-float Rodrigues rotation on
  Wirtinger codes written out here from the diagrams' definitions.

Angles: theta is the conjugacy-class angle and psi = 2 pi - 2 theta the
spherical quandle angle.
"""

from __future__ import annotations

import math

PI = math.pi

# psi within this distance of a coloring-window endpoint has no well-defined
# expected seed count (the solver may or may not resolve a seed that is about
# to be born); inputs are drawn outside these neighbourhoods
WINDOW_MARGIN = 0.05

SEED_TOL = 1e-6        # solver seed vs closed-form seed angle
VALUE_TOL = 1e-9       # closed-form constructions vs closed-form oracle
LONGITUDE_TOL = 1e-8   # longitude word vs closed form
LIFT_TOL = 1e-9        # generalized-Alexander lift vs longitude word
RELATION_TOL = 1e-8    # crossing relations of a coloring

EXIT_OK, EXIT_USAGE = 0, 2   # 1 is reserved for a verification breach


# ---------------------------------------------------------------------------
# windows and expected seeds


def torus_windows(n):
    """[(h, psi_lo, psi_hi)] for the step-h colorings of T(2, n)."""
    return [(h, (n - 2 * h) * PI / n, (n + 2 * h) * PI / n)
            for h in range(1, (n - 1) // 2 + 1)]


def fig8_window():
    return (2.0 * PI / 3.0, 4.0 * PI / 3.0)


def knot_windows(knot):
    """Coloring windows of ``"fig8"`` or ``("torus", n)`` as (lo, hi) pairs."""
    if knot == "fig8":
        return [fig8_window()]
    return [(lo, hi) for _h, lo, hi in torus_windows(knot[1])]


def allowed_psi(knot):
    """Sorted disjoint psi intervals inside the knot's coloring range that
    stay WINDOW_MARGIN away from every window endpoint."""
    windows = knot_windows(knot)
    lo = min(w[0] for w in windows)
    hi = max(w[1] for w in windows)
    cuts = sorted({e for w in windows for e in w})
    out = []
    for a, b in zip(cuts, cuts[1:]):
        a, b = a + WINDOW_MARGIN, b - WINDOW_MARGIN
        if a < b and lo <= a and b <= hi:
            out.append((a, b))
    return out


def pick_psi(knot, u):
    """Map u in [0, 1) onto the allowed psi set, uniformly by length."""
    parts = allowed_psi(knot)
    total = sum(b - a for a, b in parts)
    x = u * total
    for a, b in parts:
        if x < b - a:
            return a + x
        x -= b - a
    return parts[-1][1]


def torus_seed_beta(n, h, psi):
    """Seed angle of the step-h star polygon of T(2, n), in closed form."""
    theta = PI - psi / 2.0
    r = (1.0 / math.tan(PI * h / n)) * (1.0 / math.tan(theta))
    cos_beta = r * r + (1.0 - r * r) * math.cos(2.0 * PI * h / n)
    return math.acos(max(-1.0, min(1.0, cos_beta)))


def fig8_seed_betas(psi):
    """(branch 1, branch 2) seed angles of the figure-eight knot."""
    theta = PI - psi / 2.0
    c, s = math.cos(theta), math.sin(theta)
    x2 = 4.0 * c * c
    disc = max((1.0 + x2) ** 2 - 4.0 * (2.0 * x2 - 1.0), 0.0)
    out = []
    for z in ((1.0 + x2 - math.sqrt(disc)) / 2.0,
              (1.0 + x2 + math.sqrt(disc)) / 2.0):
        cos_beta = (c * c - z / 2.0) / (s * s)
        out.append(math.acos(max(-1.0, min(1.0, cos_beta))))
    return tuple(out)


def expected_seeds(knot, psi):
    """Sorted seed angles the oracle expects at psi (WINDOW_MARGIN rule)."""
    if knot == "fig8":
        lo, hi = fig8_window()
        if lo + WINDOW_MARGIN < psi < hi - WINDOW_MARGIN:
            return sorted(fig8_seed_betas(psi))
        return []
    n = knot[1]
    return sorted(torus_seed_beta(n, h, psi) for h, lo, hi in torus_windows(n)
                  if lo + WINDOW_MARGIN < psi < hi - WINDOW_MARGIN)


def match_seeds(expected, got, tol=SEED_TOL):
    """(found, extra): expected seeds matched by some returned seed, and
    returned seeds that match no expected seed."""
    found = sum(1 for e in expected if any(abs(e - g) <= tol for g in got))
    extra = sum(1 for g in got if not any(abs(e - g) <= tol for e in expected))
    return found, extra


# ---------------------------------------------------------------------------
# longitudes


def torus_longitude(n, theta, mirror=False):
    """(Re, Im) of the T(2, n) longitude; the mirror takes the inverse."""
    phi = PI - 2.0 * n * theta
    if mirror:
        phi = -phi
    return (math.cos(phi), math.sin(phi))


def fig8_longitude(theta, branch):
    """(Re, Im) of the figure-eight longitude on seed branch 1 or 2."""
    re = math.cos(4.0 * theta) - math.cos(2.0 * theta) - 1.0
    disc = max(-1.0 + 2.0 * math.cos(4.0 * theta)
               - 4.0 * math.cos(2.0 * theta), 0.0)
    sign = -1.0 if branch == 1 else 1.0
    return (re, sign * math.sqrt(disc) * math.sin(2.0 * theta))


def fig8_branch(psi, beta):
    """Seed branch (1 or 2) whose oracle seed is nearest to beta."""
    b1, b2 = fig8_seed_betas(psi)
    return 1 if abs(beta - b1) <= abs(beta - b2) else 2


def knot_longitude(knot, psi, beta):
    """Closed-form longitude (Re, Im) of the coloring with seed beta."""
    theta = PI - psi / 2.0
    if knot == "fig8":
        return fig8_longitude(theta, fig8_branch(psi, beta))
    return torus_longitude(knot[1], theta)


def quat_gap(q, re, im):
    """Distance in S^3 from the quaternion components q = (a, b, c, d) to
    re + im*i."""
    a, b, c, d = q
    return math.sqrt((a - re) ** 2 + (b - im) ** 2 + c * c + d * d)


# ---------------------------------------------------------------------------
# diagrams and crossing relations


def torus_code(n, sign=1):
    """Wirtinger code (kappa, eps) of the closed 2-braid T(2, n): crossing i
    passes under arc (i + (n-1)/2) mod n, all crossings of one sign."""
    k = (n - 1) // 2
    return (tuple((i + k) % n for i in range(1, n + 1)), (sign,) * n)


FIG8_CODE = ((2, 3, 0, 1), (1, -1, 1, -1))


def knot_code(knot):
    return FIG8_CODE if knot == "fig8" else torus_code(knot[1])


def torus_tangle_text(n):
    """The tangle text format for T(2, n), bridges on arcs 0 and (n+1)/2."""
    kappa, eps = torus_code(n)
    k = (n - 1) // 2
    schedule = [(j * (k + 1) % n, j * (k + 1) % n) for j in range(2, n)]
    schedule.append((n, n))
    return "\n".join([
        f"tangle n={n}",
        "kappa=" + ",".join(map(str, kappa)),
        "eps=" + ",".join("+" if e > 0 else "-" for e in eps),
        f"bridges=0,{k + 1}",
        "schedule=" + ";".join(f"{a}:{c}" for a, c in schedule),
    ]) + "\n"


def rotate(u, angle, v):
    """Rotation of u about the unit axis v by angle, right-hand rule."""
    ca, sa = math.cos(angle), math.sin(angle)
    dot = u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
    cross = (v[1] * u[2] - v[2] * u[1],
             v[2] * u[0] - v[0] * u[2],
             v[0] * u[1] - v[1] * u[0])
    return tuple(u[i] * ca + cross[i] * sa + v[i] * dot * (1.0 - ca)
                 for i in range(3))


def relation_gap(code, psi, colors):
    """Largest Euclidean gap, over crossings, between the out-arc color and
    the color its crossing relation demands; inf if any color is not unit."""
    kappa, eps = code
    if len(colors) != len(kappa) + 1:
        return math.inf
    cols = [tuple(float(x) for x in c) for c in colors]
    worst = max(abs(math.sqrt(sum(x * x for x in c)) - 1.0) for c in cols)
    for i, (kap, e) in enumerate(zip(kappa, eps), start=1):
        want = rotate(cols[i - 1], e * psi, cols[kap])
        worst = max(worst, math.dist(cols[i], want))
    return worst if worst == worst else math.inf


def seed_angle(colors, bridge):
    """Angle between the basepoint color and the second bridge color."""
    a, b = colors[0], colors[bridge]
    dot = sum(float(x) * float(y) for x, y in zip(a, b))
    cross = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
             a[0] * b[1] - a[1] * b[0])
    return math.atan2(math.sqrt(sum(float(x) ** 2 for x in cross)), dot)

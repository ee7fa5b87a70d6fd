"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its measured worst-case deviation;
pytest failure output identifies the breach otherwise.  Colorings computed
for the closed-form criteria are shared (module-scoped fixtures) and fed to
the lift cross-check.
"""

import math

import numpy as np
import pytest

from longmap.cli import main as cli_main
from longmap.colorings import (
    admissible_steps,
    fig8_betas,
    fig8_coloring,
    fox_colorings,
    reflect_coloring,
    rotate_coloring,
    solve_colorings,
    star_polygon,
    torus_interval,
    torus_theta_interval,
)
from longmap.longitudes import (
    eval_word,
    fig8_closed_form,
    galex_lift,
    qn_check,
    t2n_closed_form,
    wrap_angle,
)
from longmap.quandles import (
    ConjClassQuandle,
    DihedralQuandle,
    EisQuandle,
    GAlexQuandle,
    SphereQuandle,
    axiom_check,
    eis_to_galex,
    iso_sphere_to_conj,
    random_sphere_point,
)
from longmap.quaternions import Quaternion, distance, rotate
from longmap.tangles import fig8, torus2n

PI = math.pi
MINUS_ONE = Quaternion(-1.0, 0.0, 0.0, 0.0)


def report(num, text, dev, tol):
    print(f"criterion {num:2d}: PASS  {text}  (max dev {dev:.3e}, "
          f"tol {tol:.0e})")


@pytest.fixture(scope="module")
def torus_grid():
    """(n, h, theta, diagram, coloring) over 25 samples per interval."""
    out = []
    for n in (3, 5, 7, 9):
        diagram = torus2n(n)
        for h in range(1, (n - 1) // 2 + 1):
            lo, hi = torus_theta_interval(n, h)
            for theta in np.linspace(lo + 0.02, hi - 0.02, 25):
                theta = float(theta)
                coloring = star_polygon(n, h, 2 * PI - 2 * theta)
                out.append((n, h, theta, diagram, coloring))
    return out


@pytest.fixture(scope="module")
def fig8_grid():
    diagram = fig8()
    out = []
    for theta in np.linspace(PI / 3 + 0.02, 2 * PI / 3 - 0.02, 100):
        for branch in (1, 2):
            coloring = fig8_coloring(2 * PI - 2 * float(theta), branch)
            out.append((float(theta), branch, diagram, coloring))
    return out


@pytest.fixture(scope="module")
def solver_found():
    """At least 200 solver-produced colorings across both knot families."""
    out = []
    d8 = fig8()
    for psi in np.linspace(2 * PI / 3 + 0.08, 4 * PI / 3 - 0.08, 60):
        for _beta, c in solve_colorings(d8, float(psi)):
            out.append((d8, c))
    for n in (5, 7):
        d = torus2n(n)
        for psi in np.linspace(0.55 * PI, 1.35 * PI, 20):
            for _beta, c in solve_colorings(d, float(psi)):
                out.append((d, c))
    assert len(out) >= 200
    return out


def test_criterion_1_torus_closed_form(torus_grid):
    worst = 0.0
    for n, _h, theta, diagram, coloring in torus_grid:
        got = eval_word(diagram, coloring).q
        want = Quaternion.from_components(
            -math.cos(2 * n * theta), math.sin(2 * n * theta), 0.0, 0.0
        )
        worst = max(worst, distance(got, want))
        mirrored = eval_word(torus2n(n, -1), reflect_coloring(coloring)).q
        want_m = Quaternion.from_components(
            -math.cos(2 * n * theta), -math.sin(2 * n * theta), 0.0, 0.0
        )
        worst = max(worst, distance(mirrored, want_m))
    assert worst <= 1e-8
    report(1, "torus closed form and mirror", worst, 1e-8)


def test_criterion_2_qn_identity(torus_grid):
    worst = 0.0
    for _n, _h, _theta, diagram, coloring in torus_grid:
        # qn_check raises if either q^n = -1 or the q0^(-2n) q^n identity
        # fails its 1e-9 tolerance
        qn = qn_check(diagram, coloring)
        worst = max(worst, distance(qn, MINUS_ONE))
    assert worst <= 1e-9
    report(2, "q^n = -1 and product identity", worst, 1e-9)


def test_criterion_3_fig8_closed_form(fig8_grid):
    worst = 0.0
    for theta, branch, diagram, coloring in fig8_grid:
        got = eval_word(diagram, coloring).q
        want = fig8_closed_form(theta, branch).q
        worst = max(worst, distance(got, want))
    assert worst <= 1e-8
    d = fig8()
    for branch in (1, 2):
        c = fig8_coloring(PI, branch)
        assert distance(eval_word(d, c).q, Quaternion.one()) <= 1e-9
        assert distance(fig8_closed_form(PI / 2, branch).q,
                        Quaternion.one()) <= 1e-9
    report(3, "figure-eight closed form", worst, 1e-8)


def test_criterion_4_lift_oracle(torus_grid, fig8_grid, solver_found):
    cases = [(d, c) for _n, _h, _t, d, c in torus_grid]
    cases += [(d, c) for _t, _b, d, c in fig8_grid]
    cases += solver_found
    worst = 0.0
    for diagram, coloring in cases:
        worst = max(
            worst,
            distance(galex_lift(diagram, coloring),
                     eval_word(diagram, coloring).q),
        )
    assert worst <= 1e-9
    report(4, f"lift oracle on {len(cases)} colorings", worst, 1e-9)


def test_criterion_5_mirror():
    worst = 0.0
    for n in (3, 5, 7):
        pos, neg = torus2n(n), torus2n(n, -1)
        lo, hi = torus_theta_interval(n, 1)
        for theta in np.linspace(lo + 0.05, hi - 0.05, 10):
            c = star_polygon(n, 1, 2 * PI - 2 * float(theta))
            got = eval_word(neg, reflect_coloring(c)).q
            want = eval_word(pos, c).q.inverse()
            worst = max(worst, distance(got, want))
    assert worst <= 1e-8
    report(5, "mirror gives the inverse value", worst, 1e-8)


def test_criterion_6_existence_intervals():
    margin = 0.05
    checked = 0
    for n in (3, 5, 7, 9):
        d = torus2n(n)
        k = (n - 1) // 2
        samples = [(n - 2 * k) * PI / n - 0.2, PI + 0.1]
        # one point inside each band between consecutive interval starts
        for h in range(1, k + 1):
            lo = (n - 2 * h) * PI / n
            hi = (n - 2 * h + 2) * PI / n
            samples.append(0.5 * (lo + hi))
        for psi in samples:
            if psi <= 0:
                continue
            expected = len(admissible_steps(n, psi, margin=margin))
            got = len(solve_colorings(d, psi))
            assert got == expected, (n, psi, got, expected)
            checked += 1
    d8 = fig8()
    assert len(solve_colorings(d8, PI)) == 2
    assert len(solve_colorings(d8, 2 * PI / 3 + 0.07)) == 2
    assert len(solve_colorings(d8, 2 * PI / 3 - 0.07)) == 0
    assert len(solve_colorings(d8, 4 * PI / 3 + 0.07)) == 0
    checked += 4
    report(6, f"seed counts at {checked} sample points", 0.0, 1.0)


def test_criterion_7_fox_correspondence():
    worst = 0.0
    for n in (3, 5, 7, 9):
        seeds = [b for b, _c in solve_colorings(torus2n(n), PI)]
        fox = [2 * PI * m / n for m in range(1, (n - 1) // 2 + 1)]
        assert len(seeds) == len(fox)
        for got, want in zip(seeds, sorted(fox)):
            worst = max(worst, abs(got - want))
    b1, b2 = fig8_betas(PI)
    worst = max(worst, abs(b1 - 2 * PI / 5), abs(b2 - 4 * PI / 5))
    # the seed angles of the Fox colorings themselves: the bridge arc's
    # color k is the equator point at 2 pi k / m, folded into [0, pi] as
    # 2 pi min(k, m - k) / m, so that k and m - k give one float
    for d, m in [(fig8(), 5), (torus2n(21), 21), (torus2n(21, -1), 21),
                 (torus2n(51), 51), (torus2n(63), 63),
                 (torus2n(101, -1), 101)]:
        seeds = [b for b, _c in solve_colorings(d, PI)]
        ks = {c.colors[d.bridge_arcs[1]] for c in fox_colorings(d, m)}
        fox = sorted({2 * PI * min(k, m - k) / m for k in ks})
        assert len(seeds) == len(fox)
        worst = max(worst, *(abs(got - want) for got, want in zip(seeds, fox)))
    assert worst <= 1e-8
    assert len(fox_colorings(fig8(), 5)) == 4
    report(7, "Fox correspondence at psi = pi", worst, 1e-8)


def test_criterion_8_tetrahedron():
    c = fig8_coloring(2 * PI / 3, 1)
    pts = np.array(c.colors[:4])
    worst = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            worst = max(worst, abs(float(np.dot(pts[i], pts[j])) + 1 / 3))
    assert worst <= 1e-9
    b1, b2 = fig8_betas(2 * PI / 3)
    beta_dev = max(abs(b1 - math.acos(-1 / 3)), abs(b2 - math.acos(-1 / 3)))
    assert beta_dev <= 1e-10
    report(8, "tetrahedral coloring at psi = 2pi/3", max(worst, beta_dev),
           1e-9)


def test_criterion_9_algebraic_suites(torus_grid, fig8_grid):
    rng = np.random.default_rng(77)
    x = Quaternion.exp(0.7, [1.0, 0.0, 0.0])
    worst_ax = 0.0
    for q in (SphereQuandle(1.234), ConjClassQuandle(0.9),
              DihedralQuandle(7), GAlexQuandle(x), EisQuandle(x)):
        worst_ax = max(worst_ax, axiom_check(q, rng=rng))
    assert worst_ax <= 1e-10

    worst_conj = 0.0
    for _ in range(1000):
        beta, theta = rng.uniform(0, PI, size=2)
        u, v = random_sphere_point(rng), random_sphere_point(rng)
        lhs = (Quaternion.exp(-beta, v) * Quaternion.exp(theta, u)
               * Quaternion.exp(beta, v))
        rhs = Quaternion.exp(theta, rotate(u, -2 * beta, v))
        worst_conj = max(worst_conj, distance(lhs, rhs))
    assert worst_conj <= 1e-10

    worst_iso = 0.0
    for _ in range(500):
        theta = rng.uniform(0.05, PI - 0.05)
        sq = SphereQuandle(2 * PI - 2 * theta)
        cq = ConjClassQuandle(theta)
        u, v = random_sphere_point(rng), random_sphere_point(rng)
        lhs, iu, iv = map(Quaternion._make, iso_sphere_to_conj(
            [sq.op(u, v), u, v], theta).tolist())
        worst_iso = max(worst_iso, distance(lhs, cq.op(iu, iv)))
    assert worst_iso <= 1e-10

    eq, gq = EisQuandle(x), GAlexQuandle(x)
    worst_eis = 0.0
    for _ in range(500):
        a, b = eq.sample(rng), eq.sample(rng)
        worst_eis = max(worst_eis, distance(
            eis_to_galex(eq.op(a, b)),
            gq.op(eis_to_galex(a), eis_to_galex(b)),
        ))
    assert worst_eis <= 1e-10

    # circle membership of every computed longitude (from_quaternion raises
    # beyond 1e-9) and rotation invariance of the value
    worst_rot = 0.0
    cases = [(d, c) for _n, _h, _t, d, c in torus_grid[::5]]
    cases += [(d, c) for _t, _b, d, c in fig8_grid[::5]]
    for diagram, coloring in cases:
        value = eval_word(diagram, coloring)
        rotated = rotate_coloring(coloring, rng.uniform(0, 2 * PI))
        worst_rot = max(worst_rot,
                        distance(eval_word(diagram, rotated).q, value.q))
    assert worst_rot <= 1e-8
    dev = max(worst_ax, worst_conj, worst_iso, worst_eis)
    report(9, "algebraic property suites", max(dev, worst_rot), 1e-8)


def test_criterion_10_figure_data(tmp_path, capsys):
    t3 = tmp_path / "t3.csv"
    code = cli_main([
        "sweep", "--knot", "torus:3",
        "--theta-min", str(PI / 6 + 0.02), "--theta-max", str(5 * PI / 6 - 0.02),
        "--steps", "120", "--out", str(t3),
    ])
    assert code == 0
    worst_t3 = 0.0
    for row in t3.read_text().splitlines()[1:]:
        theta_s, _b, _beta, l_re, l_im, phi = row.split(",")
        want = wrap_angle(PI - 6 * float(theta_s))
        worst_t3 = max(worst_t3, abs(float(phi) - want))
        worst_t3 = max(worst_t3, abs(float(l_re) - math.cos(want)),
                       abs(float(l_im) - math.sin(want)))
    assert worst_t3 <= 1e-9

    f8 = tmp_path / "fig8.csv"
    code = cli_main([
        "sweep", "--knot", "fig8",
        "--theta-min", str(PI / 3), "--theta-max", str(2 * PI / 3),
        "--steps", "101", "--out", str(f8),
    ])
    assert code == 0
    rows = [r.split(",") for r in f8.read_text().splitlines()[1:]]
    by_branch = {"1": {}, "2": {}}
    for r in rows:
        assert r[2] != "", "fig8 sweep must cover the whole closed interval"
        by_branch[r[1]][r[0]] = r
    worst_f8 = 0.0
    for theta_s, r1 in by_branch["1"].items():
        r2 = by_branch["2"][theta_s]
        # branches are complex conjugates of each other
        worst_f8 = max(worst_f8, abs(float(r1[3]) - float(r2[3])),
                       abs(float(r1[4]) + float(r2[4])))
        # e^(phi i) reproduces L
        for r in (r1, r2):
            phi = float(r[5])
            worst_f8 = max(worst_f8, abs(math.cos(phi) - float(r[3])),
                           abs(math.sin(phi) - float(r[4])))
    # real endpoints: the imaginary part vanishes at theta = pi/3, 2pi/3
    first, last = rows[0], rows[-1]
    worst_f8 = max(worst_f8, abs(float(first[4])), abs(float(last[4])))
    assert worst_f8 <= 1e-8
    report(10, "sweep figure data", max(worst_t3, worst_f8), 1e-8)

import math

import numpy as np
import pytest

from longmap.colorings import (
    BASEPOINT,
    EPS_COLOR,
    Coloring,
    _arc_words,
    _word_colors,
    admissible_steps,
    fig8_betas,
    fig8_coloring,
    fox_colorings,
    propagate,
    reflect_coloring,
    residual,
    rotate_coloring,
    solve_colorings,
    star_beta,
    star_polygon,
    torus_interval,
    torus_theta_interval,
)
from longmap.errors import BadParameter, NoSchedule, OutOfInterval
from longmap.longitudes import eval_word, fig8_closed_form, t2n_closed_form
from longmap.quandles import DihedralQuandle, SphereQuandle
from longmap.quaternions import directed_angle, distance, geodesic_distance
from longmap.tangles import TangleDiagram, WirtingerCode, fig8, parse, torus2n

PI = math.pi


def test_torus_intervals():
    lo, hi = torus_interval(7, 1)
    assert abs(lo - 5 * PI / 7) < 1e-15 and abs(hi - 9 * PI / 7) < 1e-15
    lo, hi = torus_interval(7, 3)
    assert abs(lo - PI / 7) < 1e-15 and abs(hi - 13 * PI / 7) < 1e-15
    lo, hi = torus_theta_interval(3, 1)
    assert abs(lo - PI / 6) < 1e-15 and abs(hi - 5 * PI / 6) < 1e-15
    with pytest.raises(BadParameter):
        torus_interval(7, 4)
    with pytest.raises(BadParameter):
        torus_interval(6, 1)


def test_admissible_steps():
    assert admissible_steps(7, 0.9 * PI) == [1, 2, 3]
    assert admissible_steps(7, 0.6 * PI) == [2, 3]
    assert admissible_steps(7, 0.1 * PI) == []
    assert admissible_steps(3, PI) == [1]
    # margin shrinks the intervals from both ends
    psi = 5 * PI / 7 + 0.01
    assert 1 in admissible_steps(7, psi)
    assert 1 not in admissible_steps(7, psi, margin=0.05)


@pytest.mark.parametrize("n,h", [(3, 1), (5, 1), (5, 2), (7, 2), (9, 4)])
def test_star_polygon_is_a_coloring(n, h):
    diagram = torus2n(n)
    lo, hi = torus_interval(n, h)
    for psi in np.linspace(lo + 0.05, hi - 0.05, 7):
        c = star_polygon(n, h, psi)
        assert residual(c, diagram) <= 1e-9
        assert np.allclose(c.colors[0], BASEPOINT)
        for u in c.colors:
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
        # second bridge sits on the upper half-equator
        k1 = (n - 1) // 2 + 1
        assert abs(c.colors[k1][2]) <= 1e-9
        assert c.colors[k1][1] >= -1e-12


def _window_psis(n, h):
    lo, hi = torus_interval(n, h)
    return [lo + 1e-9, lo + 1e-6, 0.5 * (lo + hi) + 0.1 * (hi - lo),
            hi - 1e-6, hi - 1e-9]


@pytest.mark.parametrize("n", [3, 7, 21, 51, 101])
def test_star_polygon_vertex_angle(n):
    # the vertex angle measured from the colors themselves: arcs j+k and
    # j+k+1 carry the two star-polygon neighbours of the vertex on arc j
    k = (n - 1) // 2
    j = np.arange(n)
    for h in range(1, k + 1):
        for psi in _window_psis(n, h):
            c = np.array(star_polygon(n, h, psi).colors)
            angles = directed_angle(c[(j + k) % n], c[j], c[(j + k + 1) % n])
            assert np.max(np.abs(angles - psi)) <= 1e-12, (h, psi)


@pytest.mark.parametrize("n", [3, 7, 21, 51, 101])
def test_star_beta_is_the_seed_distance(n):
    k = (n - 1) // 2
    for h in range(1, k + 1):
        for psi in _window_psis(n, h):
            c = star_polygon(n, h, psi)
            want = geodesic_distance(c.colors[0], c.colors[k + 1])
            assert abs(star_beta(n, h, psi) - want) <= 1e-12, (h, psi)
    with pytest.raises(OutOfInterval):
        star_beta(n, 1, torus_interval(n, 1)[1])


def test_star_beta_rounding_onto_a_window_end():
    # psi lies inside torus_interval(17, 3), but the latitude rounds to
    # |r| >= 1
    psi = 2 * PI * 33 / 102
    lo, hi = torus_interval(17, 3)
    assert lo < psi < hi
    with pytest.raises(OutOfInterval):
        star_beta(17, 3, psi)


def test_star_polygon_out_of_interval():
    with pytest.raises(OutOfInterval):
        star_polygon(7, 1, 0.5 * PI)


def test_fig8_betas_fox_point():
    b1, b2 = fig8_betas(PI)
    assert abs(b1 - 2 * PI / 5) < 1e-12
    assert abs(b2 - 4 * PI / 5) < 1e-12


def test_fig8_betas_frozen():
    # 50-digit evaluation of the seed equation at psi = 0.8*pi and 1.2*pi;
    # the two psi values share betas (the family is symmetric about pi)
    for psi in (0.8 * PI, 1.2 * PI):
        b1, b2 = fig8_betas(psi)
        assert abs(b1 - 1.3790760890259377) < 1e-12
        assert abs(b2 - 2.4088375774977604) < 1e-12


def test_fig8_betas_endpoints_merge():
    for psi in (2 * PI / 3, 4 * PI / 3):
        b1, b2 = fig8_betas(psi)
        assert abs(b1 - math.acos(-1.0 / 3.0)) < 1e-7
        assert abs(b2 - math.acos(-1.0 / 3.0)) < 1e-7
    with pytest.raises(OutOfInterval):
        fig8_betas(0.5 * PI)


@pytest.mark.parametrize("branch", [1, 2])
def test_fig8_coloring_residual(branch):
    diagram = fig8()
    for psi in np.linspace(2 * PI / 3 + 0.05, 4 * PI / 3 - 0.05, 15):
        c = fig8_coloring(psi, branch)
        assert residual(c, diagram) <= 1e-9
        assert np.allclose(c.colors[0], BASEPOINT)
        assert np.allclose(c.colors[4], BASEPOINT)


def test_fig8_tetrahedron():
    # at psi = 2*pi/3 the four arc colors form a regular tetrahedron
    c = fig8_coloring(2 * PI / 3, 1)
    pts = np.array(c.colors[:4])
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(np.dot(pts[i], pts[j]) + 1.0 / 3.0) <= 1e-9
    beta = geodesic_distance(pts[0], pts[2])
    assert abs(beta - math.acos(-1.0 / 3.0)) <= 1e-10


def test_fig8_bad_branch():
    with pytest.raises(BadParameter):
        fig8_coloring(PI, 3)


def test_solver_counts_torus():
    d7 = torus2n(7)
    assert len(solve_colorings(d7, 0.9 * PI)) == 3
    assert len(solve_colorings(d7, 0.6 * PI)) == 2
    assert len(solve_colorings(torus2n(3), 0.2 * PI)) == 0


def test_solver_counts_fig8():
    d = fig8()
    assert len(solve_colorings(d, 0.8 * PI)) == 2
    assert len(solve_colorings(d, 0.5 * PI)) == 0


def test_solver_matches_closed_forms():
    seeds = solve_colorings(fig8(), 0.8 * PI)
    b1, b2 = fig8_betas(0.8 * PI)
    assert abs(seeds[0][0] - b1) <= 1e-8
    assert abs(seeds[1][0] - b2) <= 1e-8

    n, h, psi = 5, 2, 0.9 * PI
    want = geodesic_distance(
        star_polygon(n, h, psi).colors[0], star_polygon(n, h, psi).colors[3]
    )
    betas = [b for b, _ in solve_colorings(torus2n(n), psi)]
    assert min(abs(b - want) for b in betas) <= 1e-8


def _band_psis(n, frac):
    """One psi in every other band between consecutive window ends of
    T(2, n), at fraction frac of the band: at least 0.05 inside or outside
    every window for the n and frac used here."""
    ends = [(2 * i + 1) * PI / n for i in range(n)]
    return [lo + frac * (hi - lo) for lo, hi in zip(ends, ends[1:])][::2]


@pytest.mark.parametrize("n,sign,frac", [(15, 1, 0.5), (21, 1, 0.3),
                                         (21, -1, 0.7)])
def test_solver_oracle_beyond_small_n(n, sign, frac):
    # the seed set, unit colors and longitudes of every solver coloring
    # against the star-polygon closed forms, on knots with long arc chains
    d = torus2n(n, sign)
    for psi in _band_psis(n, frac):
        assert admissible_steps(n, psi) == admissible_steps(n, psi, 0.05)
        want = sorted(star_beta(n, h, psi) for h in admissible_steps(n, psi))
        seeds = solve_colorings(d, psi)
        assert len(seeds) == len(want), psi
        theta = PI - psi / 2
        for (beta, c), w in zip(seeds, want):
            assert abs(beta - w) <= 1e-8, (psi, beta, w)
            assert np.array_equal(c.colors[0], BASEPOINT)
            norms = np.linalg.norm(np.array(c.colors), axis=-1)
            assert np.max(np.abs(norms - 1.0)) <= 1e-12, psi
            got = eval_word(d, c).q
            closed = t2n_closed_form(n, theta, mirror=sign < 0).q
            assert distance(got, closed) <= 1e-8, psi


def _oracle_psis(ends):
    """The midpoint of every band between consecutive window ends in
    (0, 2*pi): at least 0.05 from every end for the knots used here."""
    cuts = [0.0] + sorted(ends) + [2 * PI]
    return [0.5 * (lo + hi) for lo, hi in zip(cuts, cuts[1:])]


def _assert_oracle_seeds(d, psi, want):
    seeds = solve_colorings(d, psi)
    assert len(seeds) == len(want), (d.name, psi)
    for (beta, c), w in zip(seeds, want):
        assert abs(beta - w) <= 1e-8, (d.name, psi, beta, w)
        assert residual(c, d) <= EPS_COLOR, (d.name, psi)


@pytest.mark.parametrize("n,sign", [(n, 1) for n in range(3, 22, 2)]
                         + [(11, -1)])
def test_solver_oracle_sweep_torus(n, sign):
    # the seed set at one psi in every band of T(2, n) is the set of
    # star-polygon seed angles of the windows containing psi
    d = torus2n(n, sign)
    for psi in _oracle_psis([(2 * i + 1) * PI / n for i in range(n)]):
        assert admissible_steps(n, psi) == admissible_steps(n, psi, 0.05)
        want = sorted(star_beta(n, h, psi) for h in admissible_steps(n, psi))
        _assert_oracle_seeds(d, psi, want)


def test_solver_oracle_sweep_fig8():
    inside = np.linspace(2 * PI / 3 + 0.05, 4 * PI / 3 - 0.05, 5)
    for psi in inside:
        _assert_oracle_seeds(fig8(), psi, sorted(fig8_betas(psi)))
    for psi in _oracle_psis([2 * PI / 3, 4 * PI / 3])[::2]:
        _assert_oracle_seeds(fig8(), psi, [])


@pytest.mark.parametrize("psi", [2 * PI / 3, 4 * PI / 3])
def test_solver_fig8_window_end_double_root(psi):
    # the two seeds merge into a double root, where the doubled
    # Gauss-Newton step lands on it: one seed, precise enough for the
    # longitude word
    seeds = solve_colorings(fig8(), psi)
    assert len(seeds) == 1
    beta, c = seeds[0]
    assert abs(beta - math.acos(-1.0 / 3.0)) <= 1e-9
    assert residual(c, fig8()) <= EPS_COLOR
    got = eval_word(fig8(), c).q
    for branch in (1, 2):
        closed = fig8_closed_form(PI - psi / 2, branch).q
        assert distance(got, closed) <= 1e-8


def test_solver_oracle_sweep_long_chain():
    # forward propagation loses seeds on arc chains this long; the arc
    # words keep every one
    n = 31
    d = torus2n(n)
    for psi in _oracle_psis([(2 * i + 1) * PI / n for i in range(n)]):
        assert admissible_steps(n, psi) == admissible_steps(n, psi, 0.05)
        want = sorted(star_beta(n, h, psi) for h in admissible_steps(n, psi))
        _assert_oracle_seeds(d, psi, want)


@pytest.mark.parametrize("n,sign", [(51, 1), (51, -1), (101, 1)])
def test_solver_oracle_large_n(n, sign):
    d = torus2n(n, sign)
    for psi in (0.5 * PI, 0.9 * PI, 1.3 * PI):
        want = sorted(star_beta(n, h, psi) for h in admissible_steps(n, psi))
        seeds = solve_colorings(d, psi)
        assert len(seeds) == len(want), psi
        closed = t2n_closed_form(n, PI - psi / 2, mirror=sign < 0).q
        for (beta, c), w in zip(seeds, want):
            assert abs(beta - w) <= 1e-8, (psi, beta, w)
            assert distance(eval_word(d, c).q, closed) <= 1e-8, psi


# the figure-eight with forward entries only and residual crossings 2, 4
_CUSTOM = """tangle n=4
kappa=2,3,0,1
eps=+,-,+,-
bridges=0,2
schedule=1:1;3:3
"""


@pytest.mark.parametrize("diagram", [fig8(), parse(_CUSTOM), torus2n(7),
                                     torus2n(5, -1)],
                         ids=["fig8", "parsed", "T7", "T5-"])
def test_arc_words_reproduce_propagation(diagram):
    # every arc word W b W^-1 equals the forward-propagated color, on
    # chains short enough for propagation to be exact to 1e-12
    psi, betas = 0.9 * PI, np.linspace(0.1, 3.0, 7)
    arcs, _ = _arc_words(diagram)
    got = np.moveaxis(_word_colors(arcs, psi, betas), 0, -1)
    seeds = np.stack([np.cos(betas), np.sin(betas), 0.0 * betas], axis=-1)
    base = np.broadcast_to(BASEPOINT, seeds.shape)
    want = propagate(diagram, SphereQuandle(psi), (base, seeds))
    for arc in range(diagram.n_arcs):
        assert np.max(np.abs(got[arc] - want[arc])) <= 1e-12, arc
    # no word ends in a syllable of its own base
    assert all(not w or w[-1][0] != b for w, b in arcs)


def test_word_colors_share_prefixes():
    # words that extend, branch from and repeat each other, in either
    # order: each color is the same as when its word is evaluated alone
    x, y = 0, 1
    pairs = [(((y, 1), (x, 1), (y, -1)), x), (((y, 1), (x, 1)), y), ((), y),
             (((y, 1), (x, 1), (y, -1), (x, 2), (y, 3)), x),
             (((y, 1), (x, -1)), x), (((y, 1), (x, 1), (y, -1)), y)]
    betas = np.linspace(0.1, 3.0, 5)
    alone = np.stack([_word_colors([p], 0.7, betas)[:, 0] for p in pairs],
                     axis=1)
    for order in (pairs, pairs[::-1]):
        got = _word_colors(order, 0.7, betas)
        want = alone if order is pairs else alone[:, ::-1]
        assert np.max(np.abs(got - want)) <= 1e-15


def test_solver_rejects_psi_out_of_range():
    # checked up front, not only once a seed is found
    for psi in (math.nan, math.inf, 0.0, 7.0):
        with pytest.raises(BadParameter):
            solve_colorings(fig8(), psi)


def test_solver_requires_schedule():
    bare = TangleDiagram(WirtingerCode((1, 2, 0), (1, 1, 1)))
    with pytest.raises(NoSchedule):
        solve_colorings(bare, PI)
    with pytest.raises(NoSchedule):
        propagate(bare, SphereQuandle(PI), (BASEPOINT, BASEPOINT))


def test_fox_counts():
    assert len(fox_colorings(fig8(), 5)) == 4
    assert len(fox_colorings(fig8(), 7)) == 0
    assert len(fox_colorings(torus2n(3), 3)) == 2


def test_fox_colorings_are_valid():
    for c in fox_colorings(fig8(), 5):
        assert residual(c, fig8()) == 0.0
        assert c.colors[0] == 0
        assert isinstance(c.quandle, DihedralQuandle)


def test_rotate_coloring_preserves_residual():
    d = torus2n(5)
    c = star_polygon(5, 1, 0.9 * PI)
    r = rotate_coloring(c, 1.7)
    assert residual(r, d) <= 1e-9
    assert np.allclose(r.colors[0], BASEPOINT)


def test_reflect_coloring_colors_the_mirror():
    c = star_polygon(5, 2, 0.9 * PI)
    m = reflect_coloring(c)
    assert residual(m, torus2n(5, -1)) <= 1e-9
    # and it is not a coloring of the original
    assert residual(m, torus2n(5, 1)) > 1e-3


def test_residual_detects_perturbation():
    d = torus2n(5)
    c = star_polygon(5, 1, 0.9 * PI)
    cols = list(c.colors)
    bump = cols[3] + np.array([0.0, 0.0, 0.01])
    cols[3] = bump / np.linalg.norm(bump)
    assert residual(Coloring(c.quandle, tuple(cols)), d) >= 1e-4

import gc
import math
import warnings
import weakref
from functools import partial

import numpy as np
import pytest
from numpy.fft import rfft

from longmap import colorings
from longmap.colorings import (
    BASEPOINT,
    DEFAULT_GRID,
    EPS_COLOR,
    MAX_GRID,
    SEED_TOL,
    Coloring,
    _POLISH_STEPS,
    _arc_words,
    _evaluate,
    _gap_series,
    _grid,
    _grid_minima,
    _powers,
    _refine,
    _solver,
    _word_program,
    admissible_steps,
    fig8_coloring,
    fox_colorings,
    propagate,
    reflect_coloring,
    residual,
    rotate_coloring,
    solve_colorings,
    star_polygon,
)
from longmap.errors import (
    ArityMismatch,
    BadParameter,
    NoSchedule,
    OutOfInterval,
    ResidualTooLarge,
)
from longmap.longitudes import eval_word, galex_lift, to_conj_coloring
from longmap.quandles import (
    ConjClassQuandle,
    DihedralQuandle,
    EisQuandle,
    GAlexQuandle,
    SphereQuandle,
    axiom_check,
)
from longmap.quaternions import geodesic_distance, rotate
from longmap.scalar import (
    FIG8_PSI_HI,
    FIG8_PSI_LO,
    SPREAD_TOL,
    Quaternion,
    distance,
    fig8_betas,
    fig8_closed_form,
    star_beta,
    t2n_closed_form,
)
from longmap.tangles import (
    TangleDiagram,
    WirtingerCode,
    fig8,
    parse,
    serialize,
    torus2n,
    torus_interval,
    torus_theta_interval,
)

PI = math.pi


def _word_colors(pairs, psi, betas):
    """Colors of all the (word, base) pairs."""
    return _word_program(pairs)(psi, betas)


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
    # step 1 of T(2, 10**7 + 1) is the constant coloring across its whole
    # window, a seed angle at most 2*pi/n < SPREAD_TOL; it was listed
    assert admissible_steps(10**7 + 1, PI)[:2] == [2, 3]


def _ends_and_offsets():
    """(n, psi) within 1e-15 to 1e-10 of every window end of T(2, n), on
    both sides: 12800 of them."""
    for n in (3, 7, 21, 101):
        ends = {e for h in range(1, (n + 1) // 2)
                for e in torus_interval(n, h)}
        for end in sorted(ends):
            for d in np.logspace(-15, -10, 50).tolist():
                yield n, end - d
                yield n, end + d


def test_admissible_steps_are_the_steps_star_beta_answers_on():
    # admissible_steps tested only the open windows: it disagreed with
    # star_beta at 3029 of these psi, listing steps that round onto an end
    def answers(n, h, psi):
        try:
            star_beta(n, h, psi)
        except OutOfInterval:
            return False
        return True
    for n, psi in _ends_and_offsets():
        want = [h for h in range(1, (n + 1) // 2) if answers(n, h, psi)]
        assert admissible_steps(n, psi) == want, (n, psi)


def _steps_with_margin(n, psi, margin=0.05):
    """The steps whose window holds psi at least ``margin`` inside."""
    return [h for h in range(1, (n + 1) // 2)
            for lo, hi in [torus_interval(n, h)]
            if lo + margin < psi < hi - margin]


@pytest.mark.parametrize("n", [4, 2, 1, 0, -3])
def test_admissible_steps_rejects_a_bad_n(n):
    # not an empty list, which would read as no coloring
    with pytest.raises(BadParameter, match="odd integer >= 3"):
        admissible_steps(n, 3.0)


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


def _directed_angle(a, b, c):
    """The angle phi in [0, 2*pi) with c = rotate(a, phi, b), for a and c
    at equal geodesic distance from b, measured right-handed about b."""
    a_perp = a - np.sum(a * b, axis=-1, keepdims=True) * b
    c_perp = c - np.sum(c * b, axis=-1, keepdims=True) * b
    y = np.sum(np.cross(a_perp, c_perp) * b, axis=-1)
    x = np.sum(a_perp * c_perp, axis=-1)
    return np.mod(np.arctan2(y, x), 2.0 * PI)


def test_directed_angle():
    i, j, k = np.eye(3)
    assert abs(_directed_angle(i, k, j) - PI / 2) < 1e-15
    assert abs(_directed_angle(j, k, i) - 3 * PI / 2) < 1e-15
    got = rotate(i, 1.234, k)
    assert abs(_directed_angle(i, k, got) - 1.234) < 1e-12


@pytest.mark.parametrize("n", [3, 7, 21, 51, 101])
def test_star_polygon_vertex_angle(n):
    # the vertex angle measured from the colors themselves: arcs j+k and
    # j+k+1 carry the two star-polygon neighbours of the vertex on arc j
    k = (n - 1) // 2
    j = np.arange(n)
    for h in range(1, k + 1):
        for psi in _window_psis(n, h):
            c = np.array(star_polygon(n, h, psi).colors)
            angles = _directed_angle(c[(j + k) % n], c[j], c[(j + k + 1) % n])
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


def test_residual_rejects_a_coloring_one_arc_short():
    c = star_polygon(7, 2, 0.9 * PI)
    short = Coloring(c.quandle, c.colors[:-1])
    with pytest.raises(ArityMismatch, match="7 colors for 8 arcs"):
        residual(short, torus2n(7))


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
        assert admissible_steps(n, psi) == _steps_with_margin(n, psi)
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
        assert admissible_steps(n, psi) == _steps_with_margin(n, psi)
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


def _fig8_near_the_ends(eps, marks=()):
    """psi ``eps`` (a string) inside each end of the figure-eight window."""
    return [pytest.param(psi, id=f"{end}{eps}", marks=marks)
            for end, psi in (("lo+", FIG8_PSI_LO + float(eps)),
                             ("hi-", FIG8_PSI_HI - float(eps)))]


_ONE_GRID_CELL = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="both seeds lie inside one grid cell")


@pytest.mark.parametrize("psi", [
    *_fig8_near_the_ends("1e-5"),
    *(p for eps in ("1e-6", "1e-7", "1e-8", "1e-9", "1e-10")
      for p in _fig8_near_the_ends(eps, _ONE_GRID_CELL)),
])
def test_solver_fig8_near_a_window_end_keeps_both_seeds(psi):
    # 1e-5 inside an end both seeds come back, within 1.6e-14 of
    # fig8_betas; from 1e-6 inside on, both lie inside one grid cell and the
    # warning about it never fires: one seed comes back, or none at 1e-8
    betas = [beta for beta, _ in solve_colorings(fig8(), psi)]
    want = sorted(fig8_betas(psi))
    assert len(betas) == 2, betas
    assert all(abs(b - w) <= SEED_TOL for b, w in zip(betas, want)), betas


def _step1_window_ends(eps):
    """(n, psi) eps inside each end of the step-1 window of T(2, n)."""
    return [pytest.param(n, psi, id=f"T{n}-{end}{eps:g}")
            for n in (3, 7, 21)
            for lo, hi in [torus_interval(n, 1)]
            for end, psi in (("lo+", lo + eps), ("hi-", hi - eps))]


def _assert_the_star_seed_is_found(n, psi):
    want = star_beta(n, 1, psi)
    betas = [beta for beta, _ in solve_colorings(torus2n(n), psi)]
    assert any(abs(b - want) <= SEED_TOL for b in betas), (want, betas)


@pytest.mark.parametrize("n, psi", _step1_window_ends(1e-4))
def test_solver_finds_the_star_seed_near_a_torus_window_end(n, psi):
    # 1e-4 inside, the step-1 seed lies 8e-3 to 2.6e-2 from beta = 0,
    # several grid cells clear of the trivial root
    _assert_the_star_seed_is_found(n, psi)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="next to the trivial root at beta = 0 the scan's "
                   "only grid minimum is beta = 0 itself")
@pytest.mark.parametrize("n, psi",
                         _step1_window_ends(1e-6) + _step1_window_ends(1e-8))
def test_solver_keeps_the_star_seed_at_a_torus_window_end(n, psi):
    # 1e-6 inside an end the seed lies within about 1.7 grid cells of
    # beta = 0, and the squared gaps rise from 0 across them, so the seed
    # is dropped with the trivial coloring; no warning fires
    _assert_the_star_seed_is_found(n, psi)


def _double_the_grid_minima(monkeypatch):
    """Make the scan return every grid minimum twice."""
    minima = colorings._grid_minima
    monkeypatch.setattr(colorings, "_grid_minima", lambda series, grid: tuple(
        np.repeat(x, 2, axis=0) for x in minima(series, grid)))


def test_the_grid_cell_warning_names_the_caller(monkeypatch):
    # every grid minimum twice, and no dedup: each seed comes back twice,
    # 0 apart, inside one grid cell
    _double_the_grid_minima(monkeypatch)
    monkeypatch.setattr(colorings, "SEED_TOL", -1.0)
    with pytest.warns(UserWarning, match="inside one grid cell") as record:
        seeds = solve_colorings(fig8(), 2.5)
    assert len(seeds) == 4
    assert {w.filename for w in record} == {__file__}


@pytest.mark.parametrize("diagram,psi", [(fig8(), 2.5), (torus2n(21), 2.8),
                                         (torus2n(7, -1), 3.3)],
                         ids=["fig8", "T21", "T7-"])
def test_the_solver_drops_a_duplicate_seed(monkeypatch, diagram, psi):
    # every grid minimum twice, with the real SEED_TOL: each copy of a
    # seed lands on the seed itself and is dropped, before the grid cell
    # warning can fire
    want = [beta for beta, _ in solve_colorings(diagram, psi)]
    _double_the_grid_minima(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [beta for beta, _ in solve_colorings(diagram, psi)]
    assert len(got) == len(want) > 0
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-12


def test_solver_oracle_sweep_long_chain():
    # forward propagation loses seeds on arc chains this long; the arc
    # words keep every one
    n = 31
    d = torus2n(n)
    for psi in _oracle_psis([(2 * i + 1) * PI / n for i in range(n)]):
        assert admissible_steps(n, psi) == _steps_with_margin(n, psi)
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
    for arc in range(diagram.code.n + 1):
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


def _loop_residual(coloring, diagram):
    """Reference: one rotate and one geodesic_distance per crossing."""
    code, cols, psi = diagram.code, coloring.colors, coloring.quandle.psi
    worst = 0.0
    for i in range(code.n):
        expected = rotate(cols[i], psi * code.eps[i], cols[code.kappa[i]])
        worst = np.maximum(worst, geodesic_distance(cols[i + 1], expected))
    return worst


_BATCH_CASES = [(fig8(), 0.8 * PI), (torus2n(21), 0.9 * PI),
                (torus2n(21, -1), 1.3 * PI), (parse(_CUSTOM), 0.8 * PI)]
_BATCH_IDS = ["fig8", "T21", "T21-", "parsed"]


@pytest.mark.parametrize("diagram,psi", _BATCH_CASES, ids=_BATCH_IDS)
def test_batched_residual_matches_the_crossing_loop(diagram, psi):
    # bitwise, on a stack of word colorings at arbitrary seed angles and
    # of the solver's seeds, and on each of them alone
    q = SphereQuandle(psi)
    arcs, _ = _arc_words(diagram)
    run = partial(_word_program(arcs), psi)
    seeds = [np.array(c.colors) for _, c in solve_colorings(diagram, psi)]
    stack = np.concatenate([np.moveaxis(run(np.linspace(0.05, 3.1, 9)), 0, -1),
                            np.stack(seeds, axis=1)], axis=1)
    want = _loop_residual(Coloring(q, stack), diagram)
    assert residual(Coloring(q, stack), diagram).tobytes() == want.tobytes()
    for k in range(stack.shape[1]):
        single = Coloring(q, tuple(stack[:, k]))
        assert residual(single, diagram).tobytes() == want[k].tobytes()
        assert _loop_residual(single, diagram).tobytes() == want[k].tobytes()


_X = Quaternion.exp(0.7, [1.0, 0.0, 0.0])
_QUANDLES = [SphereQuandle(0.8 * PI), ConjClassQuandle(0.9),
             DihedralQuandle(7), GAlexQuandle(_X), EisQuandle(_X)]
_DIAGRAMS = [fig8(), parse(_CUSTOM), torus2n(7), torus2n(5, -1)]
_DIAGRAM_IDS = ["fig8", "parsed", "T7", "T5-"]


def _op_loop_residual(coloring, diagram):
    """Reference: one op or op_inv and one distance per crossing."""
    code, q, cols = diagram.code, coloring.quandle, coloring.colors
    worst = 0.0
    for i in range(code.n):
        op = q.op if code.eps[i] > 0 else q.op_inv
        expected = op(cols[i], cols[code.kappa[i]])
        worst = np.maximum(worst, q.distance(cols[i + 1], expected))
    return worst


def _same_float(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes()


@pytest.mark.parametrize("q", _QUANDLES, ids=lambda q: type(q).__name__)
@pytest.mark.parametrize("diagram", _DIAGRAMS, ids=_DIAGRAM_IDS)
def test_residual_equals_the_op_loop_on_every_quandle(q, diagram):
    # bitwise, on colorings propagated from random bridge colors, and on
    # copies of them with arcs replaced by other elements one at a time
    rng = np.random.default_rng(23)
    for _ in range(5):
        cols = propagate(diagram, q, (q.sample(rng), q.sample(rng)))
        for arc in (None, *rng.integers(diagram.code.n + 1, size=3)):
            if arc is not None:
                cols[arc] = q.sample(rng)
            c = Coloring(q, tuple(cols))
            assert _same_float(residual(c, diagram),
                               _op_loop_residual(c, diagram)), arc


@pytest.mark.parametrize("q", _QUANDLES, ids=lambda q: type(q).__name__)
@pytest.mark.parametrize("diagram", _DIAGRAMS, ids=_DIAGRAM_IDS)
def test_residual_of_stacked_colorings_on_every_quandle(q, diagram):
    # six colorings at once, each arc a stack of six colors: a residual
    # per coloring, bitwise the loop's and each coloring's alone
    rng = np.random.default_rng(25)
    seeds = [q.stack([q.sample(rng) for _ in range(6)]) for _ in range(2)]
    stacked = Coloring(q, tuple(propagate(diagram, q, seeds)))
    got = residual(stacked, diagram)
    want = _op_loop_residual(stacked, diagram)
    assert got.shape == (6,) and got.tobytes() == want.tobytes()
    for k in range(6):
        one = Coloring(q, tuple(_take(c, k) for c in stacked.colors))
        assert _same_float(residual(one, diagram), got[k])


def _take(color, k):
    """Row k of a stacked color, a Quaternion for a quaternion row."""
    if isinstance(color, tuple):
        return tuple(_take(c, k) for c in color)
    row = color[k]
    return Quaternion(*row.tolist()) if row.shape == (4,) else row


def test_residual_equals_the_op_loop_on_valid_colorings():
    # where every crossing's deviation is rounding, so that the maximum
    # picks among values that differ in their last bits
    cases = [(torus2n(n, 1), star_polygon(n, h, psi))
             for n, h, psi in ((7, 1, 0.9 * PI), (7, 3, 1.3 * PI),
                               (21, 5, 0.95 * PI))]
    cases += [(fig8(), fig8_coloring(psi, b))
              for psi in (0.7 * PI, 1.1 * PI) for b in (1, 2)]
    cases += [(d, to_conj_coloring(c)) for d, c in cases]
    cases += [(d, c) for d in (fig8(), torus2n(9)) for m in (5, 9)
              for c in fox_colorings(d, m)]
    assert len(cases) == 26  # 7 sphere, their 7 images and 12 Fox
    for d, c in cases:
        assert residual(c, d) <= 1e-9
        assert _same_float(residual(c, d), _op_loop_residual(c, d))


@pytest.mark.parametrize("q", _QUANDLES, ids=lambda q: type(q).__name__)
def test_residual_of_a_tangle_without_crossings_is_zero(q):
    d = TangleDiagram(WirtingerCode((), ()))
    c = Coloring(q, (q.sample(np.random.default_rng(24)),))
    assert residual(c, d) == 0.0
    with pytest.raises(ArityMismatch):
        residual(Coloring(q, c.colors * 2), d)


def _fox_per_seed(diagram, m):
    """Reference: one propagation and one crossing loop per seed."""
    q = DihedralQuandle(m)
    colorings = (Coloring(q, tuple(propagate(diagram, q, (0, b))))
                 for b in range(1, m))
    return [c for c in colorings if _op_loop_residual(c, diagram) == 0.0]


@pytest.mark.parametrize("diagram", [
    fig8(), torus2n(9), torus2n(15, -1), parse(_CUSTOM),
    TangleDiagram(WirtingerCode((1, 0), (1, 1)), (0, 1), ()),
], ids=["fig8", "T9", "T15-", "parsed", "no-schedule"])
def test_stacked_fox_colorings_equal_the_per_seed_enumeration(diagram):
    found = 0
    for m in (3, 5, 9, 15, 45):
        got = fox_colorings(diagram, m)
        assert got == _fox_per_seed(diagram, m), m
        assert all(type(x) is int for c in got for x in c.colors)
        found += len(got)
    assert found > 0 or diagram.code.n == 2


def _direct_gaps(diagram, psi, betas):
    """Reference: the relation gaps from a run of the gap program itself,
    shape (3 * crossings, len(betas))."""
    colors = _solver(diagram)[0](psi, betas)
    half = colors.shape[1] // 2
    return (colors[:, :half] - colors[:, half:]).reshape(-1, len(betas))


def _series(diagram, psi):
    gap_program, _, degree = _solver(diagram)
    return _gap_series(gap_program, psi, degree)


_DEGREE_CASES = [fig8(), parse(_CUSTOM), parse(serialize(torus2n(5))),
                 torus2n(101, -1)]
_DEGREE_CASES += [torus2n(n, sign) for n in range(3, 22, 2) for sign in (1, -1)]
_DEGREE_IDS = ["fig8", "parsed", "parsed-T5", "T101-"]
_DEGREE_IDS += [f"T{n}{'+-'[sign < 0]}" for n in range(3, 22, 2)
                for sign in (1, -1)]


@pytest.mark.parametrize("diagram", _DEGREE_CASES, ids=_DEGREE_IDS)
def test_gaps_have_degree_at_most_d(diagram):
    # sampled at 4D + 4 angles, twice as many as the solver takes, every
    # coefficient above D is rounding
    degree = _solver(diagram)[2]
    for psi in (0.7 * PI, 2.3, 1.3 * PI):
        n = 4 * degree + 4
        c = np.abs(rfft(_direct_gaps(diagram, psi, 2 * PI / n * np.arange(n))))
        assert np.max(c[:, degree + 1:]) <= 1e-12 * np.max(c), psi


_SERIES_CASES = _BATCH_CASES + [(torus2n(101, -1), 2.8), (torus2n(501), 2.8),
                                 (torus2n(1001), 2.8)]
_SERIES_IDS = _BATCH_IDS + ["T101-", "T501", "T1001"]


@pytest.mark.parametrize("diagram,psi", _SERIES_CASES, ids=_SERIES_IDS)
def test_coefficients_reproduce_the_gap_program_on_the_grid(diagram, psi):
    # the scan's grid, which T(2,501) evaluates in blocks
    betas = np.linspace(0.0, PI, DEFAULT_GRID)
    got = _evaluate(_series(diagram, psi), betas)
    rows = got.shape[1] // 2
    assert np.max(np.abs(got[:, :rows].T
                         - _direct_gaps(diagram, psi, betas))) <= 1e-12


@pytest.mark.parametrize("diagram", _DEGREE_CASES, ids=_DEGREE_IDS)
def test_grid_minima_are_those_of_the_gap_program(diagram):
    # the scan's seeds equal the local minima of the largest squared gap
    # that the gap program itself gives on the same grid, without the
    # coefficients
    betas = np.linspace(0.0, PI, DEFAULT_GRID)
    for psi in (0.9, 2.3, 2.8, 1.3 * PI, 5.3):
        gaps = _direct_gaps(diagram, psi, betas).reshape(3, -1, len(betas))
        res = np.max(np.sum(gaps ** 2, axis=0), axis=0)
        padded = np.concatenate([[np.inf], res, [np.inf]])
        want = betas[(res <= padded[:-2]) & (res <= padded[2:])]
        got, _ = _grid_minima(_series(diagram, psi), DEFAULT_GRID)
        assert np.array_equal(got, want), psi


def test_the_scan_does_not_depend_on_the_kept_table():
    # fig8's scan reads the leading rows of its grid's cached table,
    # bitwise as from a fresh cache, whatever was scanned before it
    _grid.cache_clear()
    series = _series(fig8(), 2.8)
    want = _grid_minima(series, DEFAULT_GRID)
    for before, grid in [
            (torus2n(21), DEFAULT_GRID),  # more rows of the same table
            (torus2n(21), 999),  # replaces it by another grid's
            (torus2n(101), DEFAULT_GRID),  # too large for the table
            (torus2n(21), MAX_GRID),  # a grid with no table
    ]:
        _grid_minima(_series(before, 2.8), grid)
        got = _grid_minima(series, DEFAULT_GRID)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes(), (before.name, grid)


def test_the_leading_rows_of_the_powers_are_a_smaller_table():
    # what lets a series take the leading rows of the kept table: bitwise
    # those of a table of its own terms
    betas, powers = _grid(DEFAULT_GRID)
    for terms in range(3, len(powers) // 2 + 1):
        own = _powers(betas, terms)
        assert own.tobytes() == powers[:2 * terms].tobytes(), terms


def test_the_kept_table_holds_at_most_kept_powers():
    for grid in (16, 999, DEFAULT_GRID, 16_000, 30_000, MAX_GRID):
        betas, powers = _grid(grid)
        assert betas.tobytes() == np.linspace(0.0, PI, grid).tobytes()
        if colorings._KEPT // grid < 3:
            assert powers is None, grid
        else:
            assert powers.size <= 2 * colorings._KEPT, grid
            assert len(powers) == 2 * (colorings._KEPT // grid), grid


@pytest.mark.parametrize("diagram", [fig8(), torus2n(21), torus2n(101, -1)],
                         ids=["fig8", "T21", "T101-"])
def test_the_finest_grid_finds_the_default_grid_seeds(diagram):
    # a scan too large to keep its table, at every diagram size
    want = [beta for beta, _ in solve_colorings(diagram, 2.8)]
    got = [beta for beta, _ in solve_colorings(diagram, 2.8, MAX_GRID)]
    assert len(got) == len(want) > 0
    assert np.max(np.abs(np.subtract(got, want))) <= SEED_TOL


@pytest.mark.parametrize("diagram,psi", _SERIES_CASES, ids=_SERIES_IDS)
def test_grid_minima_values_are_the_gap_program_gaps(diagram, psi):
    # on both sides of the keep rule: from the kept table up to T(2,21),
    # through _evaluate from T(2,101) on
    series = _series(diagram, psi)
    betas, values = _grid_minima(series, DEFAULT_GRID)
    terms = series.shape[0] // 2
    kept = 2 * terms <= len(_grid(DEFAULT_GRID)[1])
    assert kept == (terms * DEFAULT_GRID <= colorings._KEPT)
    rows = values.shape[1] // 2
    assert np.max(np.abs(values[:, :rows].T
                         - _direct_gaps(diagram, psi, betas))) <= 1e-12


@pytest.mark.parametrize("diagram,psi", _BATCH_CASES, ids=_BATCH_IDS)
def test_gaps_at_a_beta_do_not_depend_on_the_stack(diagram, psi):
    # _refine evaluates beta beside its trials, so it needs no bitwise
    # equality; the gaps and slopes at a beta alone, as a column of a trial
    # stack and on the grid differ by a few ulps of the sum of their terms
    series = _series(diagram, psi)
    tol = 4 * np.finfo(float).eps * np.sum(np.abs(series), axis=0)
    grid = np.linspace(0.0, PI, DEFAULT_GRID)
    on_grid = _evaluate(series, grid)
    for b in (grid[::37], np.linspace(0.05, 3.1, 7)):
        trial = np.stack([b[::-1], b, b + 0.25], axis=-1)
        stacked = _evaluate(series, trial.ravel()).reshape(*trial.shape, -1)
        for k in range(len(b)):
            alone = _evaluate(series, b[k:k + 1])[0]
            assert np.all(np.abs(alone - stacked[k, 1]) <= tol)
    for k in range(0, DEFAULT_GRID, 37):
        alone = _evaluate(series, grid[k:k + 1])[0]
        assert np.all(np.abs(alone - on_grid[k]) <= tol)


@pytest.mark.parametrize("diagram,psi", _SERIES_CASES, ids=_SERIES_IDS)
def test_coefficient_slopes_match_a_central_difference(diagram, psi):
    # the difference's own error, about h^2 D^3 / 6, stays below 1e-6 of
    # the slopes, of order D
    series = _series(diagram, psi)
    betas = np.random.default_rng(26).uniform(0.0, PI, 9)
    got = _evaluate(series, betas)
    slopes = got[:, got.shape[1] // 2:].T
    h = 1e-3 / _solver(diagram)[2]
    diff = (_direct_gaps(diagram, psi, betas + h)
            - _direct_gaps(diagram, psi, betas - h)) / (2 * h)
    assert np.max(np.abs(slopes - diff)) <= 1e-6 * np.max(np.abs(diff))


def _refine_evaluating_beta_again(diagram, psi, betas):
    """Reference: _refine's rule, beta evaluated again beside its trials,
    on the gap program itself, with slopes from a complex step of 1e-20,
    one candidate at a time."""
    def gaps_and_slopes(b):
        g = _direct_gaps(diagram, psi, b + 1e-20j)
        return g.real.T, g.imag.T / 1e-20

    out, ok = [], []
    for beta in betas:
        good = True
        g, dg = gaps_and_slopes(np.array([beta]))
        for _ in range(_POLISH_STEPS):
            jj = np.sum(dg * dg)
            step = -np.sum(g * dg) / jj if jj > 0.0 else 0.0
            trial = beta + step * np.array([0.0, 1.0, 2.0])
            tg, tdg = gaps_and_slopes(trial)
            cost = np.where((0.0 <= trial) & (trial <= PI),
                            np.sum(tg * tg, axis=1), np.inf)
            good &= bool(cost[1] < np.inf)
            best = int(np.argmin(cost))
            beta, g, dg = trial[best], tg[best:best + 1], tdg[best:best + 1]
        out.append(beta)
        ok.append(good)
    return np.array(out), np.array(ok)


@pytest.mark.parametrize("diagram,psi", _BATCH_CASES + [
    (fig8(), 2 * PI / 3), (torus2n(51), 0.9 * PI), (torus2n(7), 0.02 * PI)],
    ids=_BATCH_IDS + ["fig8-end", "T51", "T7-end"])
def test_refine_matches_evaluating_beta_again(diagram, psi):
    # from the scan's candidates, and from one of them alone.  Every gap
    # vanishes at the trivial coloring beta = 0, where the gap program
    # stays put but the coefficients' rounding may step below 0; the
    # solver drops that candidate either way
    series = _series(diagram, psi)
    start, values = _grid_minima(series, DEFAULT_GRID)
    want = _refine_evaluating_beta_again(diagram, psi, start)
    nontrivial = want[0] > SPREAD_TOL
    for k in (len(start), 1):
        got = _refine(series, start[:k], values[:k])
        assert np.max(np.abs(got[0] - want[0][:k])) <= 1e-12
        assert np.array_equal(got[1][nontrivial[:k]],
                              want[1][:k][nontrivial[:k]])
    assert np.count_nonzero(nontrivial) >= len(start) - 1


_MAKERS = [fig8, lambda: torus2n(9), lambda: torus2n(15, -1),
           lambda: parse(_CUSTOM)]
_MAKER_IDS = ["fig8", "T9", "T15-", "parsed"]


def test_solver_compiles_a_diagram_once(monkeypatch):
    compiles = []

    def counted(diagram):
        compiles.append(diagram)
        return _arc_words(diagram)

    monkeypatch.setattr(colorings, "_arc_words", counted)
    d = torus2n(9)
    for psi in (2.6, 2.8, 3.0, 3.3):
        assert solve_colorings(d, psi)
    assert compiles == [d]
    solve_colorings(torus2n(9), 2.8)  # an equal diagram compiles its own
    assert len(compiles) == 2


@pytest.mark.parametrize("make", _MAKERS, ids=_MAKER_IDS)
def test_solve_through_the_compiled_diagram_is_bitwise_fresh(make):
    d = make()
    solve_colorings(d, 1.3 * PI)  # compiles d
    found = 0
    for psi in (0.8 * PI, 0.9 * PI, 1.1 * PI, 1.3 * PI):
        got, want = solve_colorings(d, psi), solve_colorings(make(), psi)
        assert len(got) == len(want)
        for (b, c), (wb, wc) in zip(got, want):
            assert np.float64(b).tobytes() == np.float64(wb).tobytes()
            assert np.array(c.colors).tobytes() == np.array(
                wc.colors).tobytes()
        found += len(got)
    assert found > 0


def _stacked_run_words(steps, ends, bases, keys, psi, betas):
    """``colorings._run_words`` with its stacks built by np.stack."""
    cos_b, sin_b = np.cos(betas), np.sin(betas)
    axis = np.stack([cos_b, sin_b, np.ones_like(cos_b)])
    mats = []
    for letter, a in keys:
        c, s = math.cos(0.5 * a * psi), math.sin(0.5 * a * psi)
        mats.append(colorings._syllables(axis if letter else
                                         colorings._X_AXIS,
                                         np.array([[s], [s], [c]])))
    prods = [colorings._ONE + 0.0 * cos_b, *[None] * len(steps)]
    for parent, key, node, _ in steps:
        prods[node] = np.einsum("jk,jlk->lk", prods[parent], mats[key])
    s, v1, v2, v3 = np.stack([prods[end] for end in ends], axis=1)
    bx, by = np.where(bases, cos_b, 1.0), np.where(bases, sin_b, 0.0)
    t1, t2, t3 = -2.0 * v3 * by, 2.0 * v3 * bx, 2.0 * (v1 * by - v2 * bx)
    return np.stack([bx + s * t1 + v2 * t3 - v3 * t2,
                     by + s * t2 + v3 * t1 - v1 * t3,
                     s * t3 + v1 * t2 - v2 * t1])


@pytest.mark.parametrize("make", _MAKERS, ids=_MAKER_IDS)
def test_word_programs_are_bitwise_the_stacked_run(make):
    gap_program, arc_program, degree = _solver(make())
    rng = np.random.default_rng(19)
    n = 2 * degree + 2
    for psi in (0.7 * PI, 2.5, 1.3 * PI):
        for betas in (2.0 * PI / n * np.arange(n), rng.uniform(0, PI, 5)):
            for program in (gap_program, arc_program):
                want = _stacked_run_words(*program.args, psi, betas)
                assert program(psi, betas).tobytes() == want.tobytes()


@pytest.mark.parametrize("make", _MAKERS, ids=_MAKER_IDS)
def test_compiled_diagram_keeps_its_identity_and_dies_with_it(make):
    d, twin = make(), make()
    before = repr(d), hash(d)
    solve_colorings(d, 0.9 * PI)
    assert (repr(d), hash(d)) == before
    assert d == twin and twin == d
    entry = weakref.ref(_solver(d)[0])
    del d
    gc.collect()
    assert entry() is None


@pytest.mark.parametrize("n", [21, 101])
def test_grid_must_sample_the_gaps(n):
    d = torus2n(n)
    degree = _solver(d)[2]
    assert degree == n + 1  # k = (n - 1)/2 y syllables
    with pytest.raises(BadParameter, match=f"at least {degree + 2} "):
        solve_colorings(d, 2.8, grid=degree + 1)
    assert solve_colorings(d, 2.8, grid=degree + 2)
    assert solve_colorings(d, 2.8, grid=np.int64(degree + 2))
    # a float or a string is refused, not truncated or compared; True is 1
    for bad in (100.5, 100.0, "200"):
        with pytest.raises(BadParameter, match=f"integer, not {bad!r}$"):
            solve_colorings(d, 2.8, grid=bad)
    with pytest.raises(BadParameter, match=f"16..{MAX_GRID}, not 1$"):
        solve_colorings(d, 2.8, grid=True)


def test_default_grid_samples_the_largest_diagram():
    # T(2,1001) is the largest knot that ``color`` solves; compiling it
    # runs no solve
    assert _solver(torus2n(1001))[2] <= DEFAULT_GRID - 2


def test_solver_rejects_psi_out_of_range():
    # checked up front, not only once a seed is found
    for psi in (math.nan, math.inf, 0.0, 7.0):
        with pytest.raises(BadParameter):
            solve_colorings(fig8(), psi)


def test_solver_requires_schedule():
    bare = TangleDiagram(WirtingerCode((1, 2, 0), (1, 1, 1)))
    with pytest.raises(NoSchedule, match="^diagram of 3 crossings has no "
                                         "bridges$"):
        solve_colorings(bare, PI)
    # named by its name, or else its crossing count, not its whole repr
    with pytest.raises(NoSchedule, match="^diagram of 3 crossings has no"):
        propagate(bare, SphereQuandle(PI), (BASEPOINT, BASEPOINT))
    named = TangleDiagram(bare.code, name="bare")
    with pytest.raises(NoSchedule, match="^diagram bare has no bridges$"):
        fox_colorings(named, 3)


def test_empty_schedule_is_a_schedule():
    # n = 2: the bridges and the terminal arc define every arc
    d = TangleDiagram(WirtingerCode((1, 0), (1, 1)), (0, 1), ())
    for psi in (0.5, 2.0, 3.0, 5.5):
        assert solve_colorings(d, psi) == []
    assert fox_colorings(d, 3) == [] and fox_colorings(d, 5) == []


def test_fox_counts():
    assert len(fox_colorings(fig8(), 5)) == 4
    assert len(fox_colorings(fig8(), 7)) == 0
    assert len(fox_colorings(torus2n(3), 3)) == 2


def test_fig8_coloring_builds_no_diagram(monkeypatch):
    built = []
    post_init = TangleDiagram.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(TangleDiagram, "__post_init__", counted)
    for i, psi in enumerate(np.linspace(2.2, 4.0, 10).tolist()):
        fig8_coloring(psi, 1 + i % 2)
    assert built == []
    assert fig8() is not fig8()  # the public maker stays fresh
    assert len(built) == 2


def test_fig8_coloring_refuses_a_beta_off_its_equations(monkeypatch):
    beta1, beta2 = fig8_betas(2.5)
    monkeypatch.setattr(colorings, "fig8_betas",
                        lambda psi: (beta1 + 1e-3, beta2))
    with pytest.raises(ResidualTooLarge, match="fails its own equations"):
        fig8_coloring(2.5, 1)


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


@pytest.mark.parametrize("transform", [partial(rotate_coloring, phi=1.7),
                                       reflect_coloring],
                         ids=["rotate", "reflect"])
def test_transforms_refuse_colorings_off_the_sphere(transform):
    # both raised numpy's broadcast ValueError on these colorings
    conj = to_conj_coloring(star_polygon(5, 1, 0.9 * PI))
    fox = fox_colorings(torus2n(3), 3)[0]
    for c, kind in ((conj, "ConjClassQuandle"), (fox, "DihedralQuandle")):
        with pytest.raises(BadParameter,
                           match=f"sphere colorings, not {kind} ones$"):
            transform(c)


@pytest.mark.parametrize("call,what,bad", [
    (partial(star_beta, 7, 1.5, 2.8), "h", 1.5),
    (partial(star_polygon, 7, 1.5, 2.8), "h", 1.5),
    (partial(star_polygon, 7.0, 1, 2.8), "n", 7.0),
    (partial(torus_interval, "7", 1), "n", "7"),
    (partial(admissible_steps, 7.0, 2.8), "n", 7.0),
    (partial(fig8_coloring, 2.5, 1.0), "branch", 1.0),
    (partial(fig8_coloring, 2.5, "1"), "branch", "1"),
    (partial(fig8_closed_form, 1.6, 1.0), "branch", 1.0),
    (partial(fig8_closed_form, 1.6, "1"), "branch", "1"),
    (partial(torus2n, 7, 1.0), "sign", 1.0),
    (partial(torus2n, 7, -1.0), "sign", -1.0),
    (partial(fox_colorings, torus2n(3), 3.0), "m", 3.0),
    (partial(fox_colorings, torus2n(3), 5.5), "m", 5.5),
    (partial(fox_colorings, torus2n(3), "5"), "m", "5"),
    (partial(DihedralQuandle, 7.0), "m", 7.0),
], ids=["star_beta-h", "star_polygon-h", "star_polygon-n",
        "torus_interval-str", "admissible_steps-n", "fig8-branch",
        "fig8-branch-str", "fig8_closed_form-branch",
        "fig8_closed_form-branch-str", "torus2n-sign", "torus2n-sign-minus",
        "fox_colorings-m", "fox_colorings-m-frac", "fox_colorings-m-str",
        "dihedral-m"])
def test_integer_parameters_are_not_truncated(call, what, bad):
    # star_beta(7, 1.5, 2.8) returned 1.3089, star_polygon raised numpy's
    # IndexError and fig8_coloring(2.5, 1.0) a TypeError;
    # fig8_closed_form(1.6, 1.0) answered for branch 1, and torus2n(7, 1.0)
    # blamed its Wirtinger code's eps values; fox_colorings with m = 3.0 or
    # 5.5 blamed its own elements, m = "5" raised a TypeError from `<`, and
    # axiom_check(DihedralQuandle(7.0)) one from itertools.product
    with pytest.raises(BadParameter,
                       match=f"^{what} must be an integer, not {bad!r}$"):
        call()


def test_numpy_integer_parameters_pass():
    i = np.int64
    assert torus_interval(i(7), i(2)) == torus_interval(7, 2)
    assert star_beta(i(7), i(2), 2.8) == star_beta(7, 2, 2.8)
    assert _bits(star_polygon(i(7), i(2), 2.8).colors) == _bits(
        star_polygon(7, 2, 2.8).colors)
    assert admissible_steps(i(7), 2.8) == admissible_steps(7, 2.8)
    assert _bits(fig8_coloring(2.5, i(2)).colors) == _bits(
        fig8_coloring(2.5, 2).colors)
    assert fig8_closed_form(1.6, i(1)) == fig8_closed_form(1.6, 1)
    assert fig8_closed_form(1.6, True) == fig8_closed_form(1.6, 1)
    for sign in (1, -1):
        assert torus2n(7, i(sign)) == torus2n(7, sign)
    assert torus2n(7, True) == torus2n(7, 1)
    assert fox_colorings(torus2n(3), i(3)) == fox_colorings(torus2n(3), 3)
    assert axiom_check(DihedralQuandle(i(7))) == 0.0
    with pytest.raises(BadParameter, match="^m must be at least 3$"):
        DihedralQuandle(True)


def _sphere_colorings():
    """(id, diagram, coloring) of star polygons, fig8 colorings and solver
    seeds, the three producers of sphere colorings."""
    for n, h, psi in [(5, 1, 0.9 * PI), (5, 2, 0.9 * PI), (21, 7, 2.8)]:
        yield f"star{n},{h}", torus2n(n), star_polygon(n, h, psi)
    for branch in (1, 2):
        yield f"fig8-{branch}", fig8(), fig8_coloring(2.5, branch)
    for label, d, psi in [("fig8", fig8(), 2.5), ("T9", torus2n(9), 2.8),
                          ("T9-", torus2n(9, -1), 2.8),
                          ("parsed", parse(_CUSTOM), 2.5)]:
        seeds = solve_colorings(d, psi)
        assert seeds, label
        for k, (_, c) in enumerate(seeds):
            yield f"seed-{label}-{k}", d, c


_SPHERE_COLORINGS = list(_sphere_colorings())
_sphere_ids = [label for label, _, _ in _SPHERE_COLORINGS]


def _bits(colors):
    return np.asarray(colors).tobytes()


@pytest.mark.parametrize("label,d,c", _SPHERE_COLORINGS, ids=_sphere_ids)
def test_every_sphere_coloring_is_one_array(label, d, c):
    for made in (c, rotate_coloring(c, 1.7), reflect_coloring(c)):
        assert type(made.colors) is np.ndarray, label
        assert made.colors.dtype == float
        assert made.colors.shape == (d.code.n + 1, 3)


@pytest.mark.parametrize("label,d,c", _SPHERE_COLORINGS, ids=_sphere_ids)
def test_transforms_equal_the_per_arc_reference(label, d, c):
    phi = 1.7
    turned = [rotate(row, phi, BASEPOINT) for row in c.colors]
    flipped = [row * np.array([1.0, -1.0, 1.0]) for row in c.colors]
    assert _bits(rotate_coloring(c, phi).colors) == _bits(turned)
    assert _bits(reflect_coloring(c).colors) == _bits(flipped)


@pytest.mark.parametrize("label,d,c", _SPHERE_COLORINGS, ids=_sphere_ids)
def test_a_tuple_of_rows_gives_the_same_results(label, d, c):
    rows = Coloring(c.quandle, tuple(np.array(row) for row in c.colors))
    assert _bits(residual(rows, d)) == _bits(residual(c, d))
    assert eval_word(d, rows) == eval_word(d, c)
    assert galex_lift(d, rows) == galex_lift(d, c)
    assert _bits(rotate_coloring(rows, 1.7).colors) == _bits(
        rotate_coloring(c, 1.7).colors)
    assert _bits(reflect_coloring(rows).colors) == _bits(
        reflect_coloring(c).colors)


def test_residual_detects_perturbation():
    d = torus2n(5)
    c = star_polygon(5, 1, 0.9 * PI)
    cols = list(c.colors)
    bump = cols[3] + np.array([0.0, 0.0, 0.01])
    cols[3] = bump / np.linalg.norm(bump)
    assert residual(Coloring(c.quandle, tuple(cols)), d) >= 1e-4

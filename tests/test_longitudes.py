import decimal
import math
import struct
from itertools import combinations

import numpy as np
import pytest

from longmap.colorings import (
    BASEPOINT,
    FIG8_PSI_HI,
    FIG8_PSI_LO,
    Coloring,
    fig8_betas,
    fig8_coloring,
    fox_colorings,
    reflect_coloring,
    rotate_coloring,
    solve_colorings,
    star_polygon,
    torus_theta_interval,
)
from longmap.errors import (
    ArityMismatch,
    BadParameter,
    NotInLambda,
    NotMinusOne,
    OutOfInterval,
)
from longmap.longitudes import (
    FIG8_BRANCH_SIGN,
    LAMBDA_TOL,
    LongitudeValue,
    eval_word,
    fig8_closed_form,
    galex_lift,
    qn_check,
    t2n_closed_form,
    to_conj_coloring,
    wrap_angle,
)
from longmap.quandles import (
    ConjClassQuandle,
    GAlexQuandle,
    SphereQuandle,
    iso_sphere_to_conj,
)
from longmap.quaternions import Quaternion, distance, rotate
from longmap.tangles import fig8, longitude_word, parse, torus2n

PI = math.pi


def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(PI) == PI
    assert abs(wrap_angle(-PI) - PI) < 1e-15
    assert abs(wrap_angle(3 * PI) - PI) < 1e-12
    assert abs(wrap_angle(-0.3) + 0.3) < 1e-15
    assert abs(wrap_angle(1.5 * PI) + 0.5 * PI) < 1e-15
    assert abs(wrap_angle(-1.5 * PI) - 0.5 * PI) < 1e-15


def test_t2n_closed_form_values():
    # theta = pi/2: phi = wrap(pi - 3*pi) = 0, so the value is 1
    v = t2n_closed_form(3, PI / 2)
    assert abs(v.phi) < 1e-12
    assert distance(v.q, Quaternion.one()) < 1e-12
    # theta = pi/3: phi = wrap(-pi) = pi, the value is -1
    v = t2n_closed_form(3, PI / 3)
    assert abs(v.phi - PI) < 1e-12
    # generic point against -cos(2n t) + sin(2n t) i
    t = 0.37 * PI
    v = t2n_closed_form(5, t)
    assert abs(v.q.a + math.cos(10 * t)) < 1e-12
    assert abs(v.q.b - math.sin(10 * t)) < 1e-12
    m = t2n_closed_form(5, t, mirror=True)
    assert distance(m.q, v.q.inverse()) < 1e-12


def test_t2n_closed_form_domain():
    with pytest.raises(OutOfInterval):
        t2n_closed_form(3, 0.1)
    with pytest.raises(BadParameter):
        t2n_closed_form(4, 1.0)


def test_fig8_closed_form_values():
    for branch in (1, 2):
        v = fig8_closed_form(PI / 2, branch)
        assert distance(v.q, Quaternion.one()) <= 1e-9
    # frozen 50-digit evaluation at theta = 0.45*pi
    v1 = fig8_closed_form(0.45 * PI, 1)
    v2 = fig8_closed_form(0.45 * PI, 2)
    assert abs(v1.q.a - 0.760073510670101) < 1e-12
    assert abs(abs(v1.q.b) - 0.6498371014166765) < 1e-12
    # branches are complex conjugates
    assert abs(v1.q.a - v2.q.a) < 1e-15
    assert abs(v1.q.b + v2.q.b) < 1e-15
    with pytest.raises(OutOfInterval):
        fig8_closed_form(0.2, 1)
    with pytest.raises(BadParameter):
        fig8_closed_form(PI / 2, 0)


def test_trivial_coloring_evaluates_to_one():
    d = torus2n(3)
    q = SphereQuandle(0.9 * PI)
    c = Coloring(q, tuple(BASEPOINT for _ in range(4)))
    v = eval_word(d, c)
    assert distance(v.q, Quaternion.one()) <= 1e-12


@pytest.mark.parametrize("n,h", [(3, 1), (5, 2), (7, 1), (9, 3)])
def test_torus_eval_matches_closed_form(n, h):
    d = torus2n(n)
    lo, hi = torus_theta_interval(n, h)
    for theta in np.linspace(lo + 0.03, hi - 0.03, 9):
        c = star_polygon(n, h, 2 * PI - 2 * theta)
        v = eval_word(d, c)
        want = t2n_closed_form(n, theta)
        assert distance(v.q, want.q) <= 1e-8


@pytest.mark.parametrize("branch", [1, 2])
def test_fig8_eval_matches_closed_form(branch):
    d = fig8()
    for theta in np.linspace(PI / 3 + 0.03, 2 * PI / 3 - 0.03, 15):
        c = fig8_coloring(2 * PI - 2 * theta, branch)
        v = eval_word(d, c)
        want = fig8_closed_form(theta, branch)
        assert distance(v.q, want.q) <= 1e-8


def test_galex_lift_agrees():
    d = torus2n(7)
    c = star_polygon(7, 2, 0.8 * PI)
    assert distance(galex_lift(d, c), eval_word(d, c).q) <= 1e-9
    d8 = fig8()
    c8 = fig8_coloring(1.1 * PI, 2)
    assert distance(galex_lift(d8, c8), eval_word(d8, c8).q) <= 1e-9


def test_mirror_inverse():
    for n in (3, 5, 7):
        pos, neg = torus2n(n), torus2n(n, -1)
        c = star_polygon(n, 1, 0.95 * PI)
        mirrored = reflect_coloring(c)
        assert distance(
            eval_word(neg, mirrored).q, eval_word(pos, c).q.inverse()
        ) <= 1e-8


def test_qn_check():
    d = torus2n(5)
    c = star_polygon(5, 1, 0.9 * PI)
    qn = qn_check(d, c)
    assert distance(qn, Quaternion(-1.0, 0.0, 0.0, 0.0)) <= 1e-9


@pytest.mark.parametrize("n", [3, 5, 7, 21])
def test_qn_check_on_reflected_star_polygons(n):
    # the reflection colors the mirror torus2n(n, -1), whose word leads
    # with x_0^n: the identity reads q_0^(2n) q^n there, and q_0^(-2n) q^n
    # raised NotMinusOne on a valid coloring
    d = torus2n(n, -1)
    for h in range(1, (n - 1) // 2 + 1):
        lo, hi = torus_theta_interval(n, h)
        for theta in np.linspace(lo + 0.02, hi - 0.02, 5):
            c = reflect_coloring(star_polygon(n, h, 2 * PI - 2 * theta))
            qn = qn_check(d, c)
            assert distance(qn, Quaternion(-1.0, 0.0, 0.0, 0.0)) <= 1e-9


def test_qn_check_fails_on_a_nan_arc():
    # a NaN q^n once passed `distance > LAMBDA_TOL`, and eval_word then
    # raised NotInLambda in its place
    c = star_polygon(7, 2, 0.8 * PI)
    colors = np.array(c.colors, dtype=float)
    colors[0] = math.nan
    with pytest.raises(NotMinusOne, match="q\\^n"):
        qn_check(torus2n(7), Coloring(c.quandle, colors))


def test_rotation_invariance():
    d = fig8()
    c = fig8_coloring(0.9 * PI, 1)
    base = eval_word(d, c).q
    for phi in (0.3, 2.0, 5.5):
        assert distance(eval_word(d, rotate_coloring(c, phi)).q, base) <= 1e-8


def test_to_conj_coloring():
    c = star_polygon(3, 1, 0.9 * PI)
    cc = to_conj_coloring(c)
    assert isinstance(cc.quandle, ConjClassQuandle)
    assert abs(cc.quandle.theta - (PI - 0.45 * PI)) < 1e-12
    # converting twice is a no-op
    assert to_conj_coloring(cc) is cc


def test_to_conj_coloring_rejects_a_fox_coloring():
    fox = fox_colorings(torus2n(3), 3)[0]
    with pytest.raises(BadParameter, match="sphere or conjugation"):
        to_conj_coloring(fox)


def test_from_quaternion_reads_phi():
    x = Quaternion.exp(0.8, [1.0, 0.0, 0.0])
    assert LongitudeValue.from_quaternion(Quaternion.one(), x).phi == 0.0
    half = LongitudeValue.from_quaternion(Quaternion.exp(PI / 2, [1, 0, 0]), x)
    assert abs(half.phi - PI / 2) < 1e-12


def test_off_axis_value_rejected():
    # exp(2.1, j) does not commute with a basepoint on the i axis
    x = Quaternion.exp(0.8, [1.0, 0.0, 0.0])
    with pytest.raises(NotInLambda, match="commute"):
        LongitudeValue.from_quaternion(Quaternion.exp(2.1, [0, 1, 0]), x)


def test_off_circle_value_rejected():
    # j commutes with the basepoint 1 but lies off the circle about i
    with pytest.raises(NotInLambda, match="circle"):
        LongitudeValue.from_quaternion(Quaternion(0.0, 0.0, 1.0, 0.0),
                                       Quaternion.one())


@pytest.mark.parametrize("fn", [eval_word, galex_lift, qn_check],
                         ids=lambda fn: fn.__name__)
def test_arity_is_checked_before_the_colors(fn):
    # three colors for the four arcs of T(2,3), one of them not a sphere
    # point: the arity is wrong whatever the colors are
    c = Coloring(SphereQuandle(0.9 * PI),
                 (BASEPOINT, np.zeros(3), np.array([0.0, 1.0, 0.0])))
    with pytest.raises(ArityMismatch):
        fn(torus2n(3), c)


def _ref_conj_colors(coloring):
    """The conjugation colors as Quaternions, a sphere point at a time."""
    if isinstance(coloring.quandle, ConjClassQuandle):
        rows = coloring.colors
    else:
        theta = PI - coloring.quandle.psi / 2.0
        rows = [iso_sphere_to_conj([u], theta)[0] for u in coloring.colors]
    return [Quaternion(*map(float, r)) for r in rows]


def _ref_eval_word(diagram, coloring):
    """The longitude word, one ``Quaternion`` product per factor."""
    cols = _ref_conj_colors(coloring)
    word = longitude_word(diagram.code)
    value = cols[0].pow(word.lead_exponent)
    for arc, e in word.factors:
        value = value * (cols[arc] if e > 0 else cols[arc].inverse())
    return LongitudeValue.from_quaternion(value, basepoint=cols[0])


def _ref_galex_lift(diagram, coloring):
    cols = _ref_conj_colors(coloring)
    x, g = cols[0], Quaternion.one()
    for arc, e in longitude_word(diagram.code).factors:
        u = cols[arc] if e > 0 else cols[arc].inverse()
        g = (x.inverse() if e > 0 else x) * g * u
    return g


def _bits(q):
    """The bytes of a Quaternion or of a row (a, b, c, d)."""
    return struct.pack("<4d", *q)


_CUSTOM = parse("tangle n=4\nkappa=2,3,0,1\neps=+,-,+,-\nbridges=0,2\n"
                "schedule=1:1;3:3\n")


def _pinned_cases():
    for n in (3, 7, 21, 51, 101):
        pos, neg = torus2n(n), torus2n(n, -1)
        for h in sorted({1, (n + 1) // 4, (n - 1) // 2}):
            lo, hi = torus_theta_interval(n, h)
            for theta in np.linspace(lo, hi, 5)[1:-1]:
                c = star_polygon(n, h, 2 * PI - 2 * theta)
                yield pos, c
                yield neg, reflect_coloring(c)
    for branch in (1, 2):
        for theta in np.linspace(PI / 3, 2 * PI / 3, 6)[1:-1]:
            yield fig8(), fig8_coloring(2 * PI - 2 * theta, branch)
    c = star_polygon(7, 2, 0.8 * PI)
    yield torus2n(7), to_conj_coloring(c)
    for d, psi in ((fig8(), 1.1 * PI), (torus2n(9), 0.9 * PI),
                   (torus2n(21, -1), 1.3 * PI), (_CUSTOM, 0.8 * PI),
                   (_CUSTOM, 1.15 * PI)):
        for _beta, c in solve_colorings(d, psi):
            yield d, c


def test_word_routes_bitwise_equal_to_quaternion_products():
    cases = 0
    for d, c in _pinned_cases():
        got, want = eval_word(d, c), _ref_eval_word(d, c)
        assert _bits(got.q) == _bits(want.q)
        assert got.phi == want.phi
        assert _bits(galex_lift(d, c)) == _bits(_ref_galex_lift(d, c))
        got_colors = to_conj_coloring(c).colors
        assert isinstance(got_colors, np.ndarray) and got_colors.dtype == float
        assert got_colors.shape == (len(c.colors), 4)
        want_colors = _ref_conj_colors(c)
        assert [_bits(q) for q in got_colors] == [_bits(q) for q in want_colors]
        cases += 1
    assert cases > 80


def _outcome(route, diagram, coloring):
    """The error a route raises, or its value with each NaN as None."""
    try:
        value = route(diagram, coloring)
    except (NotInLambda, ValueError) as exc:
        return type(exc), str(exc)
    q = getattr(value, "q", value)
    return tuple(None if math.isnan(x) else x for x in q)


@pytest.mark.parametrize("bad, word_gives, lift_gives", [
    (Quaternion(math.nan, math.nan, math.nan, math.nan),
     (NotInLambda, "longitude value does not commute with the basepoint"),
     (None,) * 4),
    (Quaternion(0.0, 0.0, 0.0, 0.0), (ValueError, "zero quaternion"),
     (ValueError, "zero quaternion")),
], ids=["nan", "zero"])
def test_word_routes_fail_as_the_quaternion_products_do(bad, word_gives,
                                                        lift_gives):
    # a NaN arc makes every later product NaN, and a zero arc a product of
    # norm 0: the routes' own products must give what __mul__'s folds give,
    # on the (arcs, 4) array and on a caller's tuple of Quaternions
    d = fig8()
    c = to_conj_coloring(fig8_coloring(1.1 * PI, 2))
    factors = longitude_word(d.code).factors
    assert {e for _arc, e in factors} == {1, -1}
    for arc in sorted({arc for arc, _e in factors}):
        rows = c.colors.copy()
        rows[arc] = bad
        for colors in (rows, tuple(map(Quaternion._make, rows.tolist()))):
            bad_c = Coloring(c.quandle, colors)
            assert (_outcome(eval_word, d, bad_c)
                    == _outcome(_ref_eval_word, d, bad_c) == word_gives)
            assert (_outcome(galex_lift, d, bad_c)
                    == _outcome(_ref_galex_lift, d, bad_c) == lift_gives)


def _all_floats(q):
    return isinstance(q, Quaternion) and all(
        type(x) is float for x in (q.a, q.b, q.c, q.d))


def test_every_quaternion_has_float_components():
    # Quaternion.exp once built numpy scalars from a numpy axis, so the
    # whole product chain of eval_word ran on np.float64
    rng = np.random.default_rng(11)
    axis = np.array([0.6, 0.0, 0.8])
    q = Quaternion.exp(0.7, axis)
    made = [
        q,
        q.pow(5),
        q.pow(-101),
        q.pow(np.int64(3)),
        Quaternion.from_components(0.1, -0.2, 0.3, 0.4),
        q * Quaternion.exp(1.1, [0.0, 1.0, 0.0]),
        q.inverse(),
        -q,
        ConjClassQuandle(1.2).sample(rng),
        GAlexQuandle(q).sample(rng),
        t2n_closed_form(101, 1.5).q,
        fig8_closed_form(1.5, 1).q,
        fig8_closed_form(1.5, 2).q,
    ]
    d = torus2n(101)
    c = star_polygon(101, 50, 2 * PI - 2 * 1.5)
    made += [eval_word(d, c).q, galex_lift(d, c), qn_check(d, c)]
    assert longitude_word(d.code).lead_exponent == -101
    bad = [q for q in made if not _all_floats(q)]
    assert bad == []
    # the conjugation arrays give their components as floats
    rows = [*iso_sphere_to_conj([axis], 1.2).tolist(),
            *to_conj_coloring(c).colors.tolist()]
    assert len(rows) == 103
    assert all(type(x) is float for row in rows for x in row)


# a + bi + cj + dk is the SU(2) matrix a + b*_I + c*_J + d*_K
_I = np.array([[1j, 0], [0, -1j]])
_J = np.array([[0, 1], [-1, 0]], dtype=complex)
_K = np.array([[0, 1j], [1j, 0]])


def _matrix_longitude(diagram, coloring):
    """The longitude word of a sphere coloring, multiplied as 2x2 complex
    SU(2) matrices with numpy ``@``: each arc's u becomes
    exp(theta, u) = cos(theta) + sin(theta) u, theta = pi - psi/2.  Shares
    neither ``Quaternion.__mul__``, ``qmul`` nor ``to_conj_coloring``."""
    theta = PI - coloring.quandle.psi / 2.0
    mats = [math.cos(theta) * np.eye(2)
            + math.sin(theta) * (u[0] * _I + u[1] * _J + u[2] * _K)
            for u in coloring.colors]
    word = longitude_word(diagram.code)
    x0 = mats[0] if word.lead_exponent > 0 else mats[0].conj().T
    value = np.linalg.matrix_power(x0, abs(word.lead_exponent))
    for arc, e in word.factors:
        value = value @ (mats[arc] if e > 0 else mats[arc].conj().T)
    return Quaternion(value[0, 0].real, value[0, 0].imag,
                      value[0, 1].real, value[0, 1].imag)


def test_matrix_route_agrees_with_word_and_lift():
    # a third longitude route, on the solver's seeds of diagrams with and
    # without closed forms
    diagrams = [fig8(), _CUSTOM]
    diagrams += [torus2n(n, sign) for n in range(3, 22, 2) for sign in (1, -1)]
    seeds = 0
    for d in diagrams:
        for psi in (0.8 * PI, 1.15 * PI):
            for _beta, c in solve_colorings(d, psi):
                by_matrix = _matrix_longitude(d, c)
                assert distance(by_matrix, eval_word(d, c).q) <= LAMBDA_TOL
                assert distance(by_matrix, galex_lift(d, c)) <= LAMBDA_TOL
                seeds += 1
    assert seeds > 100


_PI_50 = decimal.Decimal(
    "3.14159265358979323846264338327950288419716939937510582097494459")


def _phase_error(phi, n, psi, sign):
    """|phi - phi_exact| mod 2 pi for T(2,n) with the given sign, where
    phi_exact = sign (pi + n psi) at the float psi, to 50 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        exact = sign * (_PI_50 + n * decimal.Decimal(psi))
        d = abs((decimal.Decimal(phi) - exact) % (2 * _PI_50))
        return float(min(d, 2 * _PI_50 - d))


@pytest.mark.parametrize("n", [3, 7, 21, 51, 101])
def test_torus_longitudes_match_the_exact_phase(n):
    # an oracle that shares no derivation with the routes: at a float psi
    # the longitude of T(2,n) is exp(pi + n psi, i), the inverse for the
    # mirror; the bounds, linear in n, leave at least 4x headroom over the
    # worst errors measured: 9.6e-15 at n = 21 on star polygons (closed
    # form), 2.1e-13 at n = 101 on solver seeds
    star_tol, seed_tol = n * 2e-15, n * 1e-14
    for sign in (1, -1):
        d = torus2n(n, sign)
        for h in sorted({1, (n + 1) // 4, (n - 1) // 2}):
            lo, hi = torus_theta_interval(n, h)
            for theta in np.linspace(lo, hi, 5)[1:-1].tolist():
                psi = 2 * PI - 2 * theta
                c = star_polygon(n, h, psi)
                c = c if sign > 0 else reflect_coloring(c)
                g = galex_lift(d, c)
                closed = t2n_closed_form(n, PI - psi / 2, mirror=sign < 0)
                for phi in (eval_word(d, c).phi, math.atan2(g.b, g.a),
                            closed.phi):
                    assert _phase_error(phi, n, psi, sign) <= star_tol
        for psi in (0.8 * PI, 2.8):
            seeds = solve_colorings(d, psi)
            assert seeds
            for _beta, c in seeds:
                err = _phase_error(eval_word(d, c).phi, n, psi, sign)
                assert err <= seed_tol


def _dec_cos(x):
    """cos of a Decimal by its Taylor series, the recipe of the decimal
    docs; two guard digits over the context's precision."""
    decimal.getcontext().prec += 2
    i, lasts, s, fact, num, sign = 0, 0, 1, 1, 1, 1
    while s != lasts:
        lasts = s
        i += 2
        fact *= i * (i - 1)
        num *= x * x
        sign *= -1
        s += num / fact * sign
    decimal.getcontext().prec -= 2
    return +s


def _dec_sin(x):
    """sin of a Decimal, as ``_dec_cos``."""
    decimal.getcontext().prec += 2
    i, lasts, s, fact, num, sign = 1, 0, x, 1, x, 1
    while s != lasts:
        lasts = s
        i += 2
        fact *= i * (i - 1)
        num *= x * x
        sign *= -1
        s += num / fact * sign
    decimal.getcontext().prec -= 2
    return +s


def _fig8_error(q, psi, branch):
    """|q - exact| for the figure-eight longitude of the branch at the
    float psi, to 50 digits: with c = cos psi and s = sin psi, the exact
    value is (2c^2 - c - 2) - sign sqrt(4c^2 - 4c - 3) s i, of norm 1
    exactly; it needs no pi."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        x = decimal.Decimal(psi)
        c, s = _dec_cos(x), _dec_sin(x)
        re = 2 * c * c - c - 2
        im = -decimal.Decimal(FIG8_BRANCH_SIGN[branch]) * (
            4 * c * c - 4 * c - 3).sqrt() * s
        d = [decimal.Decimal(v) for v in q]
        return float(((d[0] - re) ** 2 + (d[1] - im) ** 2 + d[2] ** 2
                      + d[3] ** 2).sqrt())


_FIG8_PSIS = np.linspace(FIG8_PSI_LO + 0.01, FIG8_PSI_HI - 0.01, 41).tolist()


def test_fig8_longitudes_match_the_exact_value():
    # an oracle that shares no derivation with the routes, as for the
    # torus knots; the bounds leave at least 4x headroom over the worst
    # errors measured on these psi, over all four components: 1.4e-15
    # for the word, 1.5e-15 for the lift, 3.1e-15 for the float closed
    # form (at the rounded theta) and 2.7e-15 on solver seeds
    d = fig8()
    word_tol, closed_tol, seed_tol = 6.5e-15, 1.3e-14, 1.1e-14
    for psi in _FIG8_PSIS:
        for branch in (1, 2):
            c = fig8_coloring(psi, branch)
            assert _fig8_error(eval_word(d, c).q, psi, branch) <= word_tol
            assert _fig8_error(galex_lift(d, c), psi, branch) <= word_tol
            closed = fig8_closed_form(PI - psi / 2, branch).q
            assert _fig8_error(closed, psi, branch) <= closed_tol
        # each solver seed on the branch of the nearer closed-form seed
        want = fig8_betas(psi)
        seeds = solve_colorings(d, psi)
        branches = [1 + int(abs(b - want[1]) < abs(b - want[0]))
                    for b, _ in seeds]
        assert sorted(branches) == [1, 2], psi
        for (_beta, c), branch in zip(seeds, branches):
            assert _fig8_error(eval_word(d, c).q, psi, branch) <= seed_tol
            assert _fig8_error(galex_lift(d, c), psi, branch) <= seed_tol


# ---------------------------------------------------------------------------
# finite subquandles: Eisermann's finite-group oracle on any diagram


def _icosahedral_axes():
    """Unit vertex, face and edge axes (12, 20 and 30) of the icosahedron
    whose vertices are the cyclic shifts of (0, +-1, +-golden ratio); its
    edges are the vertex pairs at distance 2."""
    g = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array([np.roll([0.0, s, t * g], k) for k in range(3)
                      for s in (1.0, -1.0) for t in (1.0, -1.0)])
    edges = [e for e in combinations(range(12), 2)
             if abs(np.linalg.norm(verts[e[0]] - verts[e[1]]) - 2.0) < 1e-9]
    faces = [f for f in combinations(range(12), 3)
             if all(e in edges for e in combinations(f, 2))]
    axes = [verts, *(np.array([verts[list(c)].sum(axis=0) for c in cells])
                     for cells in (faces, edges))]
    return [a / np.linalg.norm(a, axis=1, keepdims=True) for a in axes]


_VERTEX_AXES, _FACE_AXES, _EDGE_AXES = _icosahedral_axes()
# each axis type is closed under the turns of the icosahedral group about
# its own axes, so it is a finite subquandle of SphereQuandle(psi)
_FINITE_CASES = [*((_VERTEX_AXES, 2 * PI * k / 5) for k in range(1, 5)),
                 (_FACE_AXES, 2 * PI / 3), (_FACE_AXES, 4 * PI / 3),
                 (_EDGE_AXES, PI)]
_FINITE_IDS = ["vertex-1", "vertex-2", "vertex-3", "vertex-4", "face-1",
               "face-2", "edge"]
_FINITE_DIAGRAMS = [fig8(), _CUSTOM, *(torus2n(n, sign)
                                       for n in (*range(3, 22, 2), 31, 51,
                                                 101)
                                       for sign in (1, -1))]


def _finite_quandle(axes, psi):
    """The axes turned so that the first is the basepoint, and the index
    tables of the crossing relation for signs +1 and -1, each image of
    ``rotate`` snapped to its nearest axis."""
    p, q = axes[0], axes[1]
    u = q - (q @ p) * p
    u /= np.linalg.norm(u)
    points = axes @ np.array([p, u, np.cross(p, u)]).T
    tables = {}
    for sign in (1, -1):
        images = rotate(points[:, np.newaxis], sign * psi, points[np.newaxis])
        snap = np.linalg.norm(images[:, :, np.newaxis] - points, axis=-1)
        tables[sign] = np.argmin(snap, axis=-1)
        assert np.max(np.min(snap, axis=-1)) < 1e-9
    return points, tables


def _finite_colorings(diagram, points, tables):
    """Every coloring of the diagram by the finite quandle with arc 0 on
    the basepoint: each other point as the seed, propagated as indices
    through ``steps()``, kept where every crossing holds as an index
    equality.  An array of shape (colorings, arcs) of point indices."""
    code = diagram.code
    seeds = np.arange(1, len(points))
    arcs = [None] * (code.n + 1)
    arcs[0], arcs[diagram.bridge_arcs[1]] = 0 * seeds, seeds
    if diagram.terminal_is_initial:
        arcs[-1] = arcs[0]
    for target, source, over, sign in diagram.steps():
        arcs[target] = tables[sign][arcs[source], arcs[over]]
    ok = np.all([arcs[i + 1] == tables[code.eps[i]][arcs[i], arcs[k]]
                 for i, k in enumerate(code.kappa)], axis=0)
    return np.stack(arcs, axis=1)[ok]


@pytest.mark.parametrize("axes,psi", _FINITE_CASES, ids=_FINITE_IDS)
def test_finite_colorings_are_solver_seeds(axes, psi):
    # a finite seed that the solver misses is a solver defect; a solver
    # seed with no finite coloring is not
    points, tables = _finite_quandle(axes, psi)
    found = 0
    for d in _FINITE_DIAGRAMS:
        solved = solve_colorings(d, psi)
        betas = np.array([b for b, _ in solved])
        for arcs in _finite_colorings(d, points, tables):
            colors = points[arcs]
            beta = math.acos(colors[0] @ colors[d.bridge_arcs[1]])
            near = np.flatnonzero(np.abs(betas - beta) <= 1e-8)
            assert len(near) == 1, (d, psi, beta)
            want = solved[near[0]][1]
            # turned about the basepoint, the seed lies on E
            seed = colors[d.bridge_arcs[1]]
            turned = rotate(colors, -math.atan2(seed[2], seed[1]), BASEPOINT)
            assert np.max(np.abs(turned - want.colors)) <= 1e-9, (d, beta)
            c = Coloring(SphereQuandle(psi), tuple(turned))
            value, want_q = eval_word(d, c), eval_word(d, want).q
            for q in (value.q, galex_lift(d, c), _matrix_longitude(d, c)):
                assert distance(q, want_q) <= LAMBDA_TOL, (d, beta)
            steps = value.phi / (PI / 30)
            assert abs(steps - round(steps)) * PI / 30 <= 1e-6
            found += 1
    assert found > 0

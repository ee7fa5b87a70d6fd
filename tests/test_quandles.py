import math

import numpy as np
import pytest

from longmap.errors import BadParameter, MixedQuandleError
from longmap.quandles import (
    AXIOM_SAMPLES,
    ConjClassQuandle,
    DihedralQuandle,
    EisQuandle,
    GAlexQuandle,
    SphereQuandle,
    axiom_check,
    eis_to_galex,
    iso_sphere_to_conj,
    random_sphere_point,
    random_unit_quaternion,
)
from longmap.quaternions import Quaternion, distance, qdistance, rotate

X = Quaternion.exp(0.7, [1.0, 0.0, 0.0])


def instances():
    return [
        SphereQuandle(1.234),
        ConjClassQuandle(0.9),
        DihedralQuandle(7),
        GAlexQuandle(X),
        EisQuandle(X),
    ]


@pytest.mark.parametrize("q", instances(), ids=lambda q: type(q).__name__)
def test_axioms(q):
    rng = np.random.default_rng(11)
    assert axiom_check(q, rng=rng) <= 1e-10


def _looped_check(q, rng):
    """axiom_check's score one triple at a time, on single elements."""
    worst = 0.0
    for _ in range(AXIOM_SAMPLES):
        a, b, c = q.sample(rng), q.sample(rng), q.sample(rng)
        worst = max(
            worst,
            q.distance(q.op(a, a), a),
            q.distance(q.op(q.op(a, b), c), q.op(q.op(a, c), q.op(b, c))),
            q.distance(q.op_inv(q.op(a, b), b), a),
            q.distance(q.op(q.op_inv(a, b), b), a),
        )
    return worst


@pytest.mark.parametrize("psi", [0.3, 1.234, 2.9, 5.5, 6.2])
def test_stacked_sphere_check_equals_the_triple_loop(psi):
    q = SphereQuandle(psi)
    for seed in (0, 11, 20240915):
        stacked_rng = np.random.default_rng(seed)
        looped_rng = np.random.default_rng(seed)
        assert axiom_check(q, rng=stacked_rng) == _looped_check(
            q, looped_rng
        )
        assert (stacked_rng.bit_generator.state
                == looped_rng.bit_generator.state)


@pytest.mark.parametrize("q", [
    ConjClassQuandle(0.9), ConjClassQuandle(2.8), GAlexQuandle(X),
    EisQuandle(Quaternion.exp(2.1, [0.0, 0.6, 0.8])),
], ids=["conj0.9", "conj2.8", "galex", "eis"])
def test_stacked_quaternion_check_equals_the_triple_loop(q):
    # the stacked products are bitwise Quaternion.__mul__, so each maximum
    # is the per-triple one, and the draws are the same
    for seed in (0, 1, 11, 16, 20240915):
        stacked_rng = np.random.default_rng(seed)
        looped_rng = np.random.default_rng(seed)
        assert axiom_check(q, rng=stacked_rng) == _looped_check(
            q, looped_rng
        )
        assert (stacked_rng.bit_generator.state
                == looped_rng.bit_generator.state)


def test_one_foreign_row_fails_the_stack():
    rng = np.random.default_rng(4)
    conj, galex, eis = ConjClassQuandle(0.9), GAlexQuandle(X), EisQuandle(X)
    cases = [
        (conj, [conj.sample(rng) for _ in range(9)],
         Quaternion.exp(0.5, [0.0, 1.0, 0.0])),
        (galex, [galex.sample(rng) for _ in range(9)],
         Quaternion(0.5, 0.5, 0.0, 0.0)),
        (eis, [eis.sample(rng) for _ in range(9)],
         (X, Quaternion.exp(1.0, [0.0, 0.0, 1.0]))),
    ]
    for q, elems, foreign in cases:
        good = q.stack(elems)
        assert q.validate(good).tolist() == [True] * 9
        q.op(good, good)
        elems[6] = foreign
        bad = q.stack(elems)
        assert q.validate(bad).tolist() == [True] * 6 + [False] + [True] * 2
        for a, b in ((good, bad), (bad, good)):
            with pytest.raises(MixedQuandleError):
                q.op(a, b)
            with pytest.raises(MixedQuandleError):
                q.op_inv(a, b)


def test_random_draws_equal_the_numpy_norm():
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(2000):
        v = ref.normal(size=3)
        assert np.array_equal(random_sphere_point(rng), v / np.linalg.norm(v))
        v = ref.normal(size=4)
        assert random_unit_quaternion(rng) == tuple(
            (v / np.linalg.norm(v)).tolist()
        )


def test_axiom_check_keeps_a_nan_violation(monkeypatch):
    # distance runs once per axiom over the whole stack: one NaN row of
    # the second axiom must survive the maximum
    q = ConjClassQuandle(0.9)
    calls = []

    def nan_row(self, a, b):
        d = qdistance(a, b)
        calls.append(d.shape)
        if len(calls) == 2:
            d[17] = math.nan
        return d

    monkeypatch.setattr(ConjClassQuandle, "distance", nan_row)
    assert math.isnan(axiom_check(q, rng=np.random.default_rng(0)))
    assert calls == [(AXIOM_SAMPLES,)] * 4


def test_eis_distance_keeps_a_nan_coordinate():
    a = EisQuandle(X).sample(np.random.default_rng(16))
    b = (a[0], Quaternion(math.nan, 0.0, 0.0, 0.0))
    assert math.isnan(EisQuandle(X).distance(a, b))


def test_dihedral_is_exact():
    assert axiom_check(DihedralQuandle(9)) == 0.0


def test_dihedral_examples():
    q = DihedralQuandle(5)
    assert q.op(1, 3) == 0      # 2*3 - 1 mod 5
    assert q.op(4, 4) == 4
    assert q.op_inv(0, 3) == q.op(0, 3)  # self-inverse


def test_sphere_op_is_rotation():
    q = SphereQuandle(math.pi / 2)
    got = q.op([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    assert np.allclose(got, [0.0, 1.0, 0.0], atol=1e-15)
    back = q.op_inv(got, [0.0, 0.0, 1.0])
    assert np.allclose(back, [1.0, 0.0, 0.0], atol=1e-15)


def test_sphere_psi_range():
    with pytest.raises(BadParameter):
        SphereQuandle(0.0)
    with pytest.raises(BadParameter):
        SphereQuandle(2 * math.pi)


def test_conj_class_rejects_foreign_elements():
    q = ConjClassQuandle(0.9)
    good = Quaternion.exp(0.9, [0.0, 1.0, 0.0])
    bad = Quaternion.exp(0.5, [0.0, 1.0, 0.0])
    q.op(good, good)
    with pytest.raises(MixedQuandleError):
        q.op(good, bad)


def test_conj_class_rejects_a_non_unit_quaternion():
    # right angle pi/4, norm 0.707: op would renormalize it into another
    # element
    q = ConjClassQuandle(math.pi / 4)
    short = Quaternion(0.5, 0.5, 0.0, 0.0)
    assert not q.validate(short)
    with pytest.raises(MixedQuandleError):
        q.op(short, Quaternion.exp(math.pi / 4, [0.0, 1.0, 0.0]))


def test_sphere_conj_isomorphism():
    # u -> exp(theta, u) carries the psi-sphere quandle onto the conjugacy
    # class of angle theta when psi = 2*pi - 2*theta
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(500):
        theta = rng.uniform(0.05, math.pi - 0.05)
        sq = SphereQuandle(2 * math.pi - 2 * theta)
        cq = ConjClassQuandle(theta)
        u, v = random_sphere_point(rng), random_sphere_point(rng)
        # the rows of the (3, 4) array are elements of the class as they are
        lhs, iu, iv = iso_sphere_to_conj([sq.op(u, v), u, v], theta)
        rhs = cq.op(iu, iv)
        worst = max(worst, qdistance(lhs, rhs))
    assert worst <= 1e-10


def test_eis_galex_projection():
    eq, gq = EisQuandle(X), GAlexQuandle(X)
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(500):
        a, b = eq.sample(rng), eq.sample(rng)
        lhs = eis_to_galex(eq.op(a, b))
        rhs = gq.op(eis_to_galex(a), eis_to_galex(b))
        worst = max(worst, distance(lhs, rhs))
        # op_inv projects the same way
        worst = max(
            worst,
            distance(
                eis_to_galex(eq.op_inv(a, b)),
                gq.op_inv(eis_to_galex(a), eis_to_galex(b)),
            ),
        )
    assert worst <= 1e-10


def test_eis_first_coordinate_stays_in_class():
    eq = EisQuandle(X)
    rng = np.random.default_rng(14)
    for _ in range(50):
        a, b = eq.sample(rng), eq.sample(rng)
        pa, ga = eq.op(a, b)
        assert distance(pa, ga.inverse() * X * ga) <= 1e-9


def test_eis_rejects_inconsistent_pair():
    eq = EisQuandle(X)
    rng = np.random.default_rng(15)
    a = eq.sample(rng)
    bad = (a[0], Quaternion.exp(1.0, [0.0, 0.0, 1.0]) * a[1])
    with pytest.raises(MixedQuandleError):
        eq.op(a, bad)


@pytest.mark.parametrize("theta", [0.0, math.pi, -0.5, 4.0, math.nan])
def test_conj_class_rejects_a_bad_theta(theta):
    with pytest.raises(BadParameter, match="theta must lie in"):
        ConjClassQuandle(theta)


@pytest.mark.parametrize("m", [2, 1, 0, -5])
def test_dihedral_rejects_m_below_3(m):
    with pytest.raises(BadParameter, match="m must be at least 3"):
        DihedralQuandle(m)


@pytest.mark.parametrize("q", [ConjClassQuandle(0.9), GAlexQuandle(X)],
                         ids=["ConjClass", "GAlex"])
def test_quaternion_quandles_reject_a_non_quaternion(q):
    # a point of S^2, an int row and a plain tuple are not quaternions
    for a in (np.array([1.0, 0.0, 0.0]), np.array([1, 0, 0, 0]),
              (1.0, 0.0, 0.0, 0.0)):
        assert q.validate(a) is False
        with pytest.raises(MixedQuandleError):
            q.op(a, q.sample(np.random.default_rng(17)))


def test_eis_rejects_a_malformed_pair():
    eq = EisQuandle(X)
    good = eq.sample(np.random.default_rng(18))
    stacked = (np.array([good[0]] * 2), np.array([good[1]]))
    for a in (good[0], [good[0], good[1]], (good[0],), (*good, good[1]),
              (good[0], np.array([1.0, 0.0, 0.0])), stacked):
        assert eq.validate(a) is False
        with pytest.raises(MixedQuandleError):
            eq.op(a, good)


def test_iso_rejects_bad_theta():
    for theta in (0.0, math.pi, -1.0, 4.0):
        with pytest.raises(BadParameter):
            iso_sphere_to_conj([[1.0, 0.0, 0.0]], theta)


def _plain_iso(u, theta):
    """u -> exp(theta, u) in plain floats, renormalized as a product is."""
    x, y, z = (float(c) for c in u)
    nrm = math.sqrt(x * x + y * y + z * z)
    s = math.sin(theta)
    return Quaternion.from_components(
        math.cos(theta), s * (x / nrm), s * (y / nrm), s * (z / nrm)
    )


def test_iso_rows_equal_the_one_point_map():
    rng = np.random.default_rng(5)
    for theta in (1e-3, 0.4, math.pi / 2, 2.9):
        points = rng.normal(size=(200, 3)) * rng.uniform(1e-3, 1e3, (200, 1))
        rows = iso_sphere_to_conj(points, theta)
        assert isinstance(rows, np.ndarray) and rows.dtype == float
        assert rows.shape == (len(points), 4)
        for u, row in zip(points, rows.tolist()):
            [one] = iso_sphere_to_conj([u], theta).tolist()
            plain = _plain_iso(u, theta)
            assert one == row
            assert (plain.a, plain.b, plain.c, plain.d) == tuple(row)
            assert all(type(c) is float for c in row)


def test_iso_rejects_a_zero_vector():
    with pytest.raises(ValueError, match="zero vector"):
        iso_sphere_to_conj([[0.0, 0.0, 0.0]], 1.0)
    for at in (0, 3, 6):
        points = np.tile([0.0, 0.6, 0.8], (7, 1))
        points[at] = 0.0
        with pytest.raises(ValueError, match="zero vector"):
            iso_sphere_to_conj(points, 1.0)


def _row(elem, i):
    """Row i of a stacked element (of each stack of a pair)."""
    return tuple(e[i] for e in elem) if isinstance(elem, tuple) else elem[i]


def _same(x, y):
    """Bitwise equality of two elements, single or stacked, or pairs."""
    if isinstance(x, tuple) and not isinstance(x, Quaternion):
        return all(_same(u, v) for u, v in zip(x, y, strict=True))
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


@pytest.mark.parametrize("q", instances(), ids=lambda q: type(q).__name__)
def test_op_signed_with_mixed_signs_equals_op_and_op_inv(q):
    # one call on a stack with a sign per row is each row's op or op_inv
    rng = np.random.default_rng(21)
    a = [q.sample(rng) for _ in range(40)]
    b = [q.sample(rng) for _ in range(40)]
    signs = rng.choice([1, -1], size=40)
    got = q.op_signed(q.stack(a), q.stack(b), signs)
    for i, s in enumerate(signs):
        want = q.op(a[i], b[i]) if s > 0 else q.op_inv(a[i], b[i])
        assert _same(_row(got, i), want), (i, s)
    # signs of shape (8, 1) over an (8, 5) stack, as residual passes them
    # for stacked colorings: one sign for each row of a block
    got = q.op_signed(_blocks(q, a), _blocks(q, b), signs[:8, np.newaxis])
    for i, s in enumerate(signs[:8]):
        for j in range(5):
            k = 5 * i + j
            want = q.op(a[k], b[k]) if s > 0 else q.op_inv(a[k], b[k])
            assert _same(_row(_row(got, i), j), want), (i, j, s)


def _blocks(q, elems):
    """The 40 elements as an (8, 5) stack (pairs: a pair of them)."""
    stacked = q.stack(elems)
    if isinstance(stacked, tuple):
        return tuple(e.reshape(8, 5, 4) for e in stacked)
    return stacked.reshape((8, 5) + stacked.shape[1:])


def _written_out(q, a, b, sign):
    """The relation a*b (sign +1) or its inverse, spelled out per quandle
    with single-element arithmetic."""
    if isinstance(q, SphereQuandle):
        return rotate(a, sign * q.psi, b)
    if isinstance(q, DihedralQuandle):
        return (2 * b - a) % q.m
    if isinstance(q, ConjClassQuandle):
        return (b.inverse() * a * b if sign > 0 else b * a * b.inverse())
    x, xi = (q.x, q.x.inverse()) if sign > 0 else (q.x.inverse(), q.x)
    if isinstance(q, GAlexQuandle):
        return xi * (a * b.inverse()) * x * b
    (pa, ga), (pb, _) = a, b
    pbs = pb if sign > 0 else pb.inverse()
    return (pbs.inverse() * pa * pbs, xi * ga * pbs)


@pytest.mark.parametrize("q", instances(), ids=lambda q: type(q).__name__)
def test_op_and_op_inv_are_the_written_out_relations(q):
    # bitwise, and a single element in gives the same type out
    rng = np.random.default_rng(22)
    for _ in range(50):
        a, b = q.sample(rng), q.sample(rng)
        for sign, op in ((1, q.op), (-1, q.op_inv)):
            got, want = op(a, b), _written_out(q, a, b, sign)
            assert type(got) is type(want)
            assert _same(got, want), sign

import math
import struct

import numpy as np
import pytest

from longmap.quandles import random_sphere_point
from longmap.quaternions import (
    POLE_TOL,
    Quaternion,
    _cross,
    distance,
    geodesic_distance,
    qdistance,
    qmul,
    rotate,
)

I = np.array([1.0, 0.0, 0.0])
J = np.array([0.0, 1.0, 0.0])
K = np.array([0.0, 0.0, 1.0])


def test_exp_identities():
    assert distance(Quaternion.exp(0.0, I), Quaternion.one()) == 0.0
    qi = Quaternion.exp(math.pi / 2, I)
    assert distance(qi, Quaternion(0.0, 1.0, 0.0, 0.0)) < 1e-15
    assert distance(Quaternion.exp(math.pi, J),
                    Quaternion(-1.0, 0.0, 0.0, 0.0)) < 1e-15


def test_hamilton_products():
    qi = Quaternion(0.0, 1.0, 0.0, 0.0)
    qj = Quaternion(0.0, 0.0, 1.0, 0.0)
    qk = Quaternion(0.0, 0.0, 0.0, 1.0)
    assert distance(qi * qj, qk) < 1e-15
    assert distance(qj * qi, -qk) < 1e-15
    assert distance(qi * qi, Quaternion(-1.0, 0.0, 0.0, 0.0)) < 1e-15


def test_product_is_the_renormalized_hamilton_product():
    # written out once more here, so a reordered sum in the kernel shows
    rng = np.random.default_rng(3)
    for _ in range(2000):
        a1, b1, c1, d1, a2, b2, c2, d2 = rng.normal(size=8).tolist()
        a = a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2
        b = a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2
        c = a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2
        d = a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2
        nrm = math.sqrt(a * a + b * b + c * c + d * d)
        q = Quaternion(a1, b1, c1, d1) * Quaternion(a2, b2, c2, d2)
        assert (q.a, q.b, q.c, q.d) == (a / nrm, b / nrm, c / nrm, d / nrm)


def test_zero_product_raises():
    with pytest.raises(ValueError, match="zero quaternion"):
        Quaternion(0.0, 0.0, 0.0, 0.0) * Quaternion.exp(0.3, I)
    with pytest.raises(ValueError, match="zero quaternion"):
        Quaternion.from_components(0.0, 0.0, 0.0, 0.0)


def _single(row):
    return Quaternion(*row.tolist())


def test_qmul_equals_the_product_row_by_row():
    rng = np.random.default_rng(7)
    p, q = rng.normal(size=(2, 5000, 4))
    # rows within 1e-13 of +-1, where the renormalization does the most
    near = np.zeros((2, 2000, 4))
    near[..., 0] = rng.choice([-1.0, 1.0], size=(2, 2000))
    near += rng.uniform(-1e-13, 1e-13, size=near.shape)
    for left, right in ((p, q), tuple(near), (p[:2000], near[0])):
        got = qmul(left, right)
        assert got.shape == left.shape
        for l, r, row in zip(left, right, got):
            assert tuple(row.tolist()) == _single(l) * _single(r)


def test_qmul_broadcasts():
    rng = np.random.default_rng(8)
    p, q = rng.normal(size=(6, 1, 4)), rng.normal(size=(5, 4))
    got = qmul(p, q)
    assert got.shape == (6, 5, 4)
    for i in range(6):
        for j in range(5):
            assert tuple(got[i, j].tolist()) == _single(p[i, 0]) * _single(q[j])
    # a single Quaternion against a stack, and two singles
    x = Quaternion.exp(0.7, I)
    assert [tuple(r.tolist()) for r in qmul(x, q)] == [x * _single(r) for r in q]
    assert [tuple(r.tolist()) for r in qmul(q, x)] == [_single(r) * x for r in q]
    assert qmul(x, _single(q[0])) == x * _single(q[0])
    assert type(qmul(x, _single(q[0]))) is Quaternion


def test_qmul_zero_row_raises():
    stack = np.tile([0.6, 0.0, 0.8, 0.0], (7, 1))
    stack[4] = 0.0
    with pytest.raises(ValueError, match="zero quaternion"):
        qmul(stack, Quaternion.exp(0.3, I))
    with pytest.raises(ValueError, match="zero quaternion"):
        qmul(Quaternion(0.0, 0.0, 0.0, 0.0), Quaternion.exp(0.3, I))


def test_qdistance_equals_distance_row_by_row():
    # both square by d * d and add left to right; float ** 2 and d * d
    # round apart on about one input in a thousand, so 20000 rows show a
    # kernel that squares or adds otherwise
    rng = np.random.default_rng(9)
    p, q = rng.normal(size=(2, 20000, 4))
    dist = qdistance(p, q)
    assert dist.tolist() == [distance(_single(a), _single(b))
                             for a, b in zip(p, q)]
    x, y = Quaternion.exp(0.3, I), Quaternion.exp(1.1, J)
    assert qdistance(x, y) == distance(x, y)


def test_inverse_and_norm():
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.normal(size=4)
        q = Quaternion.from_components(*v)
        assert abs(math.hypot(*q) - 1.0) < 1e-14
        assert distance(q * q.inverse(), Quaternion.one()) < 1e-14


def test_rotate_basis():
    # right-hand rule about the z axis
    assert np.allclose(rotate(I, math.pi / 2, K), J, atol=1e-15)
    assert np.allclose(rotate(J, math.pi / 2, K), -I, atol=1e-15)
    assert np.allclose(rotate(I, math.pi, K), -I, atol=1e-15)


def test_rotate_preserves_geometry():
    rng = np.random.default_rng(2)
    for _ in range(200):
        u = random_sphere_point(rng)
        w = random_sphere_point(rng)
        v = random_sphere_point(rng)
        ang = rng.uniform(-10, 10)
        ur, wr = rotate(u, ang, v), rotate(w, ang, v)
        assert abs(np.linalg.norm(ur) - 1.0) <= 1e-12
        assert abs(np.dot(ur, wr) - np.dot(u, w)) <= 1e-12


def test_conjugation_matches_rotation():
    # exp(-b, v) * u * exp(b, v) acts on the pure part as the rotation by
    # -2b about v
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        beta = rng.uniform(0, math.pi)
        u = random_sphere_point(rng)
        v = random_sphere_point(rng)
        q = Quaternion.exp(beta, v)
        conj = q.inverse() * Quaternion(0.0, *u.tolist()) * q
        expect = Quaternion(0.0, *rotate(u, -2.0 * beta, v).tolist())
        worst = max(worst, distance(conj, expect))
    assert worst <= 1e-10


def test_conjugation_basis_example():
    # conjugating i by exp(pi/4, k) rotates it by -pi/2 about k, onto -j
    q = Quaternion.exp(math.pi / 4, K)
    got = q.inverse() * Quaternion(0.0, 1.0, 0.0, 0.0) * q
    assert distance(got, Quaternion(0.0, 0.0, -1.0, 0.0)) < 1e-15


def test_pow():
    q = Quaternion.exp(0.3, J)
    assert distance(q.pow(5), Quaternion.exp(1.5, J)) < 1e-14
    assert distance(q.pow(-2), Quaternion.exp(-0.6, J)) < 1e-14
    assert distance(q.pow(0), Quaternion.one()) == 0.0
    m = Quaternion(-1.0, 0.0, 0.0, 0.0)
    assert distance(m.pow(2), Quaternion.one()) == 0.0
    assert distance(m.pow(3), m) == 0.0
    with pytest.raises(TypeError):
        q.pow(0.5)


def _ref_pow(q, k):
    """q^k by the axis-angle route: theta in [0, pi] and a unit axis, with
    the axis undefined at +-1, then exp(k*theta, axis)."""
    if k == 0:
        return Quaternion.one()
    v = np.array([q.b, q.c, q.d])
    s = np.linalg.norm(v)
    theta = math.atan2(s, q.a)
    if s < POLE_TOL:
        theta = 0.0 if q.a > 0 else math.pi
        if theta == 0.0 or k % 2 == 0:
            return Quaternion.one()
        return Quaternion(-1.0, 0.0, 0.0, 0.0)
    return Quaternion.exp(k * theta, v / s)


def test_pow_matches_the_axis_angle_route():
    rng = np.random.default_rng(5)
    qs = [Quaternion.from_components(*rng.normal(size=4))
          for _ in range(100)]
    # within |v| of +-1, on both sides of POLE_TOL
    for s in (1e-13, 5e-13, 0.99e-12, 1.01e-12, 3e-12, 1e-11, 1e-10, 1e-9):
        u = random_sphere_point(rng)
        for a in (1.0, -1.0):
            qs.append(Quaternion.from_components(a, *(s * u).tolist()))
    # the exponents of the longitude routes: -writhe, n and -2n
    ks = sorted({0} | {k for n in range(1, 102) for k in (n, -n, -2 * n)})
    for q in qs:
        for k in ks:
            assert (struct.pack("<4d", *q.pow(k))
                    == struct.pack("<4d", *_ref_pow(q, k))), (q, k)
    # pow takes |v| as sqrt(v.v), what np.linalg.norm computes for a 1-D
    # float array: bitwise on 2000 more quaternions
    for q in [Quaternion.from_components(*rng.normal(size=4).tolist())
              for _ in range(2000)]:
        for k in (-7, -1, 2, 21):
            assert (struct.pack("<4d", *q.pow(k))
                    == struct.pack("<4d", *_ref_pow(q, k))), (q, k)


def test_geodesic_distance_accuracy():
    assert geodesic_distance(I, I) == 0.0
    assert abs(geodesic_distance(I, -I) - math.pi) < 1e-15
    # tiny angles survive; arccos of the dot product would not
    for t in (1e-8, 1e-10):
        u = rotate(I, t, K)
        assert abs(geodesic_distance(I, u) - t) < 1e-15


def _stacked_cross(a, b):
    """a x b spelled out a component at a time and joined by np.stack."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack(
        [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1
    )


def _ref_rotate(u, angle, v):
    cos_a = np.cos(angle)[..., np.newaxis]
    sin_a = np.sin(angle)[..., np.newaxis]
    dot = (u * v).sum(axis=-1, keepdims=True)
    return u * cos_a + _stacked_cross(v, u) * sin_a + v * dot * (1.0 - cos_a)


def _ref_geodesic_distance(u, v):
    cross = _stacked_cross(u, v)
    return np.arctan2(np.sqrt((cross * cross).sum(axis=-1)),
                      (u * v).sum(axis=-1))


def _signed_zero_stacks():
    """(u, v) pairs of the shapes the kernels meet, from one point to
    broadcast stacks; each stack holds rows with +-0.0 components."""
    rng = np.random.default_rng(13)

    def stack(*lead):
        rows = rng.normal(size=(*lead, 3))
        rows /= np.sqrt((rows * rows).sum(axis=-1, keepdims=True))
        if lead:
            flat = rows.reshape(-1, 3)
            flat[0], flat[-1] = I, (0.0, -0.0, 1.0)
        return rows

    return [(I, np.array([0.0, -0.0, 1.0])), (stack(), stack()),
            (stack(7), stack(7)), (stack(4, 7), stack(4, 7)),
            (stack(), stack(7)), (stack(7), stack())]


def test_sphere_kernels_are_bitwise_the_stacked_cross_product():
    rng = np.random.default_rng(17)
    for u, v in _signed_zero_stacks():
        lead = np.broadcast_shapes(u.shape, v.shape)[:-1]
        for angle in (2.5, rng.uniform(-7.0, 7.0, size=lead)):
            assert (rotate(u, angle, v).tobytes()
                    == _ref_rotate(u, np.asarray(angle), v).tobytes())
        assert (geodesic_distance(u, v).tobytes()
                == _ref_geodesic_distance(u, v).tobytes())
        assert _cross(u, v).tobytes() == np.cross(u, v).tobytes()

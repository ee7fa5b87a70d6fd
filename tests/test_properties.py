"""Property checks of the quaternion algebra and the tangle text format.

Runs only where hypothesis is installed; the settings are derandomized, so
every run draws the same examples.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

import numpy as np  # noqa: E402

from longmap.cli import MAX_STEPS  # noqa: E402
from longmap.quaternions import Quaternion, distance  # noqa: E402
from longmap.scalar import linspace  # noqa: E402
from longmap.tangles import fig8, parse, serialize, torus2n  # noqa: E402

settings = hypothesis.settings(derandomize=True, deadline=None,
                               max_examples=300)

_unit_interval = st.floats(-1.0, 1.0, allow_subnormal=False)


def _away_from_zero(v):
    return math.sqrt(sum(x * x for x in v)) >= 0.1


def _unit(v):
    nrm = math.sqrt(sum(x * x for x in v))
    return [x / nrm for x in v]


quaternions = st.tuples(*[_unit_interval] * 4).filter(_away_from_zero).map(
    lambda v: Quaternion.from_components(*v))
axes = st.tuples(*[_unit_interval] * 3).filter(_away_from_zero).map(_unit)
angles = st.floats(0.0, math.pi)


@settings
@given(quaternions, quaternions, quaternions)
def test_product_is_associative(p, q, r):
    assert distance((p * q) * r, p * (q * r)) <= 1e-12


@settings
@given(quaternions)
def test_inverse_is_a_right_inverse(q):
    assert distance(q * q.inverse(), Quaternion.one()) <= 1e-12


@settings
@given(quaternions, quaternions)
def test_inverse_reverses_a_product(p, q):
    assert distance((p * q).inverse(), q.inverse() * p.inverse()) <= 1e-12


@settings
@given(angles, axes, st.integers(-50, 50))
def test_power_multiplies_the_angle(theta, axis, k):
    # near +-1 the axis is lost below POLE_TOL, an error of at most
    # |sin(k theta)| <= |k| * 1e-12
    got = Quaternion.exp(theta, axis).pow(k)
    assert distance(got, Quaternion.exp(k * theta, axis)) <= 1e-10


diagrams = st.one_of(
    st.just(fig8()),
    st.builds(torus2n, st.integers(1, 50).map(lambda h: 2 * h + 1),
              st.sampled_from([1, -1])),
)


@settings
@given(diagrams)
def test_parse_inverts_serialize(d):
    back = parse(serialize(d))
    assert back.code == d.code
    assert back.bridge_arcs == d.bridge_arcs
    assert back.schedule == d.schedule


finite = st.floats(allow_nan=False, allow_infinity=False)


@hypothesis.settings(settings, max_examples=100)  # up to 1e5 values each
@given(finite, finite, st.integers(2, MAX_STEPS))
def test_theta_grid_is_numpy_linspace(lo, hi, steps):
    # sweep's grid: bitwise the numpy linspace of this installed numpy
    lo, hi = min(lo, hi), max(lo, hi)
    hypothesis.assume(lo < hi and math.isfinite(hi - lo))
    got = np.fromiter(linspace(lo, hi, steps), dtype=float, count=steps)
    with np.errstate(over="ignore"):
        # numpy also forms value steps - 1 as a product, which may round
        # to inf near the float maximum, and then overwrites it with hi
        want = np.linspace(lo, hi, steps)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

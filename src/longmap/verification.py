"""Invariant suites behind ``longmap verify``.

Each suite returns a list of check lines; a check passes when its measured
deviation is at most its tolerance.  All randomness is seeded, so repeated
runs print identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .colorings import (
    BASEPOINT,
    FIG8_PSI_HI,
    FIG8_PSI_LO,
    fig8_betas,
    fig8_coloring,
    reflect_coloring,
    residual,
    rotate_coloring,
    star_polygon,
)
from .longitudes import (
    eval_word,
    fig8_closed_form,
    galex_lift,
    qn_check,
    t2n_closed_form,
)
from .quandles import (
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
from .quaternions import Quaternion, distance, qdistance, qmul, rotate
from .tangles import fig8, torus2n, torus_theta_interval

SEED = 20240915


@dataclass(frozen=True)
class CheckLine:
    name: str
    deviation: float
    tol: float

    @property
    def passed(self):
        return self.deviation <= self.tol

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: max deviation {self.deviation:.3e}"
            f" (tol {self.tol:.1e})"
        )


def suite_axioms():
    """Quandle axioms on all five instances, plus the structural identities:
    sphere/conjugation isomorphism and the pair-quandle projection."""
    rng = np.random.default_rng(SEED)
    x = Quaternion.exp(0.7, BASEPOINT)
    instances = [
        ("sphere(1.234)", SphereQuandle(1.234)),
        ("conjclass(0.9)", ConjClassQuandle(0.9)),
        ("dihedral(7)", DihedralQuandle(7)),
        ("galex(e^0.7i)", GAlexQuandle(x)),
        ("eis(e^0.7i)", EisQuandle(x)),
    ]
    lines = [CheckLine(f"axioms {name}", axiom_check(q, rng=rng), 1e-10)
             for name, q in instances]

    # conjugation lemma: e^-bv e^tu e^bv = e^(t w), w = rotate(u, -2b, v);
    # the uniform and normal draws interleave, so each sample is drawn
    # whole; the rotations and the products then run as stacks
    samples = [(*rng.uniform(0, math.pi, size=2), random_sphere_point(rng),
                random_sphere_point(rng)) for _ in range(1000)]
    beta, _, u, v = map(np.array, zip(*samples))
    w = rotate(u, -2.0 * beta, v)
    e = np.array([(Quaternion.exp(-b, vi), Quaternion.exp(t, ui),
                   Quaternion.exp(b, vi), Quaternion.exp(t, wi))
                  for (b, t, ui, vi), wi in zip(samples, w)])
    worst = np.max(qdistance(qmul(qmul(e[:, 0], e[:, 1]), e[:, 2]), e[:, 3]))
    lines.append(CheckLine("conjugation identity", worst, 1e-10))

    # sphere -> conjugacy class isomorphism at psi = 2pi - 2theta; a loop,
    # as each row has its own theta and so its own conjugacy class
    samples = [(rng.uniform(0.1, math.pi - 0.1), random_sphere_point(rng),
                random_sphere_point(rng)) for _ in range(500)]
    theta, u, v = map(np.array, zip(*samples))
    uv = rotate(u, 2.0 * math.pi - 2.0 * theta, v)
    worst = 0.0
    for (t, ui, vi), uvi in zip(samples, uv):
        lhs, iu, iv = map(Quaternion._make,
                          iso_sphere_to_conj([uvi, ui, vi], t).tolist())
        rhs = ConjClassQuandle(t).op(iu, iv)
        worst = np.maximum(worst, distance(lhs, rhs))
    lines.append(CheckLine("sphere/conjugation isomorphism", worst, 1e-10))

    # Eis -> GAlex projection is a homomorphism
    eq, gq = EisQuandle(x), GAlexQuandle(x)
    drawn = eq.samples(rng, 1000)  # a, b per pair in turn
    a, b = eq.stack(drawn[0::2]), eq.stack(drawn[1::2])
    lhs = eis_to_galex(eq.op(a, b))
    rhs = gq.op(eis_to_galex(a), eis_to_galex(b))
    lines.append(CheckLine("Eis/GAlex isomorphism",
                           np.max(qdistance(lhs, rhs)), 1e-10))
    return lines


def _torus_cases(ns=(3, 5, 7, 9), samples=8):
    """(n, theta, torus2n(n), its star polygon at psi = 2*pi - 2*theta) for
    ``samples`` theta 0.02 inside the window of each step h."""
    for n in ns:
        diagram = torus2n(n, 1)
        for h in range(1, (n - 1) // 2 + 1):
            lo, hi = torus_theta_interval(n, h)
            for theta in np.linspace(lo + 0.02, hi - 0.02, samples).tolist():
                yield (n, theta, diagram,
                       star_polygon(n, h, 2.0 * math.pi - 2.0 * theta))


def _fig8_cases(margin, samples):
    """(branch, theta, fig8(), its coloring at psi = 2*pi - 2*theta) for
    ``samples`` theta ``margin`` inside the window, each on both branches."""
    diagram = fig8()
    lo, hi = FIG8_PSI_LO / 2.0 + margin, FIG8_PSI_HI / 2.0 - margin
    for theta in np.linspace(lo, hi, samples).tolist():
        for branch in (1, 2):
            yield (branch, theta, diagram,
                   fig8_coloring(2.0 * math.pi - 2.0 * theta, branch))


def _worst(rows, *checks):
    """A CheckLine per (name, tol) in ``checks``, whose deviation is the
    largest in its column of the per-case ``rows``; ``np.maximum`` keeps a
    NaN, so a NaN deviation fails its own check and no other."""
    worst = np.maximum.reduce(np.array(rows, dtype=float), axis=0)
    return [CheckLine(name, dev, tol)
            for (name, tol), dev in zip(checks, worst, strict=True)]


def suite_torus():
    """Longitude word vs the torus closed form, and q^n = -1."""
    minus_one = Quaternion(-1.0, 0.0, 0.0, 0.0)
    rows = [(residual(coloring, diagram),
             distance(eval_word(diagram, coloring).q,
                      t2n_closed_form(n, theta).q),
             distance(qn_check(diagram, coloring), minus_one))
            for n, theta, diagram, coloring in _torus_cases()]
    return _worst(rows, ("torus coloring residual", 1e-9),
                  ("torus closed form", 1e-8), ("torus q^n = -1", 1e-9))


def suite_fig8():
    """Figure-eight closed forms against direct word evaluation."""
    rows = [(residual(coloring, diagram),
             distance(eval_word(diagram, coloring).q,
                      fig8_closed_form(theta, branch).q))
            for branch, theta, diagram, coloring in _fig8_cases(0.02, 40)]
    dev = np.max(np.abs(np.subtract(fig8_betas(FIG8_PSI_LO),
                                    math.acos(-1.0 / 3.0))))
    return [*_worst(rows, ("fig8 coloring residual", 1e-9),
                    ("fig8 closed form", 1e-8)),
            CheckLine("fig8 tetrahedral beta", dev, 1e-10)]


def suite_lift():
    """Generalized-Alexander lift vs direct word evaluation, including
    rotated colorings about the basepoint axis."""
    cases = [*_torus_cases(ns=(3, 5, 7), samples=5), *_fig8_cases(0.05, 10)]
    rng = np.random.default_rng(SEED)
    rows = []
    for *_, diagram, coloring in cases:
        direct = eval_word(diagram, coloring).q
        rotated = rotate_coloring(coloring, rng.uniform(0, 2 * math.pi))
        rows.append((distance(galex_lift(diagram, coloring), direct),
                     distance(eval_word(diagram, rotated).q, direct)))
    return _worst(rows, ("galex lift = longitude word", 1e-9),
                  ("rotation invariance", 1e-8))


def suite_mirror():
    """Mirror torus diagram evaluates to the inverse longitude."""
    mirrors = {n: torus2n(n, -1) for n in (3, 5, 7)}
    cases = _torus_cases(ns=tuple(mirrors), samples=5)
    rows = [(distance(eval_word(mirrors[n], reflect_coloring(coloring)).q,
                      eval_word(diagram, coloring).q.inverse()),)
            for n, _, diagram, coloring in cases]
    return _worst(rows, ("mirror inverse relation", 1e-8))


SUITES = {
    "axioms": suite_axioms,
    "torus": suite_torus,
    "fig8": suite_fig8,
    "lift": suite_lift,
    "mirror": suite_mirror,
}

"""Quandle colorings of tangle diagrams.

Closed-form families (spherical star polygons for the (2, n) torus knots,
the two-branch figure-eight family), a numeric solver that colors 2-bridge
diagrams over spherical quandles by words in the bridge generators (their
free-quandle coloring), scanning and refining the seed angle on the
Fourier coefficients of the crossing relations' gaps, and an exhaustive
Fox-coloring oracle over dihedral quandles.  The closed-form seed angles,
``star_beta`` and ``fig8_betas``, and their windows live in
``longmap.scalar``.

Basepoint convention: the initial arc is always colored x = (1, 0, 0), and
the second bridge color is sought on the half-equator
E = {(cos b, sin b, 0) : 0 <= b <= pi}.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial

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
from .scalar import SPREAD_TOL, _fig8_branch, _star_latitude, fig8_betas
from .tangles import _index, fig8, torus_interval

EPS_COLOR = 1e-8        # residual acceptance for a valid coloring
SEED_TOL = 1e-6         # dedup tolerance between solver seeds
DEFAULT_GRID = 2000
MAX_GRID = 100_000      # scan memory grows with the grid

BASEPOINT = np.array([1.0, 0.0, 0.0])

__all__ = [
    "EPS_COLOR",
    "SEED_TOL",
    "DEFAULT_GRID",
    "MAX_GRID",
    "BASEPOINT",
    "Coloring",
    "propagate",
    "residual",
    "admissible_steps",
    "star_polygon",
    "fig8_coloring",
    "solve_colorings",
    "fox_colorings",
    "rotate_coloring",
    "reflect_coloring",
]


@dataclass(frozen=True)
class Coloring:
    """Quandle elements on the arcs 0..n, a row per arc; a sphere coloring
    made here is an (arcs, 3) float array, a conjugation one (arcs, 4).

    The longitude routes keep the coloring's conjugation rows beside its
    fields on their first read (``longitudes._conj_rows``), out of its
    ``==``, ``hash`` and ``repr``; so its colors must not be mutated after
    a route has read them.  Make a new ``Coloring`` instead.
    """

    quandle: object
    colors: object


def propagate(diagram, quandle, bridge_colors):
    """Colors of all arcs from the bridge colors via the diagram's steps.

    Colors may be stacks, as ``Quandle.stack`` builds them; every arc then
    carries a stack, one coloring per row.
    """
    if not diagram.bridge_arcs:
        label = diagram.name or f"of {diagram.code.n} crossings"
        raise NoSchedule(f"diagram {label} has no bridges")
    colors = [None] * (diagram.code.n + 1)
    colors[0], colors[diagram.bridge_arcs[1]] = bridge_colors
    if diagram.terminal_is_initial:
        colors[-1] = colors[0]
    for target, source, over, sign in diagram.steps():
        colors[target] = quandle.op_signed(colors[source], colors[over], sign)
    return colors


def _check_arity(diagram, coloring):
    """ArityMismatch unless the coloring has a color for every arc."""
    arcs = diagram.code.n + 1
    if len(coloring.colors) != arcs:
        raise ArityMismatch(f"{len(coloring.colors)} colors for {arcs} arcs")


def residual(coloring, diagram):
    """Max deviation over crossings between the actual out-arc color and the
    one demanded by the crossing relation, an array of them for stacked
    colorings: one ``op_signed`` over the stacked sources, over-arcs and
    signs ``code.eps`` of all crossings, then one ``distance``."""
    _check_arity(diagram, coloring)
    code, q, cols = diagram.code, coloring.quandle, coloring.colors
    if not code.n:  # the trivial tangle has no crossing to stack
        return 0.0
    axes = np.ndim(q.validate(cols[0]))  # stacking axes: a bool per row
    eps = np.asarray(code.eps).reshape((-1,) + (1,) * axes)
    expected = q.op_signed(q.stack(cols[:-1]),
                           q.stack([cols[k] for k in code.kappa]), eps)
    return np.max(q.distance(q.stack(cols[1:]), expected), axis=0)


# ---------------------------------------------------------------------------
# torus knot star polygons


def admissible_steps(n, psi):
    """The steps h at which ``star_beta(n, h, psi)`` answers: as the windows
    nest and beta grows with h, those from the least, bisected, to (n-1)/2."""
    torus_interval(n, 1)  # BadParameter unless n is odd and >= 3
    lo, hi = 1, (n + 1) // 2  # the least step that colors lies in lo..hi
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            _star_latitude(n, mid, psi)
            hi = mid
        except OutOfInterval:
            lo = mid + 1
    return list(range(lo, (n + 1) // 2))


def star_polygon(n, h, psi):
    """Star-polygon coloring of torus2n(n, +1) over SphereQuandle(psi).

    The step-h spherical star n-gon with vertex angle psi, at the latitude
    given by ``scalar._star_latitude``, placed so that the initial arc is
    colored (1, 0, 0) and the second bridge lands on the upper half-equator.
    """
    r, s, a, _ = _star_latitude(n, h, psi)
    # vertex m is the basepoint turned by 2*pi*m/n about the pole p; p.x = r
    # and (p.y, p.z) is parallel to (r sin a, cos a), so that vertex h has
    # z = 0 and y >= 0
    scale = s / math.hypot(r * math.sin(a), math.cos(a))
    pole = np.array([r, scale * r * math.sin(a), scale * math.cos(a)])
    verts = rotate(BASEPOINT, 2.0 * math.pi * np.arange(n) / n, pole)

    # arc j carries braid color q_(2j mod n); the step-h coloring sends q_m
    # to vertex h*m
    colors = verts[h * (2 * np.arange(n + 1) % n) % n]
    return Coloring(SphereQuandle(psi), colors)


# ---------------------------------------------------------------------------
# figure-eight colorings


_FIG8 = fig8()  # fig8_coloring's diagram, built once; fig8() stays fresh


def fig8_coloring(psi, branch):
    """Figure-eight coloring over SphereQuandle(psi) for branch 1 or 2."""
    branch = _fig8_branch(branch)
    beta = fig8_betas(psi)[branch - 1]
    quandle = SphereQuandle(psi)
    u2 = np.array([math.cos(beta), math.sin(beta), 0.0])
    colors = np.array(propagate(_FIG8, quandle, (BASEPOINT, u2)))
    out = Coloring(quandle, colors)
    res = residual(out, _FIG8)
    if res > EPS_COLOR:
        raise ResidualTooLarge(
            f"closed-form beta fails its own equations (residual {res:.3e})"
        )
    return out


# ---------------------------------------------------------------------------
# numeric seed solver on arc words


_POLISH_STEPS = 4  # Gauss-Newton steps in beta
_TRIALS = np.array([0.0, 1.0, 2.0])  # beta, the step and the doubled step
# complex powers that ``_powers`` forms at once for ``_evaluate``: a 64 KB
# table, so that a small table reuses heap pages instead of faulting in
# fresh ones on every call; but at least _BLOCK_BETAS betas, as the loop
# over a few betas at a time would otherwise dominate the scan of a large D
# (T(2,1001) takes a 1 MB table).  ``_grid`` caches a table of _KEPT powers
# (1 MB) for the last grid, _KEPT // grid terms per beta: at DEFAULT_GRID,
# 32 terms, enough for fig8 and T(2,n) up to n = 29
_BLOCK = 1 << 12
_BLOCK_BETAS = 64
_KEPT = 1 << 16

# the flattened M with p @ M = p*i = (-b, a, d, -c), p*j = (-c, -d, a, b)
# and p, for a quaternion row p = (a, b, c, d)
_TIMES = np.stack([np.eye(4)[[1, 0, 3, 2]].T * [-1, 1, 1, -1],
                   np.eye(4)[[2, 3, 0, 1]].T * [-1, -1, 1, 1],
                   np.eye(4)]).reshape(3, 16)


class _FreeWords:
    """The free quandle on the bridge generators x and y.  An element is a
    pair (W, b), the color W b W^-1, with W a reduced word in x and y and
    b its base: 0 for the basepoint x, 1 for the seed y.

    A syllable (letter, a) is exp(a*psi/2 * b_letter), whose conjugation
    turns by a*psi about b_letter, so a crossing turns the source into
    W_over B_over^(+-1) W_over^-1 W_source.  No word ends in a syllable of
    its own base, which fixes the base, so only W_source can cancel.
    """

    @staticmethod
    def op_signed(source, over, sign):
        (w, letter_over), (tail, base) = over, source
        word = [*w, (letter_over, sign),
                *((letter, -a) for letter, a in reversed(w))]
        for letter, a in tail:
            if word and word[-1][0] == letter:
                a += word.pop()[1]
            if a:
                word.append((letter, a))
        if word and word[-1][0] == base:
            word.pop()
        return tuple(word), base


def _arc_words(diagram):
    """The (word, base) pair of every arc in the ``_FreeWords`` coloring,
    and the pair that each residual crossing's relation demands of its
    out-arc."""
    code = diagram.code
    arcs = propagate(diagram, _FreeWords, (((), 0), ((), 1)))
    return arcs, [_FreeWords.op_signed(arcs[ci - 1], arcs[code.kappa[ci - 1]],
                                       code.eps[ci - 1])
                  for ci in diagram.residual_crossings]


def _word_program(pairs):
    """Compile (word, base) pairs, once per diagram, into a function
    run(psi, betas) -> the colors W b W^-1 of the pairs, shape (3,
    len(pairs), len(betas)).

    The compile depends on neither psi nor beta: the prefix trie of the
    words, the node steps, end nodes, keep set, base mask and syllable
    keys.  Nothing is bound per psi: a run builds the matrix of every
    syllable key and does the arithmetic.  It multiplies each prefix once,
    as its own prefix times a syllable c + s (u i + v j), c = cos(a*psi/2).
    """
    ids, ends, keys = {}, [], {}
    for word, _ in pairs:
        node = 0
        for letter, a in word:
            node = ids.setdefault((node, letter, a), len(ids) + 1)
        ends.append(node)
    for _, letter, a in ids:
        keys.setdefault((letter, a), len(keys))

    # a product is dropped after its only child, unless a word ends there
    keep = set(ends)
    keep |= {k for k, n in Counter(p for p, _, _ in ids).items() if n > 1}
    steps = [(parent, keys[letter, a], node, parent not in keep)
             for (parent, letter, a), node in ids.items()]
    bases = np.array([base for _, base in pairs])[:, np.newaxis]
    return partial(_run_words, steps, ends, bases, list(keys))


_X_AXIS = np.array([[1.0], [0.0], [1.0]])  # (u, v, 1) of the letter x
_ONE = np.eye(4, 1)  # the product of the empty word


def _syllables(axis, half):
    """Right multiplication by a syllable c + s (u i + v j) is (s u, s v,
    c) @ _TIMES: its 4x4 matrices for ``half`` = (s, s, c) and each column
    (u, v, 1) of ``axis``; columns are betas."""
    return (_TIMES.T @ (axis * half)).reshape(4, 4, -1)


def _run_words(steps, ends, bases, keys, psi, betas):
    """A ``_word_program`` run: the matrix of every syllable key at psi, x
    about _X_AXIS and y about each seed in betas, then the products."""
    cos_b, sin_b = np.cos(betas), np.sin(betas)
    axis = np.array([cos_b, sin_b, np.ones_like(cos_b)])
    mats = []
    for letter, a in keys:
        c, s = math.cos(0.5 * a * psi), math.sin(0.5 * a * psi)
        mats.append(_syllables(axis if letter else _X_AXIS,
                               np.array([[s], [s], [c]])))
    prods = [_ONE + 0.0 * cos_b, *[None] * len(steps)]
    for parent, key, node, drop in steps:  # parents come first
        prods[node] = np.einsum("jk,jlk->lk", prods[parent], mats[key])
        if drop:
            prods[parent] = None

    # b = (bx, by, 0) turned by W = s + v: b + s t + v x t, t = 2 v x b
    s, v1, v2, v3 = np.array([prods[end] for end in ends]).transpose(1, 0, 2)
    del mats, prods  # freed before the color temporaries below
    bx, by = np.where(bases, cos_b, 1.0), np.where(bases, sin_b, 0.0)
    t1, t2, t3 = -2.0 * v3 * by, 2.0 * v3 * bx, 2.0 * (v1 * by - v2 * bx)
    return np.array([bx + s * t1 + v2 * t3 - v3 * t2,
                     by + s * t2 + v3 * t1 - v1 * t3,
                     s * t3 + v1 * t2 - v2 * t1])


def _solver(diagram):
    """The psi-free part of ``solve_colorings`` for a diagram: the program
    of the relation gaps of its residual crossings, that of its arc words
    (``_arc_words``), and the degree D = 2k + 2 of the gaps as
    trigonometric polynomials in beta, with k the most y syllables in a gap
    word.  Compiled on the diagram's first solve and kept beside its fields,
    as its steps are; it holds no reference to the diagram, so it dies with
    it."""
    compiled = vars(diagram).get("_solver")
    if compiled is None:
        arcs, relations = _arc_words(diagram)
        words = [*(arcs[ci] for ci in diagram.residual_crossings), *relations]
        k = max(sum(letter == 1 for letter, _ in w) for w, _ in words)
        compiled = (_word_program(words), _word_program(arcs), 2 * k + 2)
        object.__setattr__(diagram, "_solver", compiled)
    return compiled


def _gap_series(program, psi, degree):
    """The relation gaps that ``solve_colorings`` scans and refines, by
    their Fourier coefficients: each residual crossing's out-arc color
    minus the color its relation demands is Re sum_k c_k e^(ik beta), k =
    0..D, with D = ``degree`` (``_solver``), so one run of the gap program
    at psi on 2D + 2 equispaced betas in [0, 2 pi) determines the c_k.
    Returns the real (2(D + 1), 2 rows) matrix, rows = 3 per residual
    crossing, that takes the powers e^(ik beta) as ``_powers`` lays them
    out, Re and Im interleaved by k, to the gaps and then their exact
    slopes Re sum_k ik c_k e^(ik beta).  As Re(c p) = Re c Re p - Im c Im
    p, its rows are Re c_0, -Im c_0, Re c_1, -Im c_1, ..., so the leading
    2t rows are the series cut to t terms.  It is the transpose of a
    C-ordered array, so the matmul of ``_evaluate`` reads it in order."""
    from numpy.fft import rfft  # only a solve pays for the import

    n = 2 * degree + 2
    colors = program(psi, 2.0 * math.pi / n * np.arange(n))
    half = colors.shape[1] // 2
    c = rfft((colors[:, :half] - colors[:, half:]).reshape(-1, n))
    # c_0 = F_0 / n and c_k = 2 F_k / n; F_(D + 1), at the Nyquist
    # frequency, is rounding, as the degree is at most D
    k = np.arange(degree + 1)
    c = c[:, :degree + 1] * np.where(k, 2.0 / n, 1.0 / n)
    return np.conj(np.concatenate([c, 1j * k * c])).view(float).T


def _powers(betas, terms):
    """The real (2 terms, betas) table of the powers e^(ik beta), k <
    terms, in the row layout of ``_gap_series``: Re e^(ik beta), then Im
    e^(ik beta), for each k in turn.  The complex powers are built by
    doubling, from row 1 = e^(i beta): rows [h, 2h - 1) are rows [1, h)
    times row h - 1, so row k has gone through about log2(k) rounded
    products, not k as in a running product, and the same ones, elementwise
    along the betas, for every ``terms`` above k."""
    p = np.empty((terms, len(betas)), dtype=complex)
    p[0] = 1.0
    np.exp(1j * betas, out=p[1])  # terms >= 3: D + 1, or _grid's
    h = 2
    while h < terms:
        w = min(h - 1, terms - h)
        np.multiply(p[1:w + 1], p[h - 1], out=p[h:h + w])
        h += w
    return p.view(float).reshape(terms, -1, 2).transpose(0, 2, 1).reshape(
        2 * terms, -1)


def _evaluate(series, betas):
    """The gaps and slopes of ``_gap_series`` at each of the betas, shape
    (len(betas), 2 rows), as the transpose of a C-ordered array: the
    ``_powers`` of a block of betas at a time (``_BLOCK``), each taken to
    the gaps and slopes by one real matmul.  The refinement and every scan
    too large for ``_grid_minima`` to keep its table evaluate here."""
    terms = series.shape[0] // 2
    out = np.empty((series.shape[1], len(betas)))
    block = max(_BLOCK_BETAS, _BLOCK // terms)
    for start in range(0, len(betas), block):
        np.matmul(series.T, _powers(betas[start:start + block], terms),
                  out=out[:, start:start + block])
    return out.T


@lru_cache(maxsize=1)
def _grid(grid):
    """The ``grid`` betas of the scan, equispaced over [0, pi], and their
    ``_powers`` to _KEPT // grid terms, or None where fewer than 3 fit.  A
    function of the grid alone, cached for the last one."""
    betas = np.linspace(0.0, math.pi, grid)
    terms = _KEPT // grid
    return betas, _powers(betas, terms) if terms >= 3 else None


def _grid_minima(series, grid):
    """Stage 1 of ``solve_colorings``: the seed angles on a uniform grid of
    [0, pi] where the largest relation gap is a local minimum, and the
    gaps and slopes there.

    A series whose terms fit in the table of ``_grid`` takes its leading
    rows, equal bitwise to a table of its own, in one matmul; a larger one
    goes through ``_evaluate``."""
    betas, powers = _grid(grid)
    rows = series.shape[0]
    if powers is not None and rows <= len(powers):
        values = np.matmul(series.T, powers[:rows]).T
    else:
        values = _evaluate(series, betas)
    gaps = values.T[:values.shape[1] // 2].reshape(3, -1, grid)
    res = np.max(np.sum(gaps ** 2, axis=0), axis=0)
    padded = np.concatenate([[np.inf], res, [np.inf]])
    at = (res <= padded[:-2]) & (res <= padded[2:])
    return betas[at], values[at]


def _refine(series, betas, values):
    """Stage 2 of ``solve_colorings``: _POLISH_STEPS Gauss-Newton steps in
    beta on the relation gaps, from their ``values`` at the betas.  Beta,
    the step and the doubled step, exact at a double root, are evaluated
    together; the one with the lowest squared gaps is taken, beta unless a
    step is lower.  Returns the betas and a mask of the steps that were
    finite and in [0, pi]."""
    rows = np.arange(len(betas))
    ok = np.ones(len(betas), dtype=bool)
    half = values.shape[-1] // 2
    for _ in range(_POLISH_STEPS):
        g, dg = values[:, :half], values[:, half:]
        jj = np.einsum("ij,ij->i", dg, dg)
        step = -np.divide(np.einsum("ij,ij->i", g, dg), jj,
                          out=np.zeros_like(jj), where=jj > 0.0)
        trial = betas[:, np.newaxis] + step[:, np.newaxis] * _TRIALS
        values = _evaluate(series, trial.ravel()).reshape(*trial.shape, -1)
        g = values[..., :half]
        cost = np.einsum("ijk,ijk->ij", g, g)
        # not (trial < 0) | (trial > pi), which would let a NaN through
        cost[~((0.0 <= trial) & (trial <= math.pi))] = np.inf
        ok &= cost[:, 1] < np.inf  # the step is finite and in [0, pi]
        best = np.argmin(cost, axis=1)
        betas, values = trial[rows, best], values[rows, best]
    return betas, ok


def solve_colorings(diagram, psi, grid=DEFAULT_GRID):
    """Nontrivial colorings of a 2-bridge diagram over SphereQuandle(psi).

    Arc j is colored W_j b_j W_j^-1, with W_j a reduced word in the two
    bridge generators and b_j a bridge color: the coloring by the free
    quandle on the bridges, which ``propagate`` builds (``_arc_words``).
    So rounding grows with the word length, not along the arc chain as in
    a numeric ``propagate``.  The words are compiled once per diagram, on
    its first solve, into two ``_word_program``s (``_solver``), each run as
    a function of (psi, betas) with nothing bound per psi: the relation
    gaps, run once per solve on 2D + 2 betas for their Fourier
    coefficients (``_gap_series``), and the arc words, run once on the
    refined candidates for the final colors.  Three stages, each on all
    candidates at once, the first two on the coefficients (``_evaluate``):

    1. grid scan: every local minimum over ``grid`` seed angles in [0, pi]
       of the largest relation gap of a residual crossing;
    2. refinement: Gauss-Newton in beta alone on those gaps, with their
       exact slopes, reaching a simple root and also the double root at a
       window end (``_refine``);
    3. acceptance: the refinement stayed finite in [0, pi] and the
       ``residual`` over all crossings of the coloring, all arcs evaluated
       from their words, is at most EPS_COLOR; one batched Rodrigues check
       of every crossing and candidate, independent of the words and of
       the coefficients.

    A seed angle beta at most SPREAD_TOL puts the seed on the basepoint,
    which gives the trivial constant coloring; it is dropped, as are
    duplicate seeds within SEED_TOL.  ``grid`` lies in 16..MAX_GRID and
    above D + 1, with D the degree of the gaps in beta (``_solver``): a
    gap of degree D has up to 2D roots per period, so a coarser scan
    merges neighbouring seeds into one cell and drops them.
    Returns a list of (beta, Coloring) sorted by beta, from ``_solve``.
    """
    betas, colors, _ = _solve(diagram, psi, grid)
    quandle = SphereQuandle(psi)
    return [(beta, Coloring(quandle, colors[:, i]))
            for i, beta in enumerate(betas.tolist())]


def _solve(diagram, psi, grid=DEFAULT_GRID):
    """``solve_colorings``'s seeds as arrays: the betas, their colors, shape
    (arcs, seeds, 3), and the residuals that stage 3 accepted them with."""
    grid = _index(grid, "grid")
    if not 16 <= grid <= MAX_GRID:
        raise BadParameter(f"grid must lie in 16..{MAX_GRID}, not {grid}")
    quandle = SphereQuandle(psi)  # BadParameter unless 0 < psi < 2*pi
    gap_program, arc_program, degree = _solver(diagram)
    if grid - 1 <= degree:
        raise BadParameter(f"grid must be at least {degree + 2} for this "
                           f"diagram, whose gaps have degree {degree} in "
                           f"beta, not {grid}")
    series = _gap_series(gap_program, psi, degree)
    betas, ok = _refine(series, *_grid_minima(series, grid))
    colors = np.moveaxis(arc_program(psi, betas), 0, -1)
    res = residual(Coloring(quandle, colors), diagram)
    ok &= res <= EPS_COLOR
    ok &= betas > SPREAD_TOL  # a seed on the basepoint colors every arc x

    cell = math.pi / (grid - 1)
    keep = []
    for i in np.flatnonzero(ok)[np.argsort(betas[ok], kind="stable")]:
        gap = betas[i] - betas[keep[-1]] if keep else math.inf
        if gap <= SEED_TOL:
            continue
        if gap <= cell:
            warnings.warn("two seeds inside one grid cell; increase the "
                          "grid", stacklevel=3)  # names solve_colorings' caller
        keep.append(i)
    return betas[keep], colors[:, keep], res[keep]


# ---------------------------------------------------------------------------
# dihedral (Fox) oracle


def fox_colorings(diagram, m):
    """All nontrivial Fox colorings with the initial arc colored 0: every
    second bridge color at once, propagated as one integer stack."""
    quandle = DihedralQuandle(m)  # BadParameter unless m >= 3
    # seed 0 gives the constant coloring, and any other seed a nontrivial one
    seeds = np.arange(1, m)
    colors = np.array(propagate(diagram, quandle, (0 * seeds, seeds)))
    ok = residual(Coloring(quandle, colors), diagram) == 0.0
    return [Coloring(quandle, tuple(c)) for c in colors.T[ok].tolist()]


# ---------------------------------------------------------------------------
# coloring transforms


def _check_sphere(coloring, what):
    """BadParameter unless the coloring is over a sphere quandle."""
    if not isinstance(coloring.quandle, SphereQuandle):
        raise BadParameter(f"{what} is defined for sphere colorings, not "
                           f"{type(coloring.quandle).__name__} ones")


def rotate_coloring(coloring, phi):
    """Rotate every color about the basepoint axis (1,0,0) by phi."""
    _check_sphere(coloring, "rotate_coloring")
    return Coloring(coloring.quandle, rotate(coloring.colors, phi, BASEPOINT))


def reflect_coloring(coloring):
    """Reflect every color through the xz-plane (y -> -y).

    An orientation-reversing isometry: it turns a coloring of a diagram into
    a coloring of the mirror diagram (all crossing signs flipped) over the
    same spherical quandle, fixing the basepoint.
    """
    _check_sphere(coloring, "reflect_coloring")
    return Coloring(coloring.quandle, np.asarray(coloring.colors) * [1, -1, 1])

"""1-tangle diagrams as Wirtinger codes.

A Wirtinger code (kappa, eps) records, for each crossing i = 1..n, which arc
is crossed under (kappa(i)) and the crossing sign (eps(i)).  Arcs are
numbered 0..n along the tangle; arc 0 is the initial arc, arc n the terminal
arc.  The crossing relation in a conjugation quandle reads

    color(i) = color(kappa(i))^(-eps(i)) * color(i-1) * color(kappa(i))^(eps(i))

i.e. color(i) = op_signed(color(i-1), color(kappa(i)), eps(i)) in any quandle.

A ``TangleDiagram`` augments the code with a 2-bridge propagation schedule:
two bridge arcs seed the colors and each schedule entry (target, crossing)
defines one further arc from the crossing relation and arcs defined before
it; the remaining crossings are residual consistency constraints.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from .errors import BadParameter, ParseError, ValidationError

__all__ = [
    "WirtingerCode",
    "TangleDiagram",
    "LongitudeWord",
    "torus2n",
    "torus_interval",
    "torus_theta_interval",
    "check_psi",
    "fig8",
    "longitude_word",
    "parse",
    "serialize",
]


def _ints(values, what):
    """``values`` as ints: a float or a string is a ValidationError, not
    truncated; numpy integers pass."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValidationError(
            f"{what} must be integers, not {values!r}"
        ) from None


@dataclass(frozen=True)
class WirtingerCode:
    """Per-crossing under-arc list kappa and sign list eps."""

    kappa: tuple
    eps: tuple

    def __post_init__(self):
        object.__setattr__(self, "kappa", _ints(self.kappa, "kappa values"))
        object.__setattr__(self, "eps", _ints(self.eps, "eps values"))
        n = len(self.kappa)
        if len(self.eps) != n:
            raise ValidationError("kappa and eps must have equal length")
        if any(not 0 <= k <= n for k in self.kappa):
            raise ValidationError("kappa values must lie in 0..n")
        if any(e not in (1, -1) for e in self.eps):
            raise ValidationError("eps values must be +1 or -1")

    @property
    def n(self):
        return len(self.kappa)

    @property
    def writhe(self):
        return sum(self.eps)


@dataclass(frozen=True)
class LongitudeWord:
    """Symbolic longitude x_0^lead * prod x_(kappa_i)^(eps_i)."""

    lead_exponent: int
    factors: tuple  # ordered (arc, exponent) pairs


def longitude_word(code):
    """The preferred longitude of the tangle: leading exponent -writhe on
    arc 0 followed by the over-arc generators in crossing order.  Built on
    the code's first call and kept beside its fields, out of its ``==``,
    ``hash`` and ``repr``, so that every route reads one word."""
    word = vars(code).get("_longitude_word")
    if word is None:
        word = LongitudeWord(
            lead_exponent=-code.writhe,
            factors=tuple(zip(code.kappa, code.eps)),
        )
        object.__setattr__(code, "_longitude_word", word)
    return word


@dataclass(frozen=True)
class TangleDiagram:
    """Wirtinger code plus 2-bridge propagation data.

    ``bridge_arcs`` are arc 0, which carries the basepoint, and the arc
    that carries the seed.  ``schedule`` entries are (target_arc, crossing)
    pairs: the relation of that crossing, solved for the target arc (the
    target must be the incoming or outgoing under-arc of the crossing) from
    its source, the other under-arc, and its over-arc, both defined before
    the entry.  The crossings the schedule does not use are
    ``residual_crossings``; when the bridges and the schedule leave the
    terminal arc undefined, it takes the initial arc's color
    (``terminal_is_initial``).  One walk at construction checks the
    schedule and stores these and the ``steps`` beside the fields.
    """

    code: WirtingerCode
    bridge_arcs: tuple = ()
    schedule: tuple = ()
    name: str = field(default="", compare=False)  # a label, not in ==

    def __post_init__(self):
        n, kappa, eps = self.code.n, self.code.kappa, self.code.eps
        bridges = _ints(self.bridge_arcs, "bridge arcs")
        schedule = tuple(_ints(entry, "schedule entries")
                         for entry in self.schedule)
        if any(len(entry) != 2 for entry in schedule):
            raise ValidationError("schedule entries must be (arc, crossing) "
                                  f"pairs, not {schedule}")
        object.__setattr__(self, "bridge_arcs", bridges)
        object.__setattr__(self, "schedule", schedule)
        steps, terminal = [], False
        if bridges or schedule:
            if len(bridges) != 2 or not bridges[0] == 0 < bridges[1] <= n:
                # the basepoint convention colors arc 0 and seeds the other
                raise ValidationError(
                    f"bridge arcs must be arc 0 followed by an arc in 1..{n}, "
                    f"not {bridges}"
                )
            targets = [t for t, _ in schedule]
            known = set(bridges)
            terminal = n not in known.union(targets)
            if terminal:
                known.add(n)
            if len(set(targets)) != len(targets):
                raise ValidationError("schedule targets must be distinct")
            if set(targets) != set(range(n + 1)) - known:
                raise ValidationError(
                    "schedule targets must cover exactly the non-seeded arcs"
                )
            for target, ci in schedule:
                if not 1 <= ci <= n:
                    raise ValidationError(f"crossing {ci} out of range")
                if target not in (ci, ci - 1):
                    raise ValidationError(
                        f"crossing {ci} cannot define arc {target}"
                    )
                # the source is the other under-arc; the relation is read
                # forward for the out-arc and inverted for the in-arc
                source, over = 2 * ci - 1 - target, kappa[ci - 1]
                if not {source, over} <= known:
                    raise ValidationError(
                        f"schedule entry ({target}, {ci}) references "
                        "undefined arcs"
                    )
                known.add(target)
                steps.append((target, source, over,
                              (target - source) * eps[ci - 1]))
        used = {ci for _, ci in schedule}
        object.__setattr__(self, "_steps", tuple(steps))
        object.__setattr__(self, "residual_crossings", tuple(
            ci for ci in range(1, n + 1) if ci not in used))
        object.__setattr__(self, "terminal_is_initial", terminal)

    def steps(self):
        """Each schedule entry as (target, source, over, sign), with target
        = op_signed(source, over, sign): the crossing relation read forward
        for the out-arc and inverted for the in-arc."""
        return self._steps


def torus2n(n, sign=1):
    """The standard closed-2-braid tangle of the (2, n) torus knot.

    n odd crossings, all of the given sign; arcs 0..n.  Arc j carries the
    braid color q_(2j mod n), so the two bridges (colors q_0 and q_1) sit on
    arcs 0 and (n+1)/2, and the crossing relations reduce to the braid
    recurrence q_(i+1) = q_i^-1 q_(i-1) q_i (indices mod n) for sign +1.
    """
    torus_interval(n, 1)  # BadParameter unless n is odd and >= 3
    sign = _index(sign, "sign")
    if sign not in (1, -1):
        raise BadParameter("sign must be +1 or -1")
    k = (n - 1) // 2
    code = _torus_code(n, sign)
    # define braid colors q_2..q_(n-1) in order, then the terminal arc;
    # arc of q_j is j*(k+1) mod n because 2*(k+1) = 1 (mod n)
    schedule = [(j * (k + 1) % n, j * (k + 1) % n) for j in range(2, n)]
    schedule.append((n, n))
    return TangleDiagram(
        code=code,
        bridge_arcs=(0, k + 1),
        schedule=tuple(schedule),
        name=f"torus2n({n},{sign:+d})",
    )


def _index(value, what):
    """``value`` as an int: a float or a string is a BadParameter, not
    truncated; numpy integers pass."""
    try:
        return operator.index(value)
    except TypeError:
        raise BadParameter(
            f"{what} must be an integer, not {value!r}"
        ) from None


def _torus_code(n, sign):
    """The Wirtinger code of ``torus2n(n, sign)``: crossing i passes under
    arc (i + (n-1)/2) mod n, every crossing of the given sign."""
    k = (n - 1) // 2
    return WirtingerCode(tuple((i + k) % n for i in range(1, n + 1)),
                         (sign,) * n)


def torus_interval(n, h):
    """Open psi-interval ((n-2h)pi/n, (n+2h)pi/n) admitting the step-h
    star-polygon coloring of the (2, n) torus knot."""
    n, h = _index(n, "n"), _index(h, "h")
    if n < 3 or n % 2 == 0:
        raise BadParameter("n must be an odd integer >= 3")
    if n >= 2**52:
        raise BadParameter("n must be below 2**52, where n - 2h, n and n + 2h "
                           "stay exact floats")
    if not 1 <= h <= (n - 1) // 2:
        raise BadParameter(f"h must lie in 1..{(n - 1) // 2}")
    return ((n - 2 * h) * math.pi / n, (n + 2 * h) * math.pi / n)


def torus_theta_interval(n, h):
    """The same interval in theta = pi - psi/2 coordinates: the ends of the
    psi-interval sum to 2*pi, so it is their halves."""
    lo, hi = torus_interval(n, h)
    return (0.5 * lo, 0.5 * hi)


def check_psi(psi):
    """BadParameter unless psi, a sphere quandle's angle, is in (0, 2*pi)."""
    if not 0.0 < psi < 2.0 * math.pi:
        raise BadParameter(f"psi must lie in (0, 2*pi), not {psi}")


def fig8():
    """The 4-crossing figure-eight tangle, writhe 0.

    Bridges are arcs 0 and 2; arc 1 is defined at crossing 1 and arc 3 at
    crossing 4 (with the terminal arc 4 identified with arc 0); crossings 2
    and 3 are residual constraints.
    """
    code = WirtingerCode(kappa=(2, 3, 0, 1), eps=(1, -1, 1, -1))
    return TangleDiagram(
        code=code,
        bridge_arcs=(0, 2),
        schedule=((1, 1), (3, 4)),
        name="fig8",
    )


def serialize(d):
    """Text form of a diagram (see ``parse`` for the grammar)."""
    lines = [f"tangle n={d.code.n}"]
    lines.append("kappa=" + ",".join(str(k) for k in d.code.kappa))
    lines.append("eps=" + ",".join("+" if e > 0 else "-" for e in d.code.eps))
    if d.bridge_arcs:
        lines.append("bridges=" + ",".join(str(a) for a in d.bridge_arcs))
        lines.append(
            "schedule=" + ";".join(f"{a}:{c}" for a, c in d.schedule)
        )
    return "\n".join(lines) + "\n"


def parse(text):
    """Parse the line-based tangle format:

        tangle n=<N>
        kappa=<c0>,...,<c_{N-1}>
        eps=<s0>,...,<s_{N-1}>        (each + or -)
        bridges=<a>,<b>               (optional)
        schedule=<arc>:<crossing>;... (optional, may be empty)

    Comments start with '#'; unknown and repeated keys are rejected.  The
    residual crossings and the terminal identification follow from the
    bridges and the schedule (see ``TangleDiagram``).
    """
    n = kappa = eps = bridges = schedule = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            if not line.startswith("tangle"):
                raise ParseError("expected 'tangle n=<N>' header", lineno)
            try:
                key, val = line[len("tangle"):].strip().split("=", 1)
            except ValueError:
                raise ParseError("malformed tangle header", lineno) from None
            if key.strip() != "n":
                raise ParseError(f"unknown header key {key!r}", lineno)
            try:
                n = int(val)
            except ValueError:
                raise ParseError(f"bad crossing count {val!r}", lineno) from None
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", lineno)
        key, val = (s.strip() for s in line.split("=", 1))
        if key in seen:
            raise ParseError(f"repeated key {key!r}", lineno)
        seen.add(key)
        if key == "kappa":
            try:
                kappa = tuple(int(s) for s in (val.split(",") if val else ()))
            except ValueError:
                raise ParseError("kappa entries must be integers", lineno) from None
        elif key == "eps":
            signs = [s.strip() for s in (val.split(",") if val else ())]
            if any(s not in ("+", "-") for s in signs):
                raise ParseError("eps entries must be '+' or '-'", lineno)
            eps = tuple(1 if s == "+" else -1 for s in signs)
        elif key == "bridges":
            try:
                bridges = tuple(int(s) for s in val.split(","))
            except ValueError:
                raise ParseError("bridge entries must be integers", lineno) from None
            if len(bridges) != 2:
                raise ParseError(
                    f"expected exactly two bridges, got {len(bridges)}", lineno
                )
        elif key == "schedule":
            schedule = []
            for item in val.split(";") if val else ():
                try:
                    arc, crossing = item.split(":")
                    schedule.append((int(arc), int(crossing)))
                except ValueError:
                    raise ParseError(
                        f"bad schedule entry {item!r}", lineno
                    ) from None
            schedule = tuple(schedule)
        else:
            raise ParseError(f"unknown key {key!r}", lineno)

    if n is None:
        raise ParseError("missing 'tangle n=<N>' header")
    if kappa is None or eps is None:
        raise ParseError("missing kappa or eps line")
    if len(kappa) != n:
        raise ValidationError(f"kappa has {len(kappa)} entries, expected {n}")
    if len(eps) != n:
        raise ValidationError(f"eps has {len(eps)} entries, expected {n}")
    code = WirtingerCode(kappa, eps)

    if (bridges is None) != (schedule is None):
        raise ValidationError("bridges and schedule must be given together")
    return TangleDiagram(code, bridges or (), schedule or ())

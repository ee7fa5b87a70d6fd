"""Command-line front end.

Subcommands:

- ``verify``    run a named invariant suite, exit nonzero on any breach
- ``color``     solve for the nontrivial colorings of a diagram at a given psi
- ``sweep``     emit CSV of longitude values over a theta grid
- ``intervals`` print the colorable psi/theta intervals of a torus knot

Angles are radians by default; pass ``--deg`` to give them in degrees.
argparse parses the syntax and the handlers check the values, a suite name
too.  Exit codes: 0 success, 1 verification failure (a check that raises is
one), 2 usage or parse error.
Each command returns its exit code and its output lines, and ``main``
writes them; ``sweep``, and ``intervals`` and ``color`` in either format,
are generators, so none of these reports is ever kept whole.  A reader
that closes stdout early, as ``| head`` does, does not change the exit code,
and ``verify`` prints after all its checks, so a breach exits 1 even then.

Importing this module imports no numpy: each handler imports the layers it
runs after the checks that need none of them.  So ``intervals`` and
``sweep``, whose rows are the closed forms of ``longmap.scalar`` in plain
floats, never import numpy, nor does a command that fails on its knot, its
tangle file, ``--branches``, or, in ``color``, psi or the arc bound
MAX_ARCS.  ``json`` too is imported only by the reports that print it.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys

from .errors import LongmapError, OutOfInterval, ParseError
from .tangles import (check_psi, fig8, parse, torus2n, torus_interval,
                      torus_theta_interval)

FMT = "{:.17g}"
MAX_STEPS = 100_000  # bounds the theta grid; a sweep has steps x branches rows
# color's output grows as arcs^2, up to (n - 1)/2 seeds of n + 1 arcs for
# T(2,n): T(2,1001) prints 35 MB of text or 50 MB of JSON, each in 1.4 s
# (medians of 5, 2-CPU machine), both at the solver's own 90 MB peak RSS
MAX_ARCS = 1002


def _fmt(x):
    return FMT.format(float(x))


def _parse_knot(spec):
    """The knot named by ``fig8`` or ``torus:n[:sign]``: None for the
    figure-eight knot, (n, sign) for the (2, n) torus knot."""
    parts = spec.strip().split(":")
    if parts == ["fig8"]:
        return None
    if parts[0] == "torus" and len(parts) in (2, 3):
        try:
            n = int(parts[1])
            sign = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            pass
        else:
            if sign in (1, -1):
                return n, sign
    raise LongmapError(f"unknown knot {spec!r} (use fig8 or torus:n[:sign])")


def _parse_branches(text, allowed):
    """The branch list of ``sweep --branches``: 'all' or a comma-separated
    list of distinct members of ``allowed``, a tuple or a range, never
    copied."""
    if text == "all":
        return allowed
    try:
        branches = [int(b) for b in text.split(",")]
    except ValueError:
        branches = None
    if branches is None or not all(b in allowed for b in branches):
        raise LongmapError(
            f"--branches takes 'all' or a comma-separated list from "
            f"{allowed[0]}..{allowed[-1]}, not {text!r}"
        )
    if len(set(branches)) < len(branches):
        raise LongmapError(f"--branches names a branch twice: {text!r}")
    return branches


def _load_diagram(args):
    """The diagram of --file or --knot, of at most MAX_ARCS arcs."""
    if (args.knot is None) == (args.file is None):
        raise LongmapError("give either --knot or --file")
    if args.file is not None:
        try:
            with open(args.file, encoding="utf-8") as fh:
                diagram = parse(fh.read())
        except UnicodeDecodeError as exc:
            raise ParseError(f"{args.file} is not UTF-8 text: {exc}") from None
        _check_arcs(diagram.code.n + 1)
        return diagram
    knot = _parse_knot(args.knot)
    if knot is None:
        return fig8()
    _check_arcs(knot[0] + 1)
    return torus2n(*knot)


def _check_arcs(arcs):
    if arcs > MAX_ARCS:
        raise LongmapError(f"color solves up to {MAX_ARCS} arcs, not {arcs}")


def _angle(value, args):
    return math.radians(value) if args.deg else value


def cmd_verify(args):
    from .verification import SUITES, CheckLine

    if args.suite not in (*SUITES, "all"):
        raise LongmapError(f"unknown suite {args.suite!r} (use "
                           f"{', '.join(SUITES)} or all)")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = []
    for name in names:
        try:
            checks += SUITES[name]()
        except (LongmapError, ValueError) as exc:  # a breach, not bad usage
            checks.append(CheckLine(f"{name} suite raised {exc!r}",
                                    math.inf, 0.0))
    code = 0 if all(line.passed for line in checks) else 1
    return code, [f"{line}\n" for line in checks]


def cmd_color(args):
    diagram = _load_diagram(args)
    psi = _angle(args.psi, args)
    check_psi(psi)
    from .colorings import _solve

    grid = {} if args.grid is None else {"grid": args.grid}
    report = _color_json if args.json else _color_lines
    return 0, report(psi, *_solve(diagram, psi, **grid))


def _color_lines(psi, betas, colors, residuals):
    """The text report of ``color``: a header line, then a string per seed
    of its beta and residual and the colors of its arcs, a line each."""
    yield f"psi = {_fmt(psi)}: {len(betas)} nontrivial seed(s)\n"
    for i, (beta, res) in enumerate(zip(betas.tolist(), residuals.tolist())):
        yield f"  beta = {_fmt(beta)}  residual = {res:.3e}\n" + "".join([
            f"    arc {arc}: ({x:.17g}, {y:.17g}, {z:.17g})\n"
            for arc, (x, y, z) in enumerate(colors[:, i].tolist())])


def _color_json(psi, betas, colors, residuals):
    """The JSON report of ``color``, ``json.dumps({"psi": psi, "seeds":
    [...]}, indent=2)`` and a newline, a seed at a time, laid out here as
    ``_json_lines`` does: json's indenting encoder is pure Python.  Every
    number is finite (psi passes ``check_psi``, and a NaN color fails the
    solver's acceptance), so ``repr`` prints what json prints."""
    import json

    yield f'{{\n  "psi": {json.dumps(psi)},\n  "seeds": ['
    sep = "\n    "
    for i, (beta, res) in enumerate(zip(betas.tolist(), residuals.tolist())):
        arcs = ",\n        ".join(
            f"[\n          {x!r},\n          {y!r},\n          {z!r}\n"
            "        ]" for x, y, z in colors[:, i].tolist())
        yield (f'{sep}{{\n      "beta": {beta!r},\n      "residual": {res!r},'
               f'\n      "colors": [\n        {arcs}\n      ]\n    }}')
        sep = ",\n    "
    yield "\n  ]\n}\n" if len(betas) else "]\n}\n"


def _sweep_lines(thetas, branches, seed_beta, longitude):
    """The CSV header, then the line theta,branch,beta,L_re,L_im,phi of each
    theta and branch from ``seed_beta(psi, branch)`` and ``longitude(theta,
    branch)``; outside a branch's window the last four columns are empty."""
    yield "theta,branch,beta,L_re,L_im,phi\n"
    for theta in thetas:
        psi = 2.0 * math.pi - 2.0 * theta
        for branch in branches:
            try:
                beta = seed_beta(psi, branch)
                value = longitude(theta, branch)
            except OutOfInterval:
                yield f"{_fmt(theta)},{branch},,,,\n"
                continue
            yield (f"{_fmt(theta)},{branch},{_fmt(beta)},{_fmt(value.q.a)},"
                   f"{_fmt(value.q.b)},{_fmt(value.phi)}\n")


def cmd_sweep(args):
    theta_min = _angle(args.theta_min, args)
    theta_max = _angle(args.theta_max, args)
    if not theta_min < theta_max:
        raise LongmapError("need theta_min < theta_max")
    psis = 2.0 * math.pi - 2.0 * theta_min, 2.0 * math.pi - 2.0 * theta_max
    if not all(map(math.isfinite, (theta_max - theta_min, *psis))):
        raise LongmapError("theta and psi = 2*pi - 2*theta must stay finite")
    if not 2 <= args.steps <= MAX_STEPS:
        raise LongmapError(
            f"steps must lie in 2..{MAX_STEPS}, not {args.steps}"
        )
    knot = _parse_knot(args.knot)
    if knot is None:
        branches = _parse_branches(args.branches, (1, 2))
    else:
        n, sign = knot
        torus_interval(n, 1)  # BadParameter unless n is odd and >= 3
        branches = _parse_branches(args.branches, range(1, (n - 1) // 2 + 1))
    from .scalar import (fig8_betas, fig8_closed_form, linspace, star_beta,
                         t2n_closed_form)

    thetas = linspace(theta_min, theta_max, args.steps)
    if knot is None:
        lines = _sweep_lines(thetas, branches,
                             lambda psi, b: fig8_betas(psi)[b - 1],
                             fig8_closed_form)
    else:
        lines = _sweep_lines(thetas, branches,
                             lambda psi, h: star_beta(n, h, psi),
                             lambda theta, h: t2n_closed_form(
                                 n, theta, mirror=sign < 0))
    # every check has run, so an error exit writes nothing
    if args.out == "-":
        return 0, lines
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)
    return 0, ()


def _json_lines(rows):
    """The (h, psi, theta) rows as ``json.dumps(..., indent=2)`` and a
    newline, a row at a time, laid out here: json indents in pure Python,
    which leaves a reference cycle behind each call.  ``rows`` is not empty."""
    import json

    head = "["
    for h, *ends in rows:
        a, b, c, d = map(json.dumps, ends)
        yield (f'{head}\n  {{\n    "h": {h},\n    "psi": [\n      {a},\n'
               f'      {b}\n    ],\n    "theta": [\n      {c},\n      {d}\n'
               '    ]\n  }')
        head = ","
    yield "\n]\n"


def cmd_intervals(args):
    n = args.n
    torus_interval(n, 1)  # BadParameter unless n is odd and >= 3
    rows = ((h, *torus_interval(n, h), *torus_theta_interval(n, h))
            for h in range(1, (n - 1) // 2 + 1))
    if args.json:
        return 0, _json_lines(rows)
    return 0, itertools.chain(
        [f"T(2,{n}) colorable intervals:\n",
         f"{'h':>3}  {'psi interval':>32}  {'theta interval':>32}\n"],
        (f"{h:>3}  ({a:14.10f}, {b:14.10f})  ({c:14.10f}, {d:14.10f})\n"
         for h, a, b, c, d in rows))


def build_parser():
    p = argparse.ArgumentParser(
        prog="longmap",
        description="Quandle colorings and the SU(2) longitudinal mapping",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run an invariant suite")
    pv.add_argument("suite", help="which suite to run, or all")
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("color", help="solve for colorings at a given psi")
    pc.add_argument("--knot", help="fig8 or torus:n[:sign]")
    pc.add_argument("--file", help="tangle text file")
    pc.add_argument("--psi", type=float, required=True)
    pc.add_argument("--grid", type=int,
                    help="seed angles in the scan (default and range: "
                         "the solver's)")
    pc.add_argument("--deg", action="store_true", help="angles in degrees")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=cmd_color)

    ps = sub.add_parser("sweep", help="CSV of longitude values over theta")
    ps.add_argument("--knot", required=True, help="fig8 or torus:n[:sign]")
    ps.add_argument("--theta-min", type=float, required=True)
    ps.add_argument("--theta-max", type=float, required=True)
    ps.add_argument("--steps", type=int, default=200,
                    help=f"theta grid points, 2..{MAX_STEPS}")
    ps.add_argument("--branches", default="all",
                    help="'all' or comma-separated branch/step list")
    ps.add_argument("--out", default="-", help="output path ('-' = stdout)")
    ps.add_argument("--deg", action="store_true", help="angles in degrees")
    ps.set_defaults(func=cmd_sweep)

    pi = sub.add_parser("intervals", help="colorable intervals of T(2,n)")
    pi.add_argument("n", type=int)
    pi.add_argument("--json", action="store_true")
    pi.set_defaults(func=cmd_intervals)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    code = 0  # a sweep --out pipe can close before its handler returns
    try:
        code, lines = args.func(args)
        sys.stdout.writelines(lines)
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
    except BrokenPipeError:
        # the reader stopped early, as ``| head`` does; stdout goes to
        # devnull so that the flush at shutdown does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (LongmapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())

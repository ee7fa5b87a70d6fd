"""The benchmark's three workloads: inputs from the seed, the timed call into
the package, and the oracle check of its output.

Each workload is an endless sequence of cycles.  Cycle ``c`` is a fixed list
of ops whose parameters come only from ``(seed, workload, c)``, so one seed
regenerates the same inputs however long a run lasts, and a run made of
whole cycles always has the same mix of ops.

- ``solve``: ``solve_colorings`` then ``eval_word`` on every seed, for the
  figure-eight knot and T(2, n), n in SOLVE_TORUS.  Exercises the grid scan
  and golden-section refinement; bypasses ``star_polygon`` (brentq) and
  the pure-Python quaternion path, which it uses only for a few words.
- ``closed-forms``: one closed-form coloring per op (``star_polygon`` plus
  its mirror, or ``fig8_coloring``), each evaluated by ``eval_word`` and
  ``galex_lift``.  Exercises brentq and the ``Quaternion`` arithmetic, which
  grows with n; bypasses the solver.
- ``cli``: a fixed list of ``longmap`` commands, each in a fresh
  interpreter: short queries, bulk CSV output, every verify suite, and the
  malformed commands the CLI must refuse with exit code 2.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles as O
from calibrate import ProcessSampler, Sampler

BENCH = Path(__file__).resolve().parent
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

SOLVE_TORUS = (5, 7, 9, 15, 21)
CF_TORUS = (3, 7, 21, 51, 101)
CLI_TIMEOUT_S = 120


@dataclass
class Verdict:
    """Oracle verdict on one op.

    ``wrong`` lists what no correct program would do: an op that raised, a
    well-formed command that exited non-zero or printed a traceback, and a
    deterministic output computed from exact inputs (closed forms,
    longitude words and lifts of closed-form colorings, CSV values, verify
    and interval reports) that an oracle contradicts.  ``failures`` lists
    the rest of what went wrong: the solver's seed set judged as a search
    (missed seeds, seeds the oracle does not have, seeds too imprecise to
    satisfy every crossing relation or to give the closed-form longitude),
    and malformed commands that did not exit 2.  The op failed if either
    list is non-empty or it found fewer oracle seeds than expected.
    """

    expected: int = 0
    found: int = 0
    wrong: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def failed(self):
        return bool(self.wrong or self.failures or self.found < self.expected)


def _rng(seed, workload, *keys):
    return np.random.default_rng([seed, sum(map(ord, workload)), *keys])


def _quat(q):
    return (q.a, q.b, q.c, q.d)


def _check_longitude(v, what, q, re, im):
    gap = O.quat_gap(_quat(q), re, im)
    if not gap <= O.LONGITUDE_TOL:
        v.wrong.append(f"{what} off its closed form by {gap:.2e}")


def _check_lift(v, what, lift, word):
    gap = math.dist(_quat(lift), _quat(word))
    if not gap <= O.LIFT_TOL:
        v.wrong.append(f"{what} lift off the word by {gap:.2e}")


def _check_relations(v, what, code, psi, colors):
    gap = O.relation_gap(code, psi, colors)
    if not gap <= O.RELATION_TOL:
        v.wrong.append(f"{what} breaks its crossing relations by {gap:.2e}")


class Solve:
    name = "solve"
    # 10 cycles take about 24 s of scaled op time, so runs of up to that
    # length all have the same 80 ops, and the tail (the 11th-largest) the
    # same rank among T(2,21)'s latencies, which spread widely with psi
    min_cycles = 10
    sampler = Sampler

    def __init__(self, seed):
        self.seed = seed
        # T(2,9) and T(2,21) twice: the median latency then falls inside
        # T(2,9)'s latencies rather than in the gap between T(2,7)'s and
        # T(2,9)'s, and the tail (the 11th-largest) near the middle of
        # T(2,21)'s rather than in their lower tail, where both would jump
        # from run to run
        self.knots = ["fig8"] + [("torus", n) for n in SOLVE_TORUS]
        self.knots.insert(4, ("torus", 9))
        self.knots.append(("torus", 21))
        # psi for op j in cycle c: a golden-ratio sequence with a seeded
        # start, which spreads psi evenly over each knot's window
        self.offsets = _rng(seed, self.name).random(len(self.knots))

    def setup_code(self):
        return ("from longmap.tangles import fig8, torus2n\n"
                f"fig8(); [torus2n(n) for n in {SOLVE_TORUS}]\n")

    def setup(self, longmap):
        self.lm = longmap
        self.diagrams = {"fig8": longmap.fig8()}
        for n in SOLVE_TORUS:
            self.diagrams[("torus", n)] = longmap.torus2n(n)

    def cycle(self, c):
        return [(knot, O.pick_psi(knot, (u + c * INV_PHI) % 1.0))
                for knot, u in zip(self.knots, self.offsets)]

    def expected(self, op):
        return len(O.expected_seeds(*op))

    def label(self, op):
        return _label(op[0])

    def run(self, op, tracer=None):
        knot, psi = op
        d = self.diagrams[knot]
        seeds = self.lm.solve_colorings(d, psi)
        values = []
        for _beta, col in seeds:
            try:
                values.append(self.lm.eval_word(d, col))
            except self.lm.errors.LongmapError as exc:
                values.append(exc)
        return seeds, values

    def check(self, op, out):
        knot, psi = op
        seeds, values = out
        v = Verdict(self.expected(op))
        good = check_seeds(v, _label(knot), knot, psi,
                           [(beta, col.colors) for beta, col in seeds])
        for (beta, _col), value in zip(seeds, values):
            if beta not in good:
                continue
            if isinstance(value, Exception):
                v.failures.append(f"{_label(knot)}: eval_word raised "
                                  f"{type(value).__name__} on a solver seed")
                continue
            # the seed's own imprecision (up to RELATION_TOL per crossing)
            # carries into its longitude, so a miss is the solver's failure;
            # eval_word itself is held to the closed forms by closed-forms
            re, im = O.knot_longitude(knot, psi, beta)
            gap = O.quat_gap(_quat(value.q), re, im)
            if not gap <= O.LONGITUDE_TOL:
                v.failures.append(f"{_label(knot)}: solver seed's longitude "
                                  f"off its closed form by {gap:.1e}")
        return v


def check_seeds(v, what, knot, psi, seeds):
    """Judge a solver's seeds [(beta, colors)] against the oracle; set
    ``v.found`` and return the betas that match an oracle seed and satisfy
    every crossing relation."""
    want = O.expected_seeds(knot, psi)
    v.found, extra = O.match_seeds(want, [b for b, _c in seeds])
    if extra:
        v.failures.append(f"{what}: {extra} seed(s) the oracle does not have")
    if v.found < len(want):
        v.failures.append(f"{what}: found {v.found} of {len(want)} seeds")
    good = []
    code = O.knot_code(knot)
    for beta, colors in seeds:
        if not any(abs(beta - w) <= O.SEED_TOL for w in want):
            continue
        gap = O.relation_gap(code, psi, colors)
        if gap <= O.RELATION_TOL:
            good.append(beta)
        else:
            v.failures.append(f"{what}: solver coloring breaks its crossing "
                              f"relations by {gap:.1e}")
    return good


class ClosedForms:
    name = "closed-forms"
    min_cycles = 1
    sampler = Sampler

    def __init__(self, seed):
        self.seed = seed

    def setup_code(self):
        return ("from longmap.tangles import fig8, torus2n\n"
                f"fig8(); [torus2n(n, s) for n in {CF_TORUS}"
                " for s in (1, -1)]\n")

    def setup(self, longmap):
        self.lm = longmap
        self.fig8 = longmap.fig8()
        self.torus = {(n, s): longmap.torus2n(n, s)
                      for n in CF_TORUS for s in (1, -1)}

    def cycle(self, c):
        rng = _rng(self.seed, self.name, c)
        ops = []
        for n in CF_TORUS:
            h = int(rng.integers(1, (n - 1) // 2 + 1))
            _h, lo, hi = O.torus_windows(n)[h - 1]
            psi = lo + (hi - lo) * rng.uniform(0.05, 0.95)
            ops.append(("torus", n, h, psi))
        lo, hi = O.fig8_window()
        for branch in (1, 2):
            ops.append(("fig8", 0, branch,
                        lo + (hi - lo) * rng.uniform(0.05, 0.95)))
        return ops

    def expected(self, op):
        return 2 if op[0] == "torus" else 1

    def label(self, op):
        return "fig8" if op[0] == "fig8" else f"T(2,{op[1]})"

    def run(self, op, tracer=None):
        lm = self.lm
        kind, n, h, psi = op
        if kind == "fig8":
            col = lm.fig8_coloring(psi, h)
            return (col, lm.eval_word(self.fig8, col),
                    lm.galex_lift(self.fig8, col))
        pos, neg = self.torus[(n, 1)], self.torus[(n, -1)]
        col = lm.star_polygon(n, h, psi)
        mir = lm.reflect_coloring(col)
        return (col, lm.eval_word(pos, col), lm.galex_lift(pos, col),
                mir, lm.eval_word(neg, mir), lm.galex_lift(neg, mir))

    def check(self, op, out):
        kind, n, h, psi = op
        theta = O.PI - psi / 2.0
        v = Verdict(self.expected(op))
        if kind == "fig8":
            col, word, lift = out
            cases = [(col, word, lift, O.FIG8_CODE, 2,
                      O.fig8_seed_betas(psi)[h - 1],
                      O.fig8_longitude(theta, h), "fig8")]
        else:
            beta = O.torus_seed_beta(n, h, psi)
            k1 = (n + 1) // 2
            col, word, lift, mir, mword, mlift = out
            cases = [(col, word, lift, O.torus_code(n, 1), k1, beta,
                      O.torus_longitude(n, theta), f"T(2,{n})"),
                     (mir, mword, mlift, O.torus_code(n, -1), k1, beta,
                      O.torus_longitude(n, theta, mirror=True),
                      f"mirror T(2,{n})")]
        for col, word, lift, code, bridge, beta, (re, im), what in cases:
            gap = abs(O.seed_angle(col.colors, bridge) - beta)
            if gap <= O.VALUE_TOL:
                v.found += 1
            else:
                v.wrong.append(f"{what} seed off the oracle by {gap:.2e}")
            _check_relations(v, what, code, psi, col.colors)
            _check_longitude(v, f"{what} longitude", word.q, re, im)
            _check_lift(v, what, lift, word.q)
        return v


def _label(knot):
    return "fig8" if knot == "fig8" else f"T(2,{knot[1]})"


# ---------------------------------------------------------------------------
# cli


VERIFY_LINE = re.compile(
    r"^\[(PASS|FAIL)\] (.+): max deviation (\S+) \(tol (\S+)\)$")
INTERVAL_LINE = re.compile(
    r"^\s*(\d+)\s+\(\s*(\S+),\s*(\S+)\)\s+\(\s*(\S+),\s*(\S+)\)$")
SUITES = ("axioms", "torus", "fig8", "lift", "mirror")
FILE_KNOT = ("torus", 5)
CSV_HEADER = "theta,branch,beta,L_re,L_im,phi"


class Cli:
    """Commands run as ``python -m longmap.cli ...``, one interpreter each.

    An op is (kind, argv, context); ``context`` is what the check needs
    beyond argv: the knot of a color or sweep command, n for intervals, the
    suite for verify.
    """

    name = "cli"
    # two whole cycles, so that the tail latency has samples beyond it
    min_cycles = 2
    sampler = ProcessSampler

    def __init__(self, seed, root, tmp):
        self.seed = seed
        self.root = root
        self.tmp = tmp
        self.tangle = tmp / "torus5.tangle"
        self.csv = tmp / "fig8.csv"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def setup_code(self):
        return ("from longmap.tangles import fig8, parse, torus2n\n"
                "fig8(); torus2n(7); torus2n(21)\n"
                f"parse({O.torus_tangle_text(FILE_KNOT[1])!r})\n")

    def setup(self, longmap=None):
        self.tangle.write_text(O.torus_tangle_text(FILE_KNOT[1]),
                               encoding="utf-8")

    def cycle(self, c):
        rng = _rng(self.seed, self.name, c)

        def psi(knot):
            return repr(O.pick_psi(knot, rng.random()))

        p8, p7, p5 = psi("fig8"), psi(("torus", 7)), psi(FILE_KNOT)
        t21 = (repr(rng.uniform(0.05, 0.3)), repr(rng.uniform(2.8, 3.1)))
        t8 = (repr(rng.uniform(0.9, 1.0)), repr(rng.uniform(2.1, 2.25)))
        return [
            ("intervals", ["intervals", "7"], 7),
            ("color", ["color", "--knot", "fig8", "--psi", p8, "--json"],
             "fig8"),
            ("color", ["color", "--knot", "torus:7", "--psi", p7, "--json"],
             ("torus", 7)),
            ("color-text", ["color", "--file", str(self.tangle), "--psi", p5],
             FILE_KNOT),
            ("sweep", ["sweep", "--knot", "torus:21", "--theta-min", t21[0],
                       "--theta-max", t21[1], "--steps", "200"],
             ("torus", 21)),
            ("sweep", ["sweep", "--knot", "fig8", "--theta-min", t8[0],
                       "--theta-max", t8[1], "--steps", "200",
                       "--out", str(self.csv)], "fig8"),
            *[("verify", ["verify", s], s) for s in SUITES],
            ("malformed", ["color", "--knot", "torus:x", "--psi", p7], None),
            ("malformed", ["sweep", "--knot", "torus:7", "--theta-min", "1",
                           "--theta-max", "2", "--branches", "a"], None),
            ("malformed", ["sweep", "--knot", "fig8", "--theta-min", "1.1",
                           "--theta-max", "2", "--branches", "3"], None),
            ("malformed", ["color", "--knot", "fig8", "--psi", "nan"], None),
        ]

    def expected(self, op):
        kind, argv, ctx = op
        if kind in ("color", "color-text"):
            psi = float(argv[argv.index("--psi") + 1])
            return len(O.expected_seeds(ctx, psi))
        return 0

    def label(self, op):
        kind, argv, ctx = op
        if kind in ("color", "color-text", "sweep"):
            return f"{kind} {_label(ctx)}"
        if kind == "malformed":
            return "malformed " + " ".join(argv[:3])
        return " ".join(argv[:2])

    def run(self, op, tracer=None):
        _kind, argv, _ctx = op
        if "--out" in argv:
            Path(argv[argv.index("--out") + 1]).unlink(missing_ok=True)
        if tracer is None:
            cmd = [sys.executable, "-m", "longmap.cli", *argv]
        else:
            stats = self.tmp / "child-stats.json"
            cmd = [sys.executable, str(BENCH / "cli_child.py"), str(stats),
                   str(tracer.path), str(tracer.op), "--", *argv]
        proc = subprocess.run(cmd, env=self.env, cwd=self.root,
                              capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        if tracer is not None and stats.exists():
            tracer.merge(json.loads(stats.read_text(encoding="utf-8")))
            stats.unlink()
        return proc

    def check(self, op, proc):
        kind, argv, ctx = op
        v = Verdict(self.expected(op))
        crashed = " with a traceback" if "Traceback" in proc.stderr else ""
        if kind == "malformed":
            if proc.returncode != O.EXIT_USAGE or crashed:
                v.failures.append(f"{' '.join(argv[:3])}: exit "
                                  f"{proc.returncode}{crashed}, expected "
                                  f"{O.EXIT_USAGE}")
            return v
        # a well-formed command has one right outcome: exit 0 and output its
        # oracle accepts; the output is checked whatever the exit code, so a
        # verify breach (exit 1) also names the checks that failed
        if proc.returncode != O.EXIT_OK or crashed:
            v.wrong.append(f"{' '.join(argv[:2])}: exit "
                           f"{proc.returncode}{crashed}")
        try:
            check = getattr(self, "_check_" + kind.replace("-", "_"))
            check(v, argv, ctx, proc)
        except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
            v.wrong.append(f"{' '.join(argv[:2])}: unreadable output ({exc})")
        return v

    def _check_intervals(self, v, argv, n, proc):
        rows = [m.groups() for m in map(INTERVAL_LINE.match,
                                        proc.stdout.splitlines()) if m]
        want = O.torus_windows(n)
        if len(rows) != len(want):
            v.wrong.append(f"intervals: {len(rows)} rows, expected "
                           f"{len(want)}")
        for row, (h, lo, hi) in zip(rows, want):
            got = [float(x) for x in row[1:]]
            ref = [lo, hi, O.PI - hi / 2.0, O.PI - lo / 2.0]
            if int(row[0]) != h or max(map(abs, np.subtract(got, ref))) > 1e-9:
                v.wrong.append(f"intervals: row {row} vs h={h} {ref}")

    def _check_color(self, v, argv, knot, proc):
        payload = json.loads(proc.stdout)
        seeds = [(s["beta"], s["colors"]) for s in payload["seeds"]]
        self._check_seeds(v, argv, knot, seeds)

    def _check_color_text(self, v, argv, knot, proc):
        seeds = []
        for line in proc.stdout.splitlines():
            line = line.strip()
            if line.startswith("beta = "):
                seeds.append((float(line.split()[2]), []))
            elif line.startswith("arc "):
                xyz = line.split(":", 1)[1].strip(" ()").split(",")
                seeds[-1][1].append(tuple(float(x) for x in xyz))
        head = proc.stdout.splitlines()[0]
        if not head.endswith(f": {len(seeds)} nontrivial seed(s)"):
            v.wrong.append(f"color --file: header {head!r} vs {len(seeds)}"
                           " seeds")
        self._check_seeds(v, argv, knot, seeds)

    def _check_seeds(self, v, argv, knot, seeds):
        psi = float(argv[argv.index("--psi") + 1])
        check_seeds(v, f"color {_label(knot)}", knot, psi, seeds)

    def _check_sweep(self, v, argv, knot, proc):
        if "--out" in argv:
            out = Path(argv[argv.index("--out") + 1])
            text = out.read_text(encoding="utf-8")
            out.unlink()
        else:
            text = proc.stdout
        rows = list(csv.reader(io.StringIO(text)))
        what = f"sweep {_label(knot)}"
        if not rows or ",".join(rows[0]) != CSV_HEADER:
            v.wrong.append(f"{what}: bad header")
            return
        lo = float(argv[argv.index("--theta-min") + 1])
        hi = float(argv[argv.index("--theta-max") + 1])
        steps = int(argv[argv.index("--steps") + 1])
        branches = ([1, 2] if knot == "fig8"
                    else list(range(1, (knot[1] - 1) // 2 + 1)))
        body = rows[1:]
        if len(body) != steps * len(branches):
            v.wrong.append(f"{what}: {len(body)} rows, expected "
                           f"{steps * len(branches)}")
            return
        worst = 0.0
        for j, row in enumerate(body):
            theta, branch = float(row[0]), int(row[1])
            want_theta = lo + (hi - lo) * (j // len(branches)) / (steps - 1)
            if abs(theta - want_theta) > 1e-12 or branch != branches[
                    j % len(branches)]:
                v.wrong.append(f"{what}: row {j} has theta/branch {row[:2]}")
                return
            ref = self._sweep_oracle(knot, theta, branch)
            if ref == "edge":
                continue
            if ref is None or row[2] == "":
                if not (ref is None and row[2:] == [""] * 4):
                    v.wrong.append(f"{what}: row {j} coloring presence {row}")
                    return
                continue
            beta, re, im = ref
            got = [float(x) for x in row[2:]]
            phi = got[3]
            worst = max(worst, abs(got[0] - beta), abs(got[1] - re),
                        abs(got[2] - im), abs(math.cos(phi) - re),
                        abs(math.sin(phi) - im))
        if worst > O.VALUE_TOL:
            v.wrong.append(f"{what}: values off the oracle by {worst:.2e}")

    @staticmethod
    def _sweep_oracle(knot, theta, branch):
        """(beta, Re L, Im L) at theta on a branch, None where the branch has
        no coloring, "edge" within 1e-9 of a window endpoint."""
        psi = 2.0 * O.PI - 2.0 * theta
        if knot == "fig8":
            lo, hi = O.fig8_window()
            seeds = O.fig8_seed_betas
        else:
            _h, lo, hi = O.torus_windows(knot[1])[branch - 1]
        if min(abs(psi - lo), abs(psi - hi)) < 1e-9:
            return "edge"
        if not lo < psi < hi:
            return None
        if knot == "fig8":
            return (seeds(psi)[branch - 1], *O.fig8_longitude(theta, branch))
        return (O.torus_seed_beta(knot[1], branch, psi),
                *O.torus_longitude(knot[1], theta))

    def _check_verify(self, v, argv, suite, proc):
        lines = proc.stdout.splitlines()
        parsed = [VERIFY_LINE.match(line) for line in lines]
        if not lines or not all(parsed):
            v.wrong.append(f"verify {suite}: unexpected report {lines[:3]}")
            return
        for m in parsed:
            deviation, tol = float(m.group(3)), float(m.group(4))
            if m.group(1) != "PASS" or not deviation <= tol:
                v.wrong.append(f"verify {suite}: {m.group(0)}")


def make(name, seed, root, tmp):
    if name == "solve":
        return Solve(seed)
    if name == "closed-forms":
        return ClosedForms(seed)
    return Cli(seed, root, tmp)


WORKLOADS = ("solve", "closed-forms", "cli")

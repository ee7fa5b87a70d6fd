import importlib
import json
import math
import os
import re
import resource
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import longmap
from longmap import colorings, verification
from longmap.cli import MAX_ARCS, MAX_STEPS, main
from longmap.colorings import (
    MAX_GRID,
    admissible_steps,
    residual,
    solve_colorings,
    star_polygon,
)
from longmap.errors import NotInLambda, NotMinusOne, OutOfInterval
from longmap.quaternions import geodesic_distance
from longmap.scalar import (
    Quaternion,
    distance,
    linspace,
    star_beta,
    wrap_angle,
)
from longmap.tangles import fig8, parse, serialize, torus2n, torus_interval


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_lift_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "lift")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_mirror(capsys):
    code, out, _ = run(capsys, "verify", "mirror")
    assert code == 0
    assert "mirror" in out


def test_verify_axioms_report(capsys):
    code, out, _ = run(capsys, "verify", "axioms")
    assert code == 0
    assert out == (
        "[PASS] axioms sphere(1.234): max deviation 4.371e-16 (tol 1.0e-10)\n"
        "[PASS] axioms conjclass(0.9): max deviation 6.138e-16 (tol 1.0e-10)\n"
        "[PASS] axioms dihedral(7): max deviation 0.000e+00 (tol 1.0e-10)\n"
        "[PASS] axioms galex(e^0.7i): max deviation 8.455e-16 (tol 1.0e-10)\n"
        "[PASS] axioms eis(e^0.7i): max deviation 5.427e-16 (tol 1.0e-10)\n"
        "[PASS] conjugation identity: max deviation 4.881e-16"
        " (tol 1.0e-10)\n"
        "[PASS] sphere/conjugation isomorphism: max deviation 6.062e-16"
        " (tol 1.0e-10)\n"
        "[PASS] Eis/GAlex isomorphism: max deviation 4.552e-16"
        " (tol 1.0e-10)\n"
    )


def _nan_once(real, nan):
    """``real``, except that its second call returns ``nan``."""
    calls = []

    def patched(*args):
        calls.append(None)
        return nan if len(calls) == 2 else real(*args)
    return patched


def test_verify_nan_deviation_fails(capsys, monkeypatch):
    monkeypatch.setattr(verification, "distance",
                        _nan_once(distance, math.nan))
    code, out, err = run(capsys, "verify", "mirror")
    assert code == 1 and err == ""
    assert out == (
        "[FAIL] mirror inverse relation: max deviation nan (tol 1.0e-08)\n"
    )
    # a NaN in one column of a suite fails that check alone
    monkeypatch.undo()
    monkeypatch.setattr(verification, "qn_check", _nan_once(
        verification.qn_check, Quaternion(*[math.nan] * 4)))
    code, out, err = run(capsys, "verify", "torus")
    assert code == 1 and err == ""
    assert out == (
        "[PASS] torus coloring residual: max deviation 9.453e-16"
        " (tol 1.0e-09)\n"
        "[PASS] torus closed form: max deviation 5.363e-15 (tol 1.0e-08)\n"
        "[FAIL] torus q^n = -1: max deviation nan (tol 1.0e-09)\n"
    )


def test_color_fig8_two_seeds(capsys):
    code, out, _ = run(capsys, "color", "--knot", "fig8", "--psi", "2.513")
    assert code == 0
    assert "2 nontrivial seed(s)" in out


def test_color_torus7_three_seeds(capsys):
    code, out, _ = run(capsys, "color", "--knot", "torus:7",
                       "--psi", "2.827")
    assert code == 0
    assert "3 nontrivial seed(s)" in out


def test_color_torus51_all_seeds(capsys):
    code, out, _ = run(capsys, "color", "--knot", "torus:51",
                       "--psi", "2.827")
    assert code == 0
    assert "23 nontrivial seed(s)" in out


def test_color_outside_interval(capsys):
    code, out, _ = run(capsys, "color", "--knot", "fig8", "--psi", "1.571")
    assert code == 0
    assert "0 nontrivial seed(s)" in out


def test_color_json(capsys):
    code, out, _ = run(capsys, "color", "--knot", "torus:3", "--psi", "3.0",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["seeds"]) == 1
    assert len(payload["seeds"][0]["colors"]) == 4


@pytest.mark.parametrize("source, psi, count", [
    (["--knot", "fig8"], "2.5", 2),
    (["--knot", "fig8"], "1.571", 0),
    (["--knot", "torus:7"], "2.8", 3),
    (["--knot", "torus:21:-1"], "2.9", 10),
    (["--file", "{tangle}"], "3.0", 2),
], ids=["fig8", "fig8-none", "torus7", "torus21-mirror", "file"])
def test_color_text_and_json_layout(tmp_path, capsys, source, psi, count):
    # the JSON is json.dumps(..., indent=2) and a newline, and every line
    # of the text has its pinned layout and the JSON's values at 17
    # significant digits
    path = tmp_path / "t5.tangle"
    path.write_text(serialize(torus2n(5)))
    argv = ["color", *(a.format(tangle=path) for a in source), "--psi", psi]
    code, text, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2) + "\n"
    seeds, g = payload["seeds"], "{:.17g}".format
    want = [f"psi = {g(payload['psi'])}: {len(seeds)} nontrivial seed(s)"]
    for seed in seeds:
        want.append(f"  beta = {g(seed['beta'])}  "
                    f"residual = {seed['residual']:.3e}")
        want += [f"    arc {arc}: ({g(x)}, {g(y)}, {g(z)})"
                 for arc, (x, y, z) in enumerate(seed["colors"])]
    assert text == "".join(f"{line}\n" for line in want)
    assert len(seeds) == count


def test_color_text_is_a_string_per_seed():
    # a line per arc made the text report slower than the JSON one
    from longmap.cli import _color_lines

    d = torus2n(21)
    betas, colors, residuals = colorings._solve(d, 2.8)
    chunks = list(_color_lines(2.8, betas, colors, residuals))
    assert len(chunks) == 1 + len(betas) > 1
    assert all(chunk.count("\n") == 1 + d.code.n + 1 for chunk in chunks[1:])
    assert all(chunk.startswith("  beta = ") for chunk in chunks[1:])


@pytest.mark.parametrize("diagram,psi", [
    (fig8(), 2.5), (torus2n(101), 2.8), (torus2n(501, -1), 3.5)],
    ids=["fig8", "T101", "T501-"])
def test_color_residuals_equal_the_calls_one_seed_at_a_time(diagram, psi):
    # bitwise: the report prints the residuals of the solver's acceptance
    # stage, computed on every candidate at once
    _, _, got = colorings._solve(diagram, psi)
    seeds = solve_colorings(diagram, psi)
    assert len(seeds) > 1
    want = [residual(coloring, diagram) for _, coloring in seeds]
    assert got.tobytes() == np.array(want).tobytes()


def test_color_degrees(capsys):
    code, out, _ = run(capsys, "color", "--knot", "fig8", "--psi", "180",
                       "--deg")
    assert code == 0
    assert "2 nontrivial seed(s)" in out


def test_color_from_file(tmp_path, capsys):
    path = tmp_path / "fig8.tangle"
    path.write_text(serialize(fig8()))
    code, out, _ = run(capsys, "color", "--file", str(path), "--psi", "3.0")
    assert code == 0
    assert "2 nontrivial seed(s)" in out


def test_color_file_with_misplaced_basepoint_exits_two(tmp_path, capsys):
    path = tmp_path / "fig8.tangle"
    path.write_text(serialize(fig8()).replace("bridges=0,2", "bridges=2,0"))
    code, out, err = run(capsys, "color", "--file", str(path), "--psi", "2.5")
    assert code == 2
    assert out == "" and "bridge" in err and "Traceback" not in err


def test_color_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.tangle"
    path.write_bytes(b"tangle n=3\n\xff\n")
    code, out, err = run(capsys, "color", "--file", str(path), "--psi", "2")
    assert code == 2
    assert out == "" and err.startswith("error: ") and "UTF-8" in err
    assert "Traceback" not in err


# the second is the trivial tangle as ``serialize`` writes it
@pytest.mark.parametrize("text,n", [
    ("tangle n=3\nkappa=1,2,0\neps=+,+,+\n", 3),
    ("tangle n=0\nkappa=\neps=\n", 0),
], ids=["bare", "trivial"])
def test_color_file_without_bridges_exits_two(tmp_path, capsys, text, n):
    path = tmp_path / "bare.tangle"
    path.write_text(text)
    code, out, err = run(capsys, "color", "--file", str(path), "--psi", "2")
    assert code == 2
    assert out == ""
    assert err == f"error: diagram of {n} crossings has no bridges\n"


@pytest.mark.parametrize("bridges", ["0,99", "0,-1"])
def test_color_file_with_seed_arc_out_of_range_exits_two(tmp_path, capsys,
                                                         bridges):
    path = tmp_path / "bad.tangle"
    path.write_text("tangle n=3\nkappa=0,0,0\neps=+,+,+\n"
                    f"bridges={bridges}\nschedule=1:1;2:2\n")
    code, out, err = run(capsys, "color", "--file", str(path), "--psi", "2")
    assert code == 2
    assert out == "" and err.startswith("error: ") and "1..3" in err
    assert "Traceback" not in err


def test_color_file_with_a_kink_that_reads_its_own_arc_exits_two(tmp_path,
                                                                capsys):
    # entry 4:4 defines arc 4 under over-arc 4; it used to pass, and the
    # solver took the basepoint's word for arc 4 and printed a seed
    path = tmp_path / "kink.tangle"
    path.write_text("tangle n=4\nkappa=2,0,1,4\neps=+,+,+,+\nbridges=0,2\n"
                    "schedule=1:1;3:3;4:4\n")
    code, out, err = run(capsys, "color", "--file", str(path), "--psi", "2")
    assert code == 2
    assert out == "" and err.startswith("error: ") and "undefined" in err


def test_color_grid_above_the_cap_exits_two(capsys, monkeypatch):
    def scan(*args):
        raise AssertionError("the scan started")

    monkeypatch.setattr(colorings, "_word_program", scan)
    code, out, err = run(capsys, "color", "--knot", "torus:101", "--psi",
                         "2.8", "--grid", str(MAX_GRID + 1))
    assert code == 2
    assert out == "" and err.startswith("error: ") and str(MAX_GRID) in err


def test_color_grid_below_the_floor_exits_two(capsys):
    # 64 angles under-sample the gaps of T(2,101), of degree 102 in beta:
    # a scan of them finds 16 of the 45 seeds at psi = 2.8
    code, out, err = run(capsys, "color", "--knot", "torus:101", "--psi",
                         "2.8", "--grid", "64")
    assert code == 2
    assert out == "" and err.startswith("error: ") and "104" in err
    assert err.count("\n") == 1


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 17
    assert all(line.startswith("[PASS] ") for line in lines)


def test_verify_breach_prints_fail_and_exits_one(capsys, monkeypatch):
    breach = verification.CheckLine("forced breach", 1.0, 1e-10)
    monkeypatch.setitem(verification.SUITES, "lift", lambda: [breach])
    code, out, err = run(capsys, "verify", "all")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert [l for l in lines if not l.startswith("[PASS] ")] == [str(breach)]
    assert lines[-1].startswith("[PASS] mirror")  # later suites still ran


def test_unknown_suite_lists_the_suites(capsys):
    # `verify` checks the name itself, so it exits through `main` as any
    # bad value does; argparse's check raised SystemExit past it
    code, out, err = run(capsys, "verify", "bogus")
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown suite 'bogus'")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert {*verification.SUITES, "all"} <= set(re.findall(r"\w+", err))


# the benchmark's pattern for a verify line
VERIFY_LINE = re.compile(
    r"^\[(PASS|FAIL)\] (.+): max deviation (\S+) \(tol (\S+)\)$")


@pytest.mark.parametrize("route,exc,failed", [
    ("qn_check", NotMinusOne("q^n is 1, expected -1"), ["torus"]),
    ("eval_word", NotInLambda("not in the circle group"),
     ["torus", "fig8", "lift", "mirror"]),
    ("galex_lift", ValueError("zero quaternion"), ["lift"]),
], ids=["NotMinusOne", "NotInLambda", "ValueError"])
def test_a_check_that_raises_fails_its_suite(capsys, monkeypatch, route, exc,
                                             failed):
    # a LongmapError raised inside a suite exited 2 with no report, and a
    # route's ValueError escaped `main` as a traceback
    def breach(*args):
        raise exc

    monkeypatch.setattr(verification, route, breach)
    code, out, err = run(capsys, "verify", "all")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert all(VERIFY_LINE.match(line) for line in lines)
    assert [l for l in lines if not l.startswith("[PASS] ")] == [
        f"[FAIL] {name} suite raised {exc!r}: max deviation inf (tol 0.0e+00)"
        for name in failed]
    assert "mirror" in lines[-1]  # the suites after a breach still ran


def test_unknown_knot_exits_two(capsys):
    code, _, err = run(capsys, "color", "--knot", "granny", "--psi", "3.0")
    assert code == 2
    assert "error" in err


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv", [
    ["color", "--knot", "torus:x", "--psi", "2.8"],
    ["sweep", "--knot", "torus:7", "--theta-min", "1", "--theta-max", "2",
     "--branches", "a"],
    ["sweep", "--knot", "fig8", "--theta-min", "1.1", "--theta-max", "2",
     "--branches", "3"],
    ["color", "--knot", "fig8", "--psi", "nan"],
    # every row of branch 1 was printed twice, exit 0
    ["sweep", "--knot", "torus:7", "--theta-min", "1", "--theta-max", "2",
     "--branches", "1,2,1"],
    # the knot was dropped and the file's colorings printed, exit 0
    ["color", "--knot", "torus:3", "--file", "{fig8}", "--psi", "3"],
    # the second kappa line replaced the first, exit 0
    ["color", "--file", "{repeated}", "--psi", "3"],
    # above the arc bound: torus2n ran out of memory and the process was
    # killed, and T(2,1003) was solved in 8 s and 300 MB
    ["color", "--knot", "torus:99999999", "--psi", "2.5"],
    ["color", "--file", "{large}", "--psi", "2.5"],
], ids=["torus-spec", "branches-not-int", "fig8-branch", "psi-nan",
        "repeated-branch", "knot-and-file", "repeated-key", "torus-arcs",
        "file-arcs"])
def test_malformed_command_exits_two(tmp_path, argv):
    # each in a child capped at 1 GB of address space, so that a command
    # that starts to compute fails fast instead of filling memory
    path, repeated = tmp_path / "fig8.tangle", tmp_path / "repeated.tangle"
    path.write_text(serialize(fig8()))
    repeated.write_text(serialize(fig8()) + "kappa=1,1,1,1\n")
    large = tmp_path / "large.tangle"
    large.write_text(serialize(torus2n(MAX_ARCS + 1)))
    src = str(Path(longmap.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "longmap.cli",
         *(a.format(fig8=path, repeated=repeated, large=large) for a in argv)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=_cap_memory, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stdout == ""


def test_the_arc_bound_admits_its_own_size(capsys, monkeypatch):
    # T(2,1001) has MAX_ARCS arcs and reaches the solver; one more crossing
    # pair does not
    assert torus2n(1001).code.n + 1 == MAX_ARCS
    monkeypatch.setattr(colorings, "_solve", lambda d, psi: (
        np.empty(0), np.empty((MAX_ARCS, 0, 3)), np.empty(0)))
    code, out, _ = run(capsys, "color", "--knot", "torus:1001", "--psi", "3")
    assert (code, out) == (0, "psi = 3: 0 nontrivial seed(s)\n")
    code, out, err = run(capsys, "color", "--knot", "torus:1003", "--psi", "3")
    assert (code, out) == (2, "")
    assert err == f"error: color solves up to {MAX_ARCS} arcs, not 1004\n"


def test_bad_torus_sign_step_and_psi_exit_two(capsys):
    for argv in (
        ["color", "--knot", "torus:7:2", "--psi", "2.8"],
        ["sweep", "--knot", "torus:7:2", "--theta-min", "1",
         "--theta-max", "2"],
        ["sweep", "--knot", "torus:7", "--theta-min", "1", "--theta-max", "2",
         "--branches", "4"],
        ["color", "--knot", "fig8", "--psi", "7"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ")


def test_missing_source_exits_two(capsys):
    code, _, err = run(capsys, "color", "--psi", "3.0")
    assert code == 2


def test_sweep_torus3_phi_column(tmp_path, capsys):
    out_path = tmp_path / "t3.csv"
    code, _, _ = run(
        capsys, "sweep", "--knot", "torus:3",
        "--theta-min", "0.6", "--theta-max", "2.5",
        "--steps", "40", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "theta,branch,beta,L_re,L_im,phi"
    seen = 0
    for row in lines[1:]:
        theta_s, branch, beta, l_re, l_im, phi = row.split(",")
        if beta == "":
            continue
        seen += 1
        theta = float(theta_s)
        assert abs(float(phi) - wrap_angle(math.pi - 6 * theta)) <= 1e-9
        assert abs(float(l_re) - math.cos(float(phi))) <= 1e-12
        assert abs(float(l_im) - math.sin(float(phi))) <= 1e-12
    assert seen >= 30


def test_sweep_beta_is_the_star_polygon_seed(capsys):
    n, k = 21, 10
    code, out, _ = run(
        capsys, "sweep", "--knot", f"torus:{n}",
        "--theta-min", "0.05", "--theta-max", "3.09", "--steps", "60",
    )
    assert code == 0
    seen = 0
    for row in out.splitlines()[1:]:
        theta, h, beta = row.split(",")[:3]
        if beta == "":
            continue
        seen += 1
        c = star_polygon(n, int(h), 2.0 * math.pi - 2.0 * float(theta))
        want = geodesic_distance(c.colors[0], c.colors[k + 1])
        assert abs(float(beta) - want) <= 1e-12
    assert seen >= 300


# commands that import no numpy, with their exit codes: intervals, every
# well-formed sweep (plain floats) and the commands that exit before they
# compute anything
NUMPY_FREE = [
    (["sweep", "--knot", "fig8", "--theta-min", "0.5", "--theta-max", "2.6",
      "--steps", "50"], 0),
    (["sweep", "--knot", "torus:21", "--theta-min", "0.1", "--theta-max",
      "3.0", "--steps", "40"], 0),
    (["sweep", "--knot", "torus:7:-1", "--theta-min", "10", "--theta-max",
      "170", "--steps", "30", "--deg"], 0),
    (["sweep", "--knot", "torus:9", "--theta-min", "0.1", "--theta-max",
      "3.0", "--branches", "1"], 0),
    (["intervals", "7"], 0),
    (["intervals", "7", "--json"], 0),
    (["color", "--knot", "torus:x", "--psi", "2.8"], 2),
    (["sweep", "--knot", "torus:7", "--theta-min", "1", "--theta-max", "2",
      "--branches", "a"], 2),
    (["sweep", "--knot", "fig8", "--theta-min", "1.1", "--theta-max", "2",
      "--branches", "3"], 2),
    (["color", "--knot", "fig8", "--psi", "nan"], 2),
    (["color", "--knot", "torus:99999999", "--psi", "2.5"], 2),
    (["sweep", "--knot", "fig8", "--theta-min=-inf", "--theta-max", "2"], 2),
    (["sweep", "--knot", "fig8", "--theta-min=-1e308", "--theta-max",
      "1e308"], 2),
]


# run in a fresh interpreter: the packages each step leaves imported
IMPORTED = """
import contextlib, io, json, sys
import longmap.cli

def imported():
    return sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"})

print(imported())
for argv, code in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        assert longmap.cli.main(argv) == code, argv
    print(imported())
"""


def test_import_leaves_scipy_out(tmp_path):
    # numpy is imported by the handlers that compute, not by `longmap.cli`
    src = str(Path(longmap.__file__).resolve().parents[1])
    out = tmp_path / "sweep.csv"
    cases = [*NUMPY_FREE, (["sweep", "--knot", "fig8", "--theta-min", "0.5",
                            "--theta-max", "2.6", "--out", str(out)], 0)]
    proc = subprocess.run(
        [sys.executable, "-c", IMPORTED, json.dumps(cases)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=_cap_memory, check=True)
    assert proc.stdout.splitlines() == ["[]"] * (len(cases) + 1)
    assert len(out.read_text().splitlines()) == 1 + 200 * 2  # both branches


def test_top_level_closed_forms_import_no_numpy():
    # they were routed through quaternions, colorings and longitudes, so
    # each import loaded numpy and the solver stack
    src = str(Path(longmap.__file__).resolve().parents[1])
    code = ("import sys\n"
            "from longmap import (Quaternion, star_beta, fig8_betas,\n"
            "    LongitudeValue, t2n_closed_form, fig8_closed_form)\n"
            "print(sorted({'numpy', 'longmap.colorings', 'longmap.quandles'}\n"
            "             & set(sys.modules)))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), preexec_fn=_cap_memory,
        check=True)
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("lo, hi, steps", [
    (0.0, 5e-324, 3),         # the step underflows to 0: numpy's branch
    (0.0, 1e-323, 5),         # the same, with the quarter rounding to 0
    (1e-310, 1.00001e-310, 7),  # a subnormal step
    (-3.0, -1.0, 11),
    (-3.0, 9.0, 1001),
    (-1e-300, 3e-300, 50),
    (0.1, 3.0, 2),
    (0.1, 3.0, MAX_STEPS),
])
def test_theta_grid_is_numpy_linspace(lo, hi, steps):
    want = np.linspace(lo, hi, steps)
    got = list(linspace(lo, hi, steps))
    assert all(type(x) is float for x in got)
    # bitwise, signed zeros included
    assert np.array(got).view(np.uint64).tolist() == \
        want.view(np.uint64).tolist()
    assert got[-1] == hi


def test_the_console_script_resolves(capsys):
    # README's commands run `longmap`, the script pyproject.toml declares
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["longmap"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert entry(["intervals", "3"]) == 0
    assert capsys.readouterr().out.startswith("T(2,3) colorable intervals")


# every name `longmap/__init__.py` imported when it imported every module
# (their homes: the modules that define them)
EXPORTS = {
    "scalar": ["Quaternion", "star_beta", "fig8_betas", "LongitudeValue",
               "t2n_closed_form", "fig8_closed_form"],
    "quaternions": ["rotate"],
    "quandles": ["SphereQuandle", "ConjClassQuandle", "DihedralQuandle",
                 "GAlexQuandle", "EisQuandle", "iso_sphere_to_conj",
                 "eis_to_galex", "axiom_check"],
    "tangles": ["WirtingerCode", "TangleDiagram", "torus2n", "fig8",
                "longitude_word", "torus_interval", "torus_theta_interval"],
    "colorings": ["Coloring", "star_polygon", "fig8_coloring",
                  "solve_colorings", "fox_colorings", "rotate_coloring",
                  "reflect_coloring", "residual"],
    "longitudes": ["eval_word", "galex_lift", "qn_check"],
}


def test_lazy_exports():
    namespace = {}
    exec("from longmap import *", namespace)
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"longmap.{module}")
        for name in names:
            assert getattr(longmap, name) is getattr(home, name), name
            assert namespace[name] is getattr(home, name), name
            assert name in dir(longmap)
    for module in ("errors", "verification"):
        assert getattr(longmap, module) is sys.modules[f"longmap.{module}"]
    assert longmap.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        longmap.no_such_name


def _readme_blocks():
    """The fenced blocks of README.md, as (language, text) pairs."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    return re.findall(r"^```(\w*)\n(.*?)^```", readme, re.S | re.M)


def test_readme_library_tour_runs():
    # a public name the tour uses that is renamed or deleted fails here
    blocks = [b for lang, b in _readme_blocks() if lang == "python"]
    assert len(blocks) == 1
    src = str(Path(longmap.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0]], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    # fig8's two seeds, each a beta and its longitude angle
    lines = proc.stdout.splitlines()
    assert len(lines) == 2, proc.stdout
    assert all(len([*map(float, line.split())]) == 2 for line in lines)


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # each command of README's CLI block, from a temporary directory, where
    # `--out fig8.csv` lands
    blocks = [b for _, b in _readme_blocks()
              if all(line.startswith("longmap ") for line in b.splitlines())]
    assert len(blocks) == 1
    commands = [shlex.split(line, comments=True)
                for line in blocks[0].splitlines()]
    assert len(commands) == 5
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, out, err = run(capsys, *argv[1:])
        assert (code, err) == (0, ""), argv
        assert out or "--out" in argv, argv
    assert (tmp_path / "fig8.csv").read_text().startswith("theta,branch,")


def test_readme_tangle_format_block_is_fig8():
    blocks = [b for _, b in _readme_blocks() if b.startswith("tangle ")]
    assert len(blocks) == 1
    diagram = parse(blocks[0])
    assert diagram == fig8() and diagram.schedule == fig8().schedule
    assert serialize(fig8()) == blocks[0]


def test_sweep_marks_uncolorable_rows(capsys):
    code, out, _ = run(
        capsys, "sweep", "--knot", "torus:3",
        "--theta-min", "0.1", "--theta-max", "0.4", "--steps", "4",
    )
    assert code == 0
    body = out.splitlines()[1:]
    assert all(row.endswith(",,,,") for row in body)


def test_sweep_fig8_branches(capsys):
    code, out, _ = run(
        capsys, "sweep", "--knot", "fig8",
        "--theta-min", str(math.pi / 3), "--theta-max", str(2 * math.pi / 3),
        "--steps", "11",
    )
    assert code == 0
    rows = [r.split(",") for r in out.splitlines()[1:]]
    assert len(rows) == 22
    branch1 = {r[0]: r for r in rows if r[1] == "1" and r[2]}
    branch2 = {r[0]: r for r in rows if r[1] == "2" and r[2]}
    for theta, r1 in branch1.items():
        r2 = branch2[theta]
        # conjugate branches: equal real parts, opposite imaginary parts
        assert abs(float(r1[3]) - float(r2[3])) <= 1e-9
        assert abs(float(r1[4]) + float(r2[4])) <= 1e-9


def test_sweep_fig8_rows_outside_the_window(capsys):
    code, out, _ = run(
        capsys, "sweep", "--knot", "fig8",
        "--theta-min", "0.5", "--theta-max", "2.5", "--steps", "9",
    )
    assert code == 0
    rows = [r.split(",") for r in out.splitlines()[1:]]
    assert [r[1] for r in rows] == ["1", "2"] * 9
    for r in rows:
        inside = math.pi / 3 <= float(r[0]) <= 2 * math.pi / 3
        assert len(r) == 6 and r[0]
        assert all(r[2:]) if inside else r[2:] == [""] * 4
    # theta = 0.5, 0.75, 1.0, 2.25 and 2.5 lie outside, on both branches
    assert sum(1 for r in rows if not r[2]) == 10


def test_sweep_rounding_onto_a_window_end(capsys):
    # psi = 2*pi - 2*theta lies within rounding of a window end of h = 1
    code, out, err = run(
        capsys, "sweep", "--knot", "torus:13",
        "--theta-min", "1.8124573001479576",
        "--theta-max", "1.8134573001479576", "--steps", "2", "--branches", "1",
    )
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 3


@pytest.mark.parametrize("n, i", [(3, 17), (9, 17), (15, 17), (21, 17),
                                  (17, 45)])
def test_window_ends_agree_across_star_beta_sweep_and_color(capsys, n, i):
    # psi = 2*pi*i/102 is a window end of one step of T(2, n) and rounds
    # just inside it: the polygon is a point, the constant coloring
    theta = math.pi - math.pi * i / 102
    psi = 2.0 * math.pi - 2.0 * theta  # as sweep forms it
    steps = admissible_steps(n, psi)
    (end,) = [h for h in range(1, (n + 1) // 2)
              if min(abs(psi - e) for e in torus_interval(n, h)) < 1e-12]
    assert end not in steps
    for angle in (psi, 2.0 * math.pi * i / 102):
        with pytest.raises(OutOfInterval):
            star_beta(n, end, angle)

    code, out, _ = run(capsys, "sweep", "--knot", f"torus:{n}",
                       "--theta-min", repr(theta), "--theta-max", "3",
                       "--steps", "2")
    assert code == 0
    rows = [r.split(",") for r in out.splitlines()[1:(n + 1) // 2]]
    assert [float(r[0]) for r in rows] == [theta] * ((n - 1) // 2)
    assert [int(r[1]) for r in rows if r[2]] == steps

    code, out, _ = run(capsys, "color", "--knot", f"torus:{n}",
                       "--psi", repr(psi))
    assert code == 0
    assert f"{len(steps)} nontrivial seed(s)" in out


def test_sweep_deterministic(capsys):
    args = ("sweep", "--knot", "fig8", "--theta-min", "1.1",
            "--theta-max", "2.0", "--steps", "25")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_sweep_bad_range(capsys):
    code, _, err = run(capsys, "sweep", "--knot", "fig8",
                       "--theta-min", "2.0", "--theta-max", "1.0")
    assert code == 2


@pytest.mark.parametrize("lo,hi", [("1", "inf"), ("-inf", "1"),
                                   ("nan", "1"), ("-inf", "inf"),
                                   ("-1e308", "1e308"), ("1", "1e308")])
def test_sweep_non_finite_bounds(capsys, lo, hi):
    # theta-max inf printed nan/inf rows and a numpy warning, exit 0; the
    # finite bounds overflow the grid's step or psi = 2*pi - 2*theta
    code, out, err = run(capsys, "sweep", "--knot", "fig8",
                         f"--theta-min={lo}", f"--theta-max={hi}",
                         "--steps", "3")
    assert code == 2
    assert err.startswith("error:") and out == ""


@pytest.mark.parametrize("steps", [MAX_STEPS + 1, 1])
def test_sweep_steps_outside_the_cap_exit_two(capsys, monkeypatch, steps):
    # --steps 1000000000 asked numpy for a 7.45 GiB grid and, under a
    # memory limit, died with a MemoryError traceback
    def grid(*args, **kwargs):
        raise AssertionError("the theta grid was allocated")

    monkeypatch.setattr(np, "linspace", grid)
    code, out, err = run(capsys, "sweep", "--knot", "fig8", "--theta-min",
                         "1.1", "--theta-max", "2.0", "--steps", str(steps))
    assert code == 2
    assert out == "" and err.startswith("error: ") and str(MAX_STEPS) in err
    assert "Traceback" not in err


def test_sweep_into_a_missing_directory_exits_two(tmp_path, capsys):
    # the output file is opened after every check, and failing to open it
    # is a usage error
    out_path = tmp_path / "missing" / "out.csv"
    code, out, err = run(capsys, "sweep", "--knot", "fig8", "--theta-min",
                         "1.1", "--theta-max", "2.0", "--out", str(out_path))
    assert code == 2
    assert out == "" and err.startswith("error: ")
    assert "Traceback" not in err
    assert not out_path.parent.exists()


BREACH = ("import sys; from longmap import cli, verification; "
          "verification.SUITES['lift'] = lambda: "
          "[verification.CheckLine('forced breach', 1.0, 1e-10)]; "
          "sys.exit(cli.main(['verify', 'all']))")
SWEEP_HEADER = b"theta,branch,beta,L_re,L_im,phi\n"


@pytest.mark.parametrize("child, first, code", [
    (["-m", "longmap.cli", "verify", "all"], None, 0),
    (["-m", "longmap.cli", "color", "--knot", "fig8", "--psi", "2.5"],
     None, 0),
    (["-m", "longmap.cli", "color", "--knot", "fig8", "--psi", "2.5",
      "--json"], None, 0),
    (["-m", "longmap.cli", "intervals", "7"], None, 0),
    (["-c", BREACH], None, 1),
    # the pipe closes inside the handler, which writes its --out file itself
    (["-m", "longmap.cli", "sweep", "--knot", "fig8", "--theta-min", "1.1",
      "--theta-max", "2", "--steps", "3", "--out", "/dev/stdout"], None, 0),
    (["-m", "longmap.cli", "sweep", "--knot", "torus:101", "--theta-min",
      "0.01", "--theta-max", "3.1", "--steps", "1000"], SWEEP_HEADER, 0),
], ids=["verify", "color", "color-json", "intervals", "verify-breach",
        "sweep-out", "sweep"])
def test_closed_pipe_keeps_the_exit_code(child, first, code):
    # a reader that stops early, as `| head -n 3` does, is not an error: the
    # command's own exit code (1 for a breach) and nothing on stderr; all
    # but the stdout sweep exited 2 with "error: [Errno 32] Broken pipe"
    src = str(Path(longmap.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    if first is None:
        # closed before the child writes, so the pipe buffer plays no part
        os.close(read_end)
    proc = subprocess.Popen([sys.executable, *child], stdout=write_end,
                            stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=src))
    os.close(write_end)
    if first is not None:
        with os.fdopen(read_end, "rb") as reader:
            head = [reader.readline() for _ in range(3)]
        assert head[0] == first
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == code, err
    assert err == b""


def _peak_memory(argv, monkeypatch):
    """Peak traced memory of one command, its stdout written to devnull."""
    with open(os.devnull, "w", encoding="utf-8") as sink:
        monkeypatch.setattr("sys.stdout", sink)
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_sweep_memory_does_not_grow_with_steps(tmp_path, monkeypatch):
    # every row was kept and joined before writing: the peak went from
    # 0.7 to 4.1 MB between 200 and 1600 steps
    small, large = (
        _peak_memory(["sweep", "--knot", "torus:21", "--theta-min", "0.01",
                      "--theta-max", "3.1", "--steps", str(steps),
                      "--out", str(tmp_path / "out.csv")], monkeypatch)
        for steps in (200, 1600))
    assert large - small < 100_000, (small, large)


def test_intervals_memory_does_not_grow_with_n(monkeypatch):
    # every row was kept, then every line: the peak grew by 3.4 MB between
    # n = 201 and n = 20001
    small, large = (_peak_memory(["intervals", str(n)], monkeypatch)
                    for n in (201, 20001))
    assert large - small < 100_000, (small, large)


def test_intervals_json_memory_does_not_grow_with_n(monkeypatch):
    # the rows were built whole for json.dumps: 1.7 GB at n = 2000001
    small, large = (_peak_memory(["intervals", str(n), "--json"], monkeypatch)
                    for n in (201, 20001))
    assert large - small < 100_000, (small, large)


def test_sweep_branches_memory_does_not_grow_with_n(monkeypatch):
    # the allowed steps were copied into a set: 8.8 MB at n = 200001
    small, large = (
        _peak_memory(["sweep", "--knot", f"torus:{n}", "--theta-min", "1",
                      "--theta-max", "2", "--steps", "5", "--branches", "1"],
                     monkeypatch)
        for n in (21, 200001))
    assert large - small < 100_000, (small, large)


def _solver_peak(diagram, psi):
    """Peak traced memory of one ``solve_colorings``."""
    tracemalloc.start()
    try:
        solve_colorings(diagram, psi)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_color_memory_does_not_grow_with_the_report(monkeypatch):
    # the report was kept whole, every arc color copied to a list first:
    # at T(2,301) the command peaked at 3.2 times the solver's own peak
    solver = _solver_peak(torus2n(301), 2.8)
    command = _peak_memory(["color", "--knot", "torus:301", "--psi", "2.8"],
                           monkeypatch)
    assert command <= 1.25 * solver, (solver, command)


def test_color_json_memory_does_not_grow_with_the_report(monkeypatch):
    # the document was built whole as one string before it was written:
    # at T(2,301) the command peaked at 4.7 to 4.9 times the solver's own
    solver = _solver_peak(torus2n(301), 2.8)
    command = _peak_memory(["color", "--knot", "torus:301", "--psi", "2.8",
                            "--json"], monkeypatch)
    assert command <= 1.25 * solver, (solver, command)


def test_intervals_table(capsys):
    code, out, _ = run(capsys, "intervals", "7")
    assert code == 0
    body = [l for l in out.splitlines() if l.strip() and l.lstrip()[0].isdigit()]
    assert len(body) == 3


def test_intervals_json(capsys):
    code, out, _ = run(capsys, "intervals", "9", "--json")
    assert code == 0
    rows = json.loads(out)
    assert out == json.dumps(rows, indent=2) + "\n"  # written row by row
    assert [r["h"] for r in rows] == [1, 2, 3, 4]
    assert abs(rows[0]["psi"][0] - 7 * math.pi / 9) < 1e-12


def test_intervals_n3(capsys):
    code, out, _ = run(capsys, "intervals", "3", "--json")
    rows = json.loads(out)
    assert out == json.dumps(rows, indent=2) + "\n"
    assert len(rows) == 1
    assert abs(rows[0]["psi"][0] - math.pi / 3) < 1e-12
    assert abs(rows[0]["psi"][1] - 5 * math.pi / 3) < 1e-12


def test_intervals_bad_n(capsys):
    code, _, err = run(capsys, "intervals", "6")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["intervals", str(10**400 + 1)],
    ["sweep", "--knot", f"torus:{10**400 + 1}", "--theta-min", "1",
     "--theta-max", "2"],
    ["intervals", "99999999999999999999999"],
    ["sweep", "--knot", f"torus:{2**52 + 1}", "--theta-min", "1",
     "--theta-max", "2"],
], ids=["intervals", "sweep", "intervals-1e23", "sweep-2**52+1"])
def test_torus_n_past_the_float_range_exits_two(capsys, argv):
    # torus_interval's (n - 2h) * pi raised OverflowError at 10**400 + 1:
    # a traceback and exit 1, which is kept for a verification breach; the
    # other two were taken, and past about 2**55 the small-h windows and
    # rows printed empty, with exit 0
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("n", ["1", "-3", "2"])
def test_intervals_n_below_three(capsys, n):
    # these printed an empty table and exited 0
    code, out, err = run(capsys, "intervals", n)
    assert code == 2
    assert err.startswith("error:") and out == ""

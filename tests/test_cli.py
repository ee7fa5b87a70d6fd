import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import longmap
from longmap.cli import main
from longmap.colorings import star_polygon
from longmap.longitudes import wrap_angle
from longmap.quaternions import geodesic_distance
from longmap.tangles import fig8, serialize


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


def test_unknown_knot_exits_two(capsys):
    code, _, err = run(capsys, "color", "--knot", "granny", "--psi", "3.0")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ["color", "--knot", "torus:x", "--psi", "2.8"],
    ["sweep", "--knot", "torus:7", "--theta-min", "1", "--theta-max", "2",
     "--branches", "a"],
    ["sweep", "--knot", "fig8", "--theta-min", "1.1", "--theta-max", "2",
     "--branches", "3"],
    ["color", "--knot", "fig8", "--psi", "nan"],
], ids=["torus-spec", "branches-not-int", "fig8-branch", "psi-nan"])
def test_malformed_command_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


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


def test_import_leaves_scipy_out():
    src = str(Path(longmap.__file__).resolve().parents[1])
    code = ("import sys, longmap.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          check=True)
    assert proc.stdout.strip() == "[]"


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


def test_sweep_rounding_onto_a_window_end(capsys):
    # psi = 2*pi - 2*theta lies within rounding of a window end of h = 1
    code, out, err = run(
        capsys, "sweep", "--knot", "torus:13",
        "--theta-min", "1.8124573001479576",
        "--theta-max", "1.8134573001479576", "--steps", "2", "--branches", "1",
    )
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 3


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
                                   ("nan", "1"), ("-inf", "inf")])
def test_sweep_non_finite_bounds(capsys, lo, hi):
    # theta-max inf printed nan/inf rows and a numpy warning, exit 0
    code, out, err = run(capsys, "sweep", "--knot", "fig8",
                         f"--theta-min={lo}", f"--theta-max={hi}",
                         "--steps", "3")
    assert code == 2
    assert err.startswith("error:") and out == ""


def test_intervals_table(capsys):
    code, out, _ = run(capsys, "intervals", "7")
    assert code == 0
    body = [l for l in out.splitlines() if l.strip() and l.lstrip()[0].isdigit()]
    assert len(body) == 3


def test_intervals_json(capsys):
    code, out, _ = run(capsys, "intervals", "9", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [r["h"] for r in rows] == [1, 2, 3, 4]
    assert abs(rows[0]["psi"][0] - 7 * math.pi / 9) < 1e-12


def test_intervals_n3(capsys):
    code, out, _ = run(capsys, "intervals", "3", "--json")
    rows = json.loads(out)
    assert len(rows) == 1
    assert abs(rows[0]["psi"][0] - math.pi / 3) < 1e-12
    assert abs(rows[0]["psi"][1] - 5 * math.pi / 3) < 1e-12


def test_intervals_bad_n(capsys):
    code, _, err = run(capsys, "intervals", "6")
    assert code == 2


@pytest.mark.parametrize("n", ["1", "-3", "2"])
def test_intervals_n_below_three(capsys, n):
    # these printed an empty table and exited 0
    code, out, err = run(capsys, "intervals", n)
    assert code == 2
    assert err.startswith("error:") and out == ""

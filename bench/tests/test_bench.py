"""Tests of the benchmark itself: its oracles catch bad output, its inputs
depend only on the seed, and what it prints matches BENCHMARK.json.

    python3 -m pytest bench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import longmap  # noqa: E402
import oracles as O  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, install, start_trace, uninstall  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def solve():
    wl = workloads.Solve(seed=3)
    wl.setup(longmap)
    return wl


@pytest.fixture
def closed_forms():
    wl = workloads.ClosedForms(seed=3)
    wl.setup(longmap)
    return wl


@pytest.fixture
def cli(tmp_path):
    wl = workloads.Cli(3, ROOT, tmp_path)
    wl.setup()
    return wl


# ---------------------------------------------------------------------------
# oracles


@pytest.mark.parametrize("n", [3, 7, 21, 101])
def test_torus_seed_oracle_matches_star_polygon(n):
    for h, lo, hi in O.torus_windows(n):
        psi = 0.3 * lo + 0.7 * hi
        col = longmap.star_polygon(n, h, psi)
        got = O.seed_angle(col.colors, (n + 1) // 2)
        assert abs(got - O.torus_seed_beta(n, h, psi)) <= 1e-12
        assert O.relation_gap(O.torus_code(n), psi, col.colors) <= 1e-12


def test_fig8_seed_oracle_matches_closed_form():
    for psi in np.linspace(2.2, 4.1, 9):
        assert np.allclose(O.fig8_seed_betas(psi), longmap.fig8_betas(psi),
                           rtol=0, atol=1e-12)


def test_expected_seed_count_follows_the_windows():
    # T(2,21) at 0.9 pi: steps 2..10 color, step 1 ends inside the margin
    assert len(O.expected_seeds(("torus", 21), 0.9 * math.pi)) == 9
    assert len(O.expected_seeds("fig8", math.pi)) == 2
    assert O.expected_seeds("fig8", 2 * math.pi / 3 + 0.01) == []


def test_allowed_psi_avoids_window_endpoints():
    for knot in ["fig8", ("torus", 5), ("torus", 21)]:
        ends = [e for w in O.knot_windows(knot) for e in w]
        for u in np.linspace(0, 0.999, 200):
            psi = O.pick_psi(knot, u)
            assert min(abs(psi - e) for e in ends) >= O.WINDOW_MARGIN - 1e-12


def test_tangle_text_parses_to_the_package_diagram():
    d = longmap.tangles.parse(O.torus_tangle_text(5))
    assert d.code == longmap.torus2n(5).code
    assert d.schedule == longmap.torus2n(5).schedule


# ---------------------------------------------------------------------------
# bad output counts as failed


def test_correct_ops_pass(solve, closed_forms):
    for wl in (solve, closed_forms):
        for op in wl.cycle(0)[:3]:
            v = wl.check(op, wl.run(op))
            assert not v.failed, v
            assert v.found == v.expected > 0


def test_perturbed_coloring_fails(closed_forms):
    op = closed_forms.cycle(0)[1]
    out = list(closed_forms.run(op))
    col = out[0]
    colors = list(col.colors)
    colors[1] = colors[1] + np.array([0.0, 1e-6, 0.0])
    out[0] = longmap.Coloring(col.quandle, tuple(colors))
    v = closed_forms.check(op, tuple(out))
    assert v.failed and v.wrong


def test_wrong_longitude_fails(closed_forms):
    op = closed_forms.cycle(0)[-1]
    col, word, lift = closed_forms.run(op)
    bad = longmap.LongitudeValue(q=word.q * longmap.Quaternion.exp(
        1e-6, [1.0, 0.0, 0.0]), phi=word.phi)
    v = closed_forms.check(op, (col, bad, lift))
    assert v.failed and v.wrong


def test_dropped_seed_fails(solve):
    op = next(op for op in solve.cycle(0) if solve.expected(op) >= 2)
    seeds, values = solve.run(op)
    v = solve.check(op, (seeds[1:], values[1:]))
    assert v.failed and not v.wrong
    assert v.found == v.expected - 1


def test_extra_seed_fails(solve):
    op = next(op for op in solve.cycle(0) if solve.expected(op) >= 1)
    seeds, values = solve.run(op)
    beta, col = seeds[0]
    v = solve.check(op, (seeds + [(beta + 0.01, col)], values + values[:1]))
    assert v.failed and v.failures and not v.wrong


def test_wrong_solver_longitude_fails(solve):
    op = next(op for op in solve.cycle(0) if solve.expected(op) >= 1)
    seeds, values = solve.run(op)
    bad = longmap.LongitudeValue(q=-values[0].q, phi=values[0].phi)
    v = solve.check(op, (seeds, [bad] + values[1:]))
    assert v.failed and v.failures


def _proc(code, out="", err=""):
    return SimpleNamespace(returncode=code, stdout=out, stderr=err)


def test_wrong_exit_code_fails(cli):
    ops = cli.cycle(0)
    malformed = next(op for op in ops if op[0] == "malformed")
    assert not cli.check(malformed, _proc(2, err="error: bad")).failed
    assert cli.check(malformed, _proc(1, err="Traceback ...")).failed
    assert cli.check(malformed, _proc(0, out="psi = nan: 0 seed(s)")).failed
    verify = next(op for op in ops if op[0] == "verify")
    line = "[PASS] x: max deviation 1.000e-12 (tol 1.0e-10)"
    assert not cli.check(verify, _proc(0, out=line + "\n")).failed
    fail = "[FAIL] x: max deviation 1.000e-09 (tol 1.0e-10)"
    for proc in (_proc(2, out=line + "\n"), _proc(1, out=line + "\n"),
                 _proc(0, out=fail + "\n")):
        assert cli.check(verify, proc).wrong


def test_verify_breach_is_wrong(cli):
    # what ``verify`` prints, and how it exits, when a check fails
    verify = next(op for op in cli.cycle(0) if op[0] == "verify")
    fail = "[FAIL] x: max deviation 1.000e-09 (tol 1.0e-10)"
    v = cli.check(verify, _proc(1, out=fail + "\n"))
    assert v.failed and len(v.wrong) == 2
    assert any(fail in w for w in v.wrong)


@pytest.mark.parametrize("kind", ["intervals", "color", "color-text",
                                  "sweep"])
def test_well_formed_command_that_crashes_is_wrong(cli, kind):
    op = next(op for op in cli.cycle(0) if op[0] == kind)
    v = cli.check(op, _proc(1, err="Traceback (most recent call last):\n"))
    assert v.failed and v.wrong


def test_op_that_raises_is_wrong(closed_forms, monkeypatch):
    def broken(*args):
        raise ZeroDivisionError

    monkeypatch.setattr(closed_forms, "run", lambda op, tracer=None:
                        broken())
    ps = run.measure(closed_forms, None, cycles=1)
    assert all(v.wrong for v in ps["verdicts"])


def test_cli_color_output_is_checked(cli):
    op = next(op for op in cli.cycle(0) if op[0] == "color")
    proc = cli.run(op)
    assert not cli.check(op, proc).failed
    payload = json.loads(proc.stdout)
    payload["seeds"] = payload["seeds"][1:]
    assert cli.check(op, _proc(0, out=json.dumps(payload))).failed


# ---------------------------------------------------------------------------
# seeds, metric names and the result line


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_regenerates_inputs(name, tmp_path):
    a = workloads.make(name, 5, ROOT, tmp_path)
    b = workloads.make(name, 5, ROOT, tmp_path)
    c = workloads.make(name, 6, ROOT, tmp_path)
    assert [a.cycle(i) for i in range(3)] == [b.cycle(i) for i in range(3)]
    assert [a.cycle(i) for i in range(3)] != [c.cycle(i) for i in range(3)]
    assert run.inputs_sha(a) == run.inputs_sha(b) != run.inputs_sha(c)


def test_metric_names_match_benchmark_json(closed_forms):
    ps = run.measure(closed_forms, 0.05)
    e2e = run.end_to_end(ps, [(0.5, 1.0)], closed_forms.name)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    tracer = Tracer()
    undo = install(tracer)
    try:
        traced = run.measure(closed_forms, None, cycles=1, tracer=tracer)
    finally:
        uninstall(undo)
    layer = run.per_layer(tracer, len(traced["latencies"]), [(1.0, 0.5)])
    layer.update({"trace.ops_per_s_untraced": 1.0,
                  "trace.ops_per_s_traced": 1.0, "trace.overhead_frac": 0.0})
    assert set(layer) == {m["name"] for m in SPEC["per_layer"]}
    assert layer["longitudes.galex_lift.self_ms"] > 0


def test_uninstall_restores_the_package():
    before = (longmap.colorings.rotate, longmap.Quaternion.__mul__,
              dict(longmap.verification.SUITES))
    undo = install(Tracer())
    assert longmap.colorings.rotate is not before[0]
    uninstall(undo)
    after = (longmap.colorings.rotate, longmap.Quaternion.__mul__,
             dict(longmap.verification.SUITES))
    assert after == before


def test_traced_command_appends_spans_and_reports_aggregates(tmp_path):
    trace = tmp_path / "trace.jsonl"
    start_trace(trace)
    tracer = Tracer(trace)
    wl = workloads.Cli(3, ROOT, tmp_path)
    op = next(op for op in wl.cycle(0) if op[0] == "intervals")
    tracer.op = 7
    tracer.enter("bench.op")
    proc = wl.run(op, tracer)
    tracer.exit()
    tracer.flush()
    assert not wl.check(op, proc).failed
    lines = trace.read_text(encoding="utf-8").splitlines()
    fields = json.loads(lines[0])["fields"]
    spans = [dict(zip(fields, json.loads(line))) for line in lines[1:]]
    assert {s["op"] for s in spans} == {7}
    assert len({s["pid"] for s in spans}) == 2
    assert tracer.calls["cli.main.intervals"] == 1
    assert tracer.calls["cli.import"] == 1
    assert tracer.n_spans == len(spans)
    outer = next(s for s in spans if s["name"] == "bench.op")
    # the command's own spans count as the op's children, not its self time
    assert 0 < tracer.self_s["bench.op"] < outer["end"] - outer["start"]


def test_tail_latency_leaves_ten_samples_above():
    lat = list(range(100))
    value, pct = run.tail_latency(lat)
    assert value == 89 and sum(x > value for x in lat) == 10
    assert pct == 90.0


def test_tail_latency_is_p95_on_long_runs():
    lat = list(range(5000))
    value, pct = run.tail_latency(lat)
    assert sum(x > value for x in lat) == 250
    assert 94.9 < pct <= 95.0


def test_parse_importtime_finds_outermost_scipy():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     scipy.optimize._x",
        "import time:       400 |        450 |   scipy.optimize",
        "import time:        10 |        900 | longmap.colorings",
        "import time:        20 |       1000 | longmap.cli",
    ])
    assert run.parse_importtime(text) == (1.0, 0.75)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line(trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "closed-forms",
         "--seed", "1", "--seconds", "0.2", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}


def test_refuses_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""

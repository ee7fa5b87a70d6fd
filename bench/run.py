"""The longmap benchmark.

    python3 bench/run.py --workload {solve,closed-forms,cli} --seed N
                         --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout (never from an installed copy), and the command
exits with an error, printing no result, if it is not there.  One client
runs ops in a closed loop (the next op starts when the previous one
returns) in whole cycles of the workload (see ``workloads.py``) until ``S``
seconds of scaled op time have been measured, and at least the workload's
fewest cycles.  Every output is checked against ``oracles.py`` between
ops, outside the timed region.  Every op is timed by wall clock
(``perf_counter``), whether it runs in this process (solve, closed-forms)
or as a child command (cli).  Times are scaled by the speed of the machine
at the time, measured between ops with a reference (see ``calibrate.py``):
a kernel of small numpy and quaternion operations for ops run in this
process, and a fresh interpreter importing numpy and standard modules for
fresh interpreters (cli commands and set-up probes).  The raw figures are in
the line before the result.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` first runs untraced for S/2 seconds, then runs the same cycles
again with spans recorded around every call into the package's layers, and
prints the per-layer metrics, per op of the traced pass, plus the tracing
overhead.  The spans are written to ``.bench_build/traces/``.

``failed`` counts ops that missed an oracle seed, returned a seed the
oracle does not have or one that breaks a crossing relation, produced a
value an oracle contradicts, raised, or did not exit as the CLI documents
(0 ok, 1 verification breach, 2 usage error).  ``correct`` is false if an
op raised, a well-formed command exited non-zero or printed a traceback, or
a deterministic output computed from exact inputs (a closed-form coloring,
its longitude word or lift, a CSV value, a verify or interval report)
contradicts its oracle.  The solver's seeds are judged as a search, and
malformed commands by their exit code: missed, spurious or imprecise seeds
and a malformed command that does not exit 2 are failures, not wrong
answers.

The line before the result gives provenance (sha of ``src/`` and git, when
the checkout is a git repository; Python, numpy and scipy versions; nproc),
a digest of the seed's inputs, the op count, the tail percentile with its
sample count, unscaled timings, and the failure reasons with their counts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from calibrate import ProcessSampler
from tracing import LAYERS, Tracer, install, start_trace, uninstall
from workloads import Verdict

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 3   # before the ops, and as many again after them
IMPORT_PROBES = 3
TAIL_BEYOND = 10   # fewest samples above the reported tail latency


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "longmap" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {ROOT / 'src' / 'longmap'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    tmp = ROOT / ".bench_build" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        values, details = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if set(values) != set(units):
        sys.exit(f"error: metrics {sorted(set(values) ^ set(units))} do not "
                 "match BENCHMARK.json")
    print(json.dumps(details))
    print(json.dumps({
        "correct": details["correct"],
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))


def run(args, tmp):
    wl = workloads.make(args.workload, args.seed, ROOT, tmp)
    details = {"provenance": provenance(), "workload": wl.name,
               "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "inputs_sha": inputs_sha(wl)}
    if args.trace:
        values, passes = run_traced(wl, args, details)
    else:
        values, passes = run_untraced(wl, args, details)
    verdicts = [v for ps in passes for v in ps["verdicts"]]
    details["correct"] = not any(v.wrong for v in verdicts)
    details["attempted"] = len(verdicts)
    details["failed"] = sum(v.failed for v in verdicts)
    reasons = Counter(r for v in verdicts for r in v.wrong + v.failures)
    details["failures"] = dict(reasons.most_common(12))
    details["cycles"] = passes[0]["cycles"]
    details["ops"] = len(passes[-1]["latencies"])
    return values, details


def run_untraced(wl, args, details):
    setups = setup_seconds(wl)
    wl.setup(import_package() if wl.name != "cli" else None)
    ps = measure(wl, args.seconds, min_cycles=wl.min_cycles)
    setups += setup_seconds(wl)
    by_kind = {}
    for label, dt in zip(ps["labels"], ps["latencies"]):
        by_kind.setdefault(label, []).append(dt * 1e3)
    details.update({
        "tail_percentile": tail_latency(ps["latencies"])[1],
        "tail_samples": len(ps["latencies"]),
        "raw_ops_per_s": len(ps["raw"]) / sum(ps["raw"]),
        "raw_op_p50_ms": statistics.median(ps["raw"]) * 1e3,
        "ref_ms": ps["ref_ms"],
        "raw_setup_s": statistics.median(t for t, _k in setups),
        "p50_ms_by_kind": {k: statistics.median(v)
                           for k, v in by_kind.items()},
    })
    return end_to_end(ps, setups, wl.name), [ps]


def run_traced(wl, args, details):
    """An untraced pass of S/2 seconds, then the same cycles traced."""
    imports = [import_times() for _ in range(IMPORT_PROBES)]
    lm = import_package() if wl.name != "cli" else None
    wl.setup(lm)
    plain = measure(wl, args.seconds / 2)
    trace_dir = ROOT / ".bench_build" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    spans_path = trace_dir / f"{wl.name}-seed{args.seed}.jsonl"
    start_trace(spans_path)
    tracer = Tracer(spans_path)
    # cli commands install the tracer in their own interpreter
    undo = install(tracer) if lm is not None else []
    try:
        tracer.enter("bench.setup")
        wl.setup(lm)
        tracer.exit()
        traced = measure(wl, None, cycles=plain["cycles"], tracer=tracer)
    finally:
        uninstall(undo)
    tracer.flush()
    details["spans"] = str(spans_path.relative_to(ROOT))
    details["spans_total"] = tracer.n_spans

    # both unscaled: the traced pass takes no reference samples
    plain_rate = len(plain["raw"]) / sum(plain["raw"])
    traced_rate = len(traced["raw"]) / sum(traced["raw"])
    values = per_layer(tracer, len(traced["latencies"]), imports)
    values["trace.ops_per_s_untraced"] = plain_rate
    values["trace.ops_per_s_traced"] = traced_rate
    values["trace.overhead_frac"] = plain_rate / traced_rate - 1.0
    return values, [plain, traced]


def measure(wl, seconds, cycles=None, tracer=None, min_cycles=1):
    """Run whole cycles until ``seconds`` of scaled op time (so that a run
    does as many cycles on a slow machine as on a fast one) and at least
    ``min_cycles`` cycles (or exactly ``cycles`` cycles) have passed; check
    each op's output after its timed region.

    Ops are timed by wall clock and scaled by the workload's reference
    samples taken between them, except in the traced pass, which takes no
    samples and reports raw times.
    """
    sampler = wl.sampler() if tracer is None else None
    spans, raw, verdicts, labels = [], [], [], []
    busy, c = 0.0, 0
    with sampler or contextlib.nullcontext():
        while (c < cycles) if cycles is not None else (
                c < min_cycles or busy < seconds):
            for op in wl.cycle(c):
                if tracer is not None:
                    tracer.op = len(raw)
                    tracer.enter("bench.op")
                elif sampler is not None:
                    sampler.between()
                t0 = time.perf_counter()
                try:
                    out, err = wl.run(op, tracer), None
                except Exception as exc:  # an op that raises is a wrong op
                    out, err = None, exc
                t1 = time.perf_counter()
                if tracer is not None:
                    tracer.exit()
                spans.append((t0, t1))
                raw.append(t1 - t0)
                labels.append(wl.label(op))
                busy += (t1 - t0) * (sampler.scale(t0, t1)
                                     if sampler is not None else 1.0)
                if err is None:
                    verdicts.append(wl.check(op, out))
                else:
                    verdicts.append(Verdict(wl.expected(op), wrong=[
                        f"{wl.label(op)}: raised {type(err).__name__}"]))
            c += 1
    if sampler is not None:
        latencies = [dt * sampler.scale(*span) for dt, span in zip(raw, spans)]
    else:
        latencies = raw
    return {"latencies": latencies, "raw": raw, "verdicts": verdicts,
            "labels": labels, "busy": sum(latencies), "cycles": c,
            "ref_ms": statistics.median(sampler.times) * 1e3
            if sampler is not None else None}


def tail_latency(latencies):
    """The 95th-percentile latency, or a lower one when fewer than
    TAIL_BEYOND samples lie above the 95th percentile; and its percentile.

    At least TAIL_BEYOND samples lie above it, so one or two slow ops do not
    set it.  With thousands of ops it stays at the 95th percentile: on
    closed-forms the 99th lies in the slowest 7% of the T(2,101) ops, where
    a few seconds of imperfect scaling decide it (its spread over ten runs
    was 0.31), while the 95th lies amid them.
    """
    s = sorted(latencies)
    beyond = max(TAIL_BEYOND, len(s) // 20)
    i = max(len(s) - 1 - beyond, 0)
    return s[i], 100.0 * (i + 1) / len(s)


def end_to_end(ps, setups, name):
    lat = ps["latencies"]
    verdicts = ps["verdicts"]
    expected = sum(v.expected for v in verdicts)
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": statistics.median(t * k for t, k in setups),
        "ops_per_s": len(lat) / ps["busy"],
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_latency(lat)[0] * 1e3,
        "ok_frac": 1.0 - sum(v.failed for v in verdicts) / len(verdicts),
        "seed_recall": (sum(v.found for v in verdicts) / expected
                        if expected else 1.0),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def per_layer(tracer, n_ops, imports):
    def ms(name):
        return tracer.self_s.get(name, 0.0) * 1e3 / n_ops

    def calls(name):
        return tracer.calls.get(name, 0) / n_ops

    out = {
        "quaternions.rotate.single_calls": calls("quaternions.rotate.single"),
        "quaternions.rotate.single_ms": ms("quaternions.rotate.single"),
        "quaternions.rotate.batch_calls": calls("quaternions.rotate.batch"),
        "quaternions.rotate.batch_ms": ms("quaternions.rotate.batch"),
        "quaternions.rotate.rows":
            tracer.counts["quaternions.rotate.rows"] / n_ops,
        "colorings.solve_colorings.rotations_per_seed":
            tracer.counts["solve.rotate_rows"]
            / max(tracer.counts["solve.seeds"], 1),
        "cli.import_ms": statistics.median(t[0] for t in imports),
        "cli.import.scipy_ms": statistics.median(t[1] for t in imports),
        "bench.op.self_ms": ms("bench.op"),
    }
    for name in ("quaternions.geodesic_distance",
                 "colorings.solve_colorings", "colorings.star_polygon",
                 "quaternions.Quaternion.mul"):
        out[name + ".calls"] = calls(name)
        out[name + ".self_ms"] = ms(name)
    out["quaternions.Quaternion.pow.calls"] = calls(
        "quaternions.Quaternion.pow")
    for name in ("colorings.fig8_coloring", "colorings.residual",
                 "quandles.iso_sphere_to_conj", "longitudes.eval_word",
                 "longitudes.galex_lift", "tangles.torus2n", "tangles.parse",
                 *[f"cli.main.{c}" for c in ("verify", "color", "sweep",
                                              "intervals")],
                 *[f"verification.suite_{s}" for s in workloads.SUITES]):
        out[name + ".self_ms"] = ms(name)
    for layer in LAYERS:
        out[layer + ".self_ms"] = sum(
            s for name, s in tracer.self_s.items()
            if name.startswith(layer + ".") and name != "cli.import"
        ) * 1e3 / n_ops
    return out


# ---------------------------------------------------------------------------
# set-up, imports and provenance


def child_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def setup_seconds(wl):
    """[(wall time, scale)] of SETUP_PROBES fresh interpreters that each
    import longmap.cli and build the workload's diagrams, each after a
    reference sample."""
    code = "import longmap.cli\n" + wl.setup_code()
    spans = []
    with ProcessSampler() as sampler:
        for i in range(SETUP_PROBES):
            if i:
                sampler.sample()
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=child_env(),
                           cwd=ROOT, check=True, timeout=120)
            spans.append((t0, time.perf_counter()))
    return [(t1 - t0, sampler.scale(t0, t1)) for t0, t1 in spans]


def import_times():
    """(longmap.cli, scipy) cumulative import times in ms, from
    ``-X importtime`` of a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import longmap.cli"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        check=True, timeout=120)
    return parse_importtime(proc.stderr)


def parse_importtime(text):
    entries = []
    for line in text.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        if not parts[1].strip().isdigit():
            continue  # the header line
        level = (len(parts[2]) - len(parts[2].lstrip()) - 1) // 2
        entries.append((level, parts[2].strip(), int(parts[1])))
    cli_us = next((us for _lvl, name, us in entries if name == "longmap.cli"),
                  0)
    # entries are printed children first; walking them backwards visits each
    # parent before its children, so ``stack`` holds the current ancestors
    scipy_us, stack = 0, []
    for level, name, us in reversed(entries):
        del stack[level:]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(stack):
            scipy_us += us
        stack.append(is_scipy)
    return cli_us / 1e3, scipy_us / 1e3


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import longmap

    where = Path(longmap.__file__).resolve()
    if ROOT / "src" not in where.parents:
        sys.exit(f"error: imported longmap from {where}, not from src/")
    return longmap


def inputs_sha(wl, cycles=4):
    """Digest of the first cycles' inputs: equal for equal seeds."""
    text = repr([wl.cycle(c) for c in range(cycles)])
    text = text.replace(str(ROOT), "<root>")
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def provenance():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    sha = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        top, head = (git.stdout.split() + ["", ""])[:2]
        if git.returncode == 0 and Path(top).resolve() == ROOT:
            sha = head
    except OSError:
        pass
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"git_sha": sha, "src_sha256": h.hexdigest()[:16],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "nproc": len(os.sched_getaffinity(0))}


if __name__ == "__main__":
    main()

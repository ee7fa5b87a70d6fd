"""Machine-speed reference for the benchmark's op timings.

The machines this benchmark runs on are shared virtual CPUs whose speed
drifts within seconds: the same cycles of solve ops ran at 4.6 to 8.6 ops/s
in consecutive windows.  To keep runs comparable, a ``Sampler`` times a
fixed reference kernel, which uses no code of the package, between ops, at
most once every ``PERIOD_S`` seconds, so that the kernel never runs inside
a timed op.  An op's wall time is scaled by ``REF_S / t``, where ``t`` is
the median of the samples taken from ``WINDOW_S`` before the op to
``WINDOW_S`` after it (at least the nearest one on each side): single
samples are noisy, and a scale taken from one or two of them put the
slowest closed-forms ops at twice their raw time.  A reported time is thus
the op's time on a machine on which the kernel takes ``REF_S``, which is
about what it took on the machine the baseline was taken on (2-vCPU virtual
machine at 2.0 GHz) in its slower state.  Raw times are reported alongside.

The kernel mimics the package's hot paths: numpy calls on single 3-vectors
(a Rodrigues rotation and a geodesic distance, as the solver's refinement
makes) and products of frozen-dataclass quaternions (as longitude words
make).  Each sample is the best of three runs of it.

Fresh interpreters (cli commands, set-up probes) do not follow that kernel:
they spend most of their time starting up and importing, and on the
baseline's machine their times drifted by up to a third over minutes while
the kernel's did not, or moved the other way.  They are scaled the same way
by a ``ProcessSampler``, whose reference is a fresh interpreter that
imports numpy and some of the standard library (none of the package, and
not scipy, which a change to the package may stop importing); its
``ref_s`` of 0.3 s is about what that took there.
"""

from __future__ import annotations

import bisect
import math
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

REF_S = 1.0e-3
PERIOD_S = 0.1
WINDOW_S = 1.0
PROCESS_CODE = ("import numpy, argparse, asyncio, decimal, "
                "email.mime.multipart, http.client, json, unittest")


@dataclass(frozen=True)
class _Quat:
    a: float
    b: float
    c: float
    d: float

    def __mul__(self, o):
        a = self.a * o.a - self.b * o.b - self.c * o.c - self.d * o.d
        b = self.a * o.b + self.b * o.a + self.c * o.d - self.d * o.c
        c = self.a * o.c - self.b * o.d + self.c * o.a + self.d * o.b
        d = self.a * o.d + self.b * o.c - self.c * o.b + self.d * o.a
        n = math.sqrt(a * a + b * b + c * c + d * d)
        return _Quat(a / n, b / n, c / n, d / n)


def kernel():
    u = np.array([[1.0, 0.0, 0.0]])
    v = np.array([[0.6, 0.8, 0.0]])
    for _ in range(6):
        angle = np.asarray(2.5)
        cos_a = np.cos(angle)[..., np.newaxis]
        sin_a = np.sin(angle)[..., np.newaxis]
        dot = np.sum(u * v, axis=-1, keepdims=True)
        u = u * cos_a + np.cross(v, u) * sin_a + v * dot * (1.0 - cos_a)
        np.arctan2(np.linalg.norm(np.cross(u, v), axis=-1),
                   np.sum(u * v, axis=-1))
    q, r = _Quat(0.6, 0.8, 0.0, 0.0), _Quat(0.0, 0.6, 0.8, 0.0)
    for _ in range(30):
        q = q * r
    return q


def process_kernel():
    subprocess.run([sys.executable, "-c", PROCESS_CODE], check=True,
                   timeout=60)


class Sampler:
    """Kernel timings, stamped and timed with ``perf_counter``: one when the
    sampler is entered, one when it is left, and one at each ``between``
    call that comes at least ``period_s`` after the last sample."""

    kernel = staticmethod(kernel)
    ref_s = REF_S
    repeats = 3
    period_s = PERIOD_S

    def __init__(self):
        self.starts = []   # sample start times, increasing
        self.times = []    # sample durations

    def sample(self):
        start, best = perf_counter(), math.inf
        for _ in range(self.repeats):
            t0 = perf_counter()
            self.kernel()
            best = min(best, perf_counter() - t0)
        self.starts.append(start)
        self.times.append(best)

    def between(self):
        """Call between two ops."""
        if (not self.starts
                or perf_counter() - self.starts[-1] >= self.period_s):
            self.sample()

    def __enter__(self):
        self.sample()
        return self

    def __exit__(self, *exc):
        self.sample()
        return False

    def scale(self, t0, t1):
        """ref_s over the median of the samples from the last one before
        t0 - WINDOW_S to the first one after t1 + WINDOW_S."""
        i = max(bisect.bisect_left(self.starts, t0 - WINDOW_S) - 1, 0)
        j = bisect.bisect_left(self.starts, t1 + WINDOW_S) + 1
        return self.ref_s / statistics.median(self.times[i:j])


class ProcessSampler(Sampler):
    """Timings of a fresh interpreter that imports PROCESS_CODE, one at most
    every ``period_s`` (about every third cli command)."""

    kernel = staticmethod(process_kernel)
    ref_s = 0.3
    repeats = 1
    period_s = 3.0

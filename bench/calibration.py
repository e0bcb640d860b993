"""Speed of the CPU a process runs on, sampled with fixed loops of work.

On the reference machine (a 2-vCPU VM on a shared host) the speed of
pure-Python code on one vCPU swings by up to 2x within seconds, and the two
vCPUs swing independently.  The speed of LAPACK code drifts less, and not in
step with the Python speed.  A loop of fixed work of the same kind, run in the
measured process itself at short intervals, tracks the swing, so a step's
time divided by the loop's mean time is steady; bench/README.md has figures.

Two loops, one per kind of work:

- ``python`` multiplies 2x2 matrices held as tuples and rescales them by a
  power of two, as ``quasitrace.transfer`` does;
- ``lapack`` solves a fixed 500-site tridiagonal eigenproblem with the
  ``stemr`` driver, as ``quasitrace.dynamics.eigensystem`` does.

Both are the benchmark's own code, so no change to the program can move them.
"""

from __future__ import annotations

import math
import signal
import time
from dataclasses import dataclass
from typing import Callable

PYTHON_STEPS = 10_000   # about 10 ms on the reference machine
LAPACK_SITES = 500      # about 20 ms on the reference machine
REPEATS = 3             # samples taken at each bracket


def python_time() -> float:
    """Seconds the fixed pure-Python loop takes now."""
    frexp, ldexp = math.frexp, math.ldexp
    a2, b2, c2, d2, e2 = 1.1, 0.3, -0.2, 0.9, 0
    m = (1.0, 0.0, 0.0, 1.0, 0)
    start = time.perf_counter()
    for _ in range(PYTHON_STEPS):
        a1, b1, c1, d1, e1 = m
        a = a1 * a2 + b1 * c2
        b = a1 * b2 + b1 * d2
        c = c1 * a2 + d1 * c2
        d = c1 * b2 + d1 * d2
        ex = frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
        s = ldexp(1.0, -ex)
        m = (a * s, b * s, c * s, d * s, e1 + e2 + ex)
    return time.perf_counter() - start


def lapack_time() -> float:
    """Seconds a fixed tridiagonal eigensolve takes now (imports scipy)."""
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    n = np.arange(1, LAPACK_SITES + 1)
    diagonal = 6.0 * np.cos(2.0 * math.pi * 0.6180339887498949 * n)
    offdiagonal = np.ones(LAPACK_SITES - 1)
    start = time.perf_counter()
    eigh_tridiagonal(diagonal, offdiagonal, lapack_driver="stemr")
    return time.perf_counter() - start


@dataclass(frozen=True)
class Loop:
    time: Callable[[], float]
    reference_s: float  # loop time that counts as reference speed
    interval_s: float   # sampling period while a subcommand runs


LOOPS = {
    "python": Loop(python_time, reference_s=0.01, interval_s=0.25),
    "lapack": Loop(lapack_time, reference_s=0.02, interval_s=0.25),
}


def bracket(kind: str) -> list[float]:
    return [LOOPS[kind].time() for _ in range(REPEATS)]


def scale(kind: str, samples: list[float]) -> float:
    """Factor that turns a time measured alongside `samples` into reference time.

    Run time is proportional to the loop's time at each moment, so the factor
    uses the mean of the samples, not their median.
    """
    return LOOPS[kind].reference_s / (sum(samples) / len(samples))


class Sampler:
    """Runs a loop every `interval_s` seconds of wall time, on SIGALRM.

    The handler runs in the main thread between bytecodes, on the CPU the
    measured code runs on; a signal that arrives during a long C call waits
    for it to return.  `samples` are the loop times; their sum is the time
    the sampling took from the measured code.
    """

    def __init__(self, kind: str):
        self.loop = LOOPS[kind]
        self.samples: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(self.loop.time())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.loop.interval_s, self.loop.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

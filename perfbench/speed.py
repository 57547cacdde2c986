"""Host speed probes: short, fixed pieces of work, timed.

Virtual CPUs on a shared host run the same code at speeds that differ by up
to 1.8x, each CPU on its own, switching every few seconds and at times
staying slow for tens of seconds; CPU time tracks wall time, so the loss is
in the CPU, not in scheduling.  A run therefore pins itself and its children
to one CPU, and brackets every timed op with two probes on that CPU.  An op's
*scaled* time is its wall time multiplied by ``scale``: the probe's
reference time over the mean of its two probes, that is, the time the op
would have taken at the speed at which the probe takes its reference time.

Two probes, because work slows by different amounts: pure-Python work in
one process (the library ops) is timed against a polynomial product over
the rationals, and whole processes (dq commands, fresh interpreters) against
starting a bare interpreter: process start-up slows about half as much as
pure-Python work.  The probes are the benchmark's own code and the
interpreter's start-up, so a change to the engine cannot change them.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import time
from fractions import Fraction

# The probes' times on an unloaded 2.1 GHz Intel Xeon virtual CPU: scaled
# times are wall times at that speed.
REFERENCE_MS = 2.0
SPAWN_REFERENCE_MS = 9.0

_FACTORS = [((i, j), Fraction(i + 2 * j + 1, j + 3)) for i in range(5) for j in range(5)]
_SPAWN = [sys.executable, "-S", "-c", "pass"]


def _kernel() -> dict:
    """A product of two dense 5x5 polynomials over the rationals: dict and
    Fraction work like the engine's inner loops."""
    out: dict = {}
    for (i1, j1), c1 in _FACTORS:
        for (i2, j2), c2 in _FACTORS:
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def probe_ms() -> float:
    """Milliseconds the kernel takes now, with the garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return (time.perf_counter() - start) * 1000.0
    finally:
        if enabled:
            gc.enable()


def spawn_probe_ms() -> float:
    """Milliseconds a bare interpreter takes now to start and exit.

    No timeout: with one, the wait for the exit polls in sleeps of growing
    length and the probe reads in steps of milliseconds."""
    start = time.perf_counter()
    subprocess.run(_SPAWN, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
    return (time.perf_counter() - start) * 1000.0


def scale(reference_ms: float, before_ms: float, after_ms: float) -> float:
    """The factor that brings a time measured between two probes to the
    speed at which the probe takes ``reference_ms``."""
    return reference_ms * 2 / (before_ms + after_ms)


def pin_to_one_cpu() -> None:
    """Keep this process, and every process it starts, on one CPU, so that
    the probes run where the ops run."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

"""Interpreter speed, measured alongside the benchmark so times can be scaled.

On a shared virtual machine the interpreter's speed can change by 20-40%
over tens of seconds (measured on a 2-vCPU x86-64 VM), which moves every
wall-clock time of a run together. A fixed chunk of pure-Python work of the
kind lcfield does (``Fraction`` arithmetic, ``Fraction``-keyed dicts) is
timed in short slices during the run; its rate tracks the host's speed and
does not depend on lcfield. Reported times are scaled to the reference rate
below:

    time_at_reference = wall_time * measured_rate / REFERENCE_RATE

so a run on a host state that is 30% slow reads the same as one on a fast
state. The raw wall-clock figures are printed next to the scaled ones.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

#: Chunks per second that define reference speed (about the typical rate
#: of CPython 3.11 on a 2-vCPU x86-64 virtual machine).
REFERENCE_RATE = 1500.0
SLICE_S = 0.025
#: Loop time between slices; a slice waits for the running op to end.
EVERY_S = 0.5


def _chunk() -> None:
    a = Fraction(1, 3)
    table: dict = {}
    for i in range(1, 60):
        a = a * Fraction(i, i + 1) + Fraction(1, i)
        key = Fraction(i, 7)
        table[key] = table.get(key, 0) + a


def rate() -> float:
    """Chunks per second over a slice of about SLICE_S seconds.

    The cyclic collector is off during the slice, so the rate does not
    depend on how many objects the measured program keeps alive.
    """
    n = 0
    gc.disable()
    try:
        start = perf_counter()
        while True:
            _chunk()
            n += 1
            elapsed = perf_counter() - start
            if elapsed >= SLICE_S:
                return n / elapsed
    finally:
        gc.enable()


def scale(rate_measured: float) -> float:
    """Factor that turns a wall time into a time at reference speed."""
    return rate_measured / REFERENCE_RATE

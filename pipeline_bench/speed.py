"""Calibration of times against the machine's current speed.

On a shared virtual machine the same interpreter work can take 1.5x
longer from one second to the next, while the host runs other guests.
The benchmark therefore times a fixed piece of pure-Python work that
does not touch the program next to every measured call, and scales each
call's wall time by NOMINAL_S / (median reference time around it).
Reported times are "at nominal speed": the speed at which the reference
work takes NOMINAL_S.  A change to the program does not change the
reference work, so it moves the scaled times exactly as it moves wall
time at a steady speed.
"""

from __future__ import annotations

import statistics
import time
from array import array

NOMINAL_S = 0.002
POOL_SLOTS = 1 << 20  # 8 MB of indices that form one cycle through all of them
CHASE = 8_000  # pool steps per reference
MADE = 800  # objects built per reference
WINDOW = 5  # reference samples taken on each side of a call


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int):
        self.key = key
        self.value = value


class Calibrator:
    """Times a fixed mix of object building and pointer chasing.

    Chasing a scattered cycle through a pool larger than the caches makes the
    reference slow down with memory contention as well as with interpreter
    speed, as the program's tree building and walking do.  The pool is a
    flat array, so the garbage collector never scans it.
    """

    def __init__(self):
        # slot i holds (a*i + c) mod 2**20: with a = 1 (mod 4) and c odd this
        # visits every slot once per cycle (Hull-Dobell), in scattered order
        mask = POOL_SLOTS - 1
        self.pool = array("q", ((2_654_435_761 * i + 40_503) & mask for i in range(POOL_SLOTS)))
        self.at = 0

    def reference_s(self) -> float:
        """Seconds that the fixed reference work takes now."""
        began = time.perf_counter()
        table: dict[str, int] = {}
        made = []
        for i in range(MADE):
            key = f"k{i % 97}"
            table[key] = table.get(key, 0) + i
            made.append(_Cell(key, i))
        pool, at = self.pool, self.at
        for _ in range(CHASE):
            at = pool[at]
        self.at = at
        return time.perf_counter() - began


def factor(samples: list[float]) -> float:
    """Scale that turns wall seconds into seconds at nominal speed."""
    return NOMINAL_S / statistics.median(samples)


def call_factors(references: list[float]) -> list[float]:
    """Per-call scales; references[j] was taken just before call j and
    references[-1] after the last call."""
    calls = len(references) - 1
    return [
        factor(references[max(0, j - WINDOW + 1) : j + 1 + WINDOW]) for j in range(calls)
    ]

"""Timings in reference seconds, corrected for the machine's changing speed.

On a shared machine the speed available to one process can change by a
factor of almost two within seconds, as other tenants come and go; CPU
time moves with wall time, so neither is steady.  The benchmark therefore
runs a fixed calibration between chunks of work and scales every timing by
the calibration's nominal time over its measured time around that work
(the mean of the calibrations just before and just after).  A reference
second is the time the work would take where the calibration takes its
nominal time.  Wall-clock times are kept next to the scaled ones in every
run record.

Work done in this process is calibrated by a pure-Python loop of the same
kind as the library's kernels (bitmask arithmetic, sorting with a key,
small containers), so both slow down together.  Work done in child
processes is calibrated by starting a bare interpreter, because a child's
speed does not follow this process's.  The library's own code enters
neither calibration.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable


def calibration_loop() -> int:
    acc = 0
    for seed in range(90):
        masks = [(seed * 2654435761 + i * 40503) & 0xFFFF for i in range(60)]
        masks.sort(key=lambda m: (m.bit_count(), m))
        kept: list[int] = []
        for m in masks:
            if not any(k & m == k for k in kept):
                kept.append(m)
        acc += len(set(kept)) + len({m: i for i, m in enumerate(masks)})
    return acc


def _timed(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter_ns()
    fn()
    return (time.perf_counter_ns() - t0) / 1e9


@dataclass(frozen=True)
class Clock:
    """A calibration (returns the seconds it took now), its nominal
    seconds, and how much timed work to do between calibrations."""

    calibrate: Callable[[], float]
    nominal: float
    chunk_ns: int

    def factor(self, before: float, after: float) -> float:
        """Scale from wall to reference time for work done between two
        calibrations."""
        return self.nominal / ((before + after) / 2)


LOCAL = Clock(lambda: _timed(calibration_loop), 0.010, 250_000_000)


def child_clock(cwd: str, env: dict) -> Clock:
    """Calibration by one bare interpreter start, `python -c pass`."""
    command = [sys.executable, "-c", "pass"]

    def start():
        subprocess.run(command, cwd=cwd, env=env, capture_output=True, timeout=60, check=True)

    return Clock(lambda: _timed(start), 0.040, 500_000_000)


class ScaledPass:
    """Runs items one after another, calibrating between chunks of about
    clock.chunk_ns of timed work; records each item's wall time, its scale
    factor and its output.  An item that raises yields the exception as
    output."""

    def __init__(self, clock: Clock, before: float):
        self.clock = clock
        self.last = before
        self.raw: list[int] = []
        self.factors: list[float] = []
        self.outputs: list = []
        self._pending = 0
        self._pending_ns = 0

    def run(self, items, call=lambda i, item: item.run()) -> "ScaledPass":
        clock = time.perf_counter_ns
        for i, item in enumerate(items):
            t0 = clock()
            try:
                out = call(i, item)
            except Exception as exc:  # a failing item is counted, not fatal
                out = exc
            self.raw.append(clock() - t0)
            self.outputs.append(out)
            self._pending += 1
            self._pending_ns += self.raw[-1]
            if self._pending_ns >= self.clock.chunk_ns:
                self._flush()
        if self._pending:
            self._flush()
        return self

    def _flush(self) -> None:
        now = self.clock.calibrate()
        self.factors.extend([self.clock.factor(self.last, now)] * self._pending)
        self.last = now
        self._pending = 0
        self._pending_ns = 0

    @property
    def scaled(self) -> list[float]:
        return [r * f for r, f in zip(self.raw, self.factors)]

"""Scale wall-clock times to one reference speed of the host.

The host this benchmark was written on runs the same Python code at speeds
up to twice apart, in phases lasting from seconds to minutes: one resolve
took 15 ms in some 3-second windows and 31 ms in others, while its ratio to
the calibration loop below stayed within about 5% (README.md has the
numbers).  Raw times would make two runs of the same code disagree by more
than any useful bound, so every reported time is scaled:

    scaled = raw * REFERENCE_S / (mean of the calibrations around it)

The calibration loop is plain Python that touches nothing of the package, so
no change to the package can move it.  Raw times are reported next to the
scaled ones.
"""

from __future__ import annotations

import statistics
import time

# The calibration loop's time at the host's common speed when this was
# written; scaled times read as milliseconds at that speed.
REFERENCE_S = 0.005
# Calibrate again after this much measured time.
EVERY_S = 0.25


def _loop(n: int) -> int:
    acc = 0
    for i in range(n):
        members = tuple(range(i % 13))
        acc += sum(x * x for x in members)
    return acc


def calibrate() -> float:
    """Seconds for 3000 loop iterations, as the median of three runs of 1000."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        _loop(1000)
        samples.append(time.perf_counter() - start)
    return 3 * statistics.median(samples)


def factor(before: float, after: float) -> float:
    return REFERENCE_S / ((before + after) / 2)


class Scaler:
    """Scales each recorded time by the calibrations just before and after
    it; a calibration runs whenever ``EVERY_S`` has passed."""

    def __init__(self):
        self._last = calibrate()
        self._since = time.perf_counter()
        self._pending: list[list[float]] = []
        self.factors: list[float] = []

    def record(self, raw: float) -> list[float]:
        """Returns [raw, scaled]; scaled is filled in at the next calibration."""
        entry = [raw, raw]
        self._pending.append(entry)
        if time.perf_counter() - self._since >= EVERY_S:
            self.flush()
        return entry

    def flush(self) -> None:
        now = calibrate()
        f = factor(self._last, now)
        for entry in self._pending:
            entry[1] = entry[0] * f
        self.factors.append(f)
        self._pending = []
        self._last = now
        self._since = time.perf_counter()

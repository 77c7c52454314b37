"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of one core drifts by tens of percent over
seconds (neighbours, frequency), far more than the changes the benchmark
should resolve.  So a fixed slice of pure-Python work runs right before each
timed check, and every timing is rescaled to a reference speed at which one
slice takes exactly ``SLICE_S``:

    reported = measured * SLICE_S / (median slice time around the check)

The program's code never runs inside a slice, so a change to galaxyck cannot
move the calibration.  Raw wall-clock figures are kept next to the rescaled
ones in each run's detail line.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

SLICE_S = 0.002  # one slice at reference speed
SLICE_EVERY_S = 0.02  # check time between slices, so cheap checks are not swamped
WINDOW = 4  # slices on each side of a check that set its speed


_WIDE = 7**3000  # about 8k bits


def calibration_slice() -> float:
    """Runs a fixed mix of interpreter work (dicts, sets, tuples, strings) and
    wide-integer arithmetic (products and gcds); returns its wall time in
    seconds."""
    start = time.perf_counter()
    table: dict = {}
    seen = set()
    acc = 0
    for i in range(2400):
        key = (i * 7919) % 1013
        table[key] = table.get(key, 0) + i
        seen.add((key, i & 7))
        acc += len(str(i)) + (i * i) % 97
    for i in range(1, 4):
        acc += math.gcd(_WIDE * (_WIDE + i), (_WIDE - i) * 6**i).bit_length()
    return time.perf_counter() - start


def rescale(measured: list, slices: list) -> list:
    """Each measured time scaled by the median of the ``2*WINDOW+1`` slices
    around it.  ``slices[i]`` is the slice run just before ``measured[i]``,
    or None where no slice ran."""
    positions = [i for i, s in enumerate(slices) if s is not None]
    values = [slices[i] for i in positions]
    out = []
    for i, seconds in enumerate(measured):
        k = max(0, bisect.bisect_right(positions, i) - 1)
        local = statistics.median(values[max(0, k - WINDOW) : k + WINDOW + 1])
        out.append(seconds * SLICE_S / local)
    return out

"""A fixed calibration task that tracks the machine's momentary speed.

The speed of a shared machine drifts by 10-50% over seconds to hours, and
a run of the benchmark is too short to average that out.  The harness
times this task in its own process just before and after each round of
ops, and scales the round's op times by CAL_REF_S over the task's median
time, so every time is reported at one reference speed.  The harness
process runs no program code and each round's op process has exited
when the samples are taken, so nothing the program leaves behind can
slow a sample.  Standard library only.

The task has a compute part and a memory part because the ops have both:
pure-Python bisection and Horner loops, and numpy scans over arrays larger
than the caches.  Over 9-second windows the sum of the two parts tracked
the drift of each workload's op at least as well as either part alone.
"""

from __future__ import annotations

import statistics
import time

#: Time of one calibration task at the reference speed, the speed at which
#: its compute part takes 7.5 ms: the memory part took 0.665 times as long
#: as the compute part (median of 60 pairs on a 2-CPU x86-64 machine with
#: Python 3.11.7).
CAL_REF_S = 0.0075 * 1.665
#: Calibration tasks timed on each side of a round or a setup launch.
CAL_SAMPLES = 3

_BUFFER = bytearray(24 << 20)


def calibration_task() -> float:
    """Scalar complex arithmetic, as in Horner evaluation, a list sort, and two copies of 24 MiB."""
    acc = 0j
    z = complex(0.3, 0.4)
    for k in range(25000):
        acc = acc * z + k
    data = [((k * 7919) % 10007) * 0.5 for k in range(32000)]
    data.sort()
    copied = bytes(_BUFFER).replace(b"\x01", b"\x02")
    return abs(acc) + data[len(data) // 2] + len(copied)


def samples() -> list[float]:
    """Durations of CAL_SAMPLES calibration tasks timed back to back."""
    durations = []
    for _ in range(CAL_SAMPLES):
        start = time.perf_counter()
        calibration_task()
        durations.append(time.perf_counter() - start)
    return durations


def scale(durations: list[float]) -> float:
    """Factor that turns a time measured at these durations' speed into one at the reference speed."""
    return CAL_REF_S / statistics.median(durations)

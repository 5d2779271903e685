"""Host-speed scaling of the benchmark's timings.

The hosts this benchmark runs on are shared: over a few minutes the
same run can take anywhere from 1x to 1.7x its best time, and the
speed also changes within a second.  Every timing the untraced run
reports is therefore measured in *segments* of about SEGMENT_S seconds,
each bracketed by a short fixed calibration loop, and multiplied by
``REF_S / c``, where ``c`` is the mean of the segment's two brackets.
A reported millisecond is a millisecond on a host where the calibration
loop takes ``REF_S``; the run's record keeps the raw figures and the
scale factors too.

The calibration loop has two halves of about equal time: interpreter
work (integer arithmetic and dict stores) and memory work (copying
4 KiB pages out of an 8 MiB buffer and unpacking fields from them, as a
buffer miss does).  Shared hosts slow both kinds of work, not always
alike; the workloads do both.  The loop never enters the engine, so a
change to the engine moves the scaled figures exactly as it moves the
raw ones.  On a 2-CPU VM (Python 3.11), the spread (IQR / median) of
12-second medians of quarter-second slices was 0.42 raw and 0.07 scaled
over five minutes of ``ingest`` (interpreter half alone), and 0.15 raw
and 0.044 scaled over four minutes of ``lookup-spill``.  Time spent
calibrating is counted nowhere.
"""

from __future__ import annotations

import contextlib
import random
import statistics
import struct
import time

#: Calibration time that defines the reference speed.
REF_S = 0.002
#: Length of one measured segment, in seconds of raw time.
SEGMENT_S = 0.25
#: Calibration loops per bracket; the bracket is their median.
CAL_REPEATS = 5


_PAGE = 4096
_BUFFER = bytearray(random.Random(1).randbytes(8 << 20))
_OFFSETS = [random.Random(2).randrange(len(_BUFFER) - _PAGE) & ~63 for _ in range(256)]
_FIELDS = struct.Struct("<QQQQ")


def _calibration_unit(n: int = 5000) -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(n):
        acc += i * i % 7
        table[i & 1023] = acc
    for offset in _OFFSETS:
        page = bytes(_BUFFER[offset:offset + _PAGE])
        for field in range(0, _PAGE, 512):
            acc += _FIELDS.unpack_from(page, field)[1] & 7
    return acc


def calibrate() -> float:
    """Seconds the calibration loop takes right now."""
    times = []
    perf = time.perf_counter
    for _ in range(CAL_REPEATS):
        t0 = perf()
        _calibration_unit()
        times.append(perf() - t0)
    return statistics.median(times)


class Clock:
    """Elapsed time in segments, each scaled to the reference speed.

    ``tick()`` ends the current segment once it is SEGMENT_S long and
    returns its scale factor (None while it runs); ``close()`` ends it
    unconditionally.  ``exclude()`` takes time (oracle checks) out of
    the current segment.  Calibration runs inside ``pause()`` (a traced
    run's pause, so it stays out of the trace).
    """

    def __init__(self, pause=contextlib.nullcontext) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.scales: list[float] = []
        self._pause = pause
        self._cal = self._calibrate()
        self._excluded = 0.0
        self._t0 = time.perf_counter()

    def tick(self) -> float | None:
        if time.perf_counter() - self._t0 < SEGMENT_S:
            return None
        return self.close()

    def close(self) -> float:
        raw = time.perf_counter() - self._t0 - self._excluded
        cal = self._calibrate()
        scale = REF_S / ((self._cal + cal) / 2)
        self._cal = cal
        self.raw_s += raw
        self.scaled_s += raw * scale
        self.scales.append(scale)
        self._excluded = 0.0
        self._t0 = time.perf_counter()
        return scale

    def exclude(self, seconds: float) -> None:
        self._excluded += seconds

    def _calibrate(self) -> float:
        with self._pause():
            return calibrate()

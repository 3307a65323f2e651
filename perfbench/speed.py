"""Machine-speed probe, used to rescale timings to a nominal machine speed.

On a shared 2-vCPU VM the speed of all code changes together, with no
change in the program: it toggles between two levels about 1.7x apart on a
scale of 50-100 ms, and the share of time at the faster level drifts over
minutes.  Raw run medians then differ by up to 35% between runs.  Between
ops the benchmark times a fixed pure-Python loop of its own.  Each op's
wall time is multiplied by ``NOMINAL_REF_NS / ref``, where ``ref`` is the
mean probe within a second of that op; the mean (not the median) tracks
the share of time spent at each level.  The result is the op's time at
the speed where the loop takes ``NOMINAL_REF_NS``.  Raw wall times are
reported alongside.

The probe runs no coinqubit code, touches a few hundred bytes and does
integer arithmetic only.  Floating-point work is no good as a probe: on
this CPU a float loop runs 3.4x slower right after numpy's small complex
array ops (the wide vector registers are left in a state that penalises
the scalar SSE code CPython uses for floats), so it would track what the
package did rather than the machine.  The integer loop shows no such
effect, so a change to the package cannot move it.
"""

from __future__ import annotations

import bisect
import statistics
import time

# Reference-loop time on the machine the benchmark was written on, at its
# slower speed level: a 2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11.
NOMINAL_REF_NS = 170_000
PROBE_INTERVAL_S = 0.05
WINDOW_S = 1.0  # probes within this distance of an op set its speed


def _reference_loop() -> int:
    acc = 0
    table = {}
    for i in range(800):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 63] = acc
    return acc


def probe() -> int:
    """Fastest of three runs of the reference loop, in ns."""
    best = None
    for _ in range(3):
        start = time.perf_counter_ns()
        _reference_loop()
        elapsed = time.perf_counter_ns() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def scale_now(seconds: float = 0.3) -> float:
    """Factor that rescales a time measured just now to nominal speed.

    Probes back to back for ``seconds``, long enough to span a few speed
    toggles.
    """
    refs = []
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        refs.append(probe())
    return NOMINAL_REF_NS / statistics.fmean(refs)


class SpeedTrack:
    """Probes taken between ops, at most every PROBE_INTERVAL_S."""

    def __init__(self):
        self.times: list[float] = []
        self.refs: list[int] = []
        self.take()

    def take(self) -> None:
        self.refs.append(probe())
        self.times.append(time.monotonic())

    def maybe_take(self) -> None:
        if time.monotonic() - self.times[-1] >= PROBE_INTERVAL_S:
            self.take()

    def scales(self, op_times: list[float]) -> list[float]:
        """Per-op rescaling factors from the probes around each op's end time."""
        result = []
        cache = {}
        for t in op_times:
            lo = bisect.bisect_left(self.times, t - WINDOW_S)
            hi = bisect.bisect_right(self.times, t + WINDOW_S)
            if lo == hi:  # no probe that close: take the nearest one
                lo = min(
                    (j for j in (lo - 1, lo) if 0 <= j < len(self.times)),
                    key=lambda j: abs(self.times[j] - t),
                )
                hi = lo + 1
            key = (lo, hi)
            if key not in cache:
                cache[key] = NOMINAL_REF_NS / statistics.fmean(self.refs[lo:hi])
            result.append(cache[key])
        return result

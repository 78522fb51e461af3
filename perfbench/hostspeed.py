"""Scaling of measured times to a reference host speed.

On a shared host the speed of a core drifts, over seconds as well as over
minutes.  On a shared 2-vCPU VM the same falsify calls took twice as long in
one run as in another, in CPU time as much as in wall time.  The drift moves
every Python loop alike, so the benchmark runs a fixed loop, `calibrate()`,
between the events it times and scales each event by the calibrations
around it (see `HostClock`):

    scaled = seconds * REFERENCE_S / mean(calibrations around the event)

`REFERENCE_S` is a constant, the median time of `calibrate()` on that VM, so
scaled times read as seconds on a host where the loop takes that long.  The
loop uses nothing from roughmap: a change to roughmap moves the scaled times
as it moves the raw ones.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.07
CALIBRATE_EVERY_S = 0.3  # at most this long between calibrations, unless one event lasts longer


def _growth_strings(n: int):
    """Restricted growth strings of length n, as lists reused between items."""
    a = [0] * n

    def rec(i: int, top: int):
        if i == n:
            yield a
            return
        for v in range(top + 2):
            a[i] = v
            yield from rec(i + 1, max(top, v))

    yield from rec(1, 0)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of the kind the engine runs:
    generators, small integer and bitmask arithmetic, tuples and dicts."""
    t0 = perf_counter()
    blocks: dict = {}
    for p in _growth_strings(9):
        mask = 0
        for i, v in enumerate(p):
            if v == p[-1]:
                mask |= 1 << i
        key = tuple(p[-3:])
        blocks[key] = blocks.get(key, 0) ^ mask
    return perf_counter() - t0


class HostClock:
    """Events timed by the caller, each scaled by the calibrations around it.

    An event lasting L seconds is scaled by the mean of the last calibration
    before it, the first one after it, and every one from L/2 before it to
    L/2 after it: a short event is matched with the host's speed right next
    to it, a long one with its speed over a stretch as long as itself.
    Times are in seconds from the clock's creation."""

    def __init__(self):
        self.origin = perf_counter()
        self.calibrations: list[tuple[float, float]] = []  # start, seconds
        self.events: list[tuple[str, str, float, float]] = []  # kind, name, start, seconds
        self.calibrate()

    def record(self, kind: str, name: str, start: float, seconds: float) -> None:
        """Record an event that began at perf_counter() value `start`."""
        self.events.append((kind, name, start - self.origin, seconds))
        if perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.calibrate()

    def calibrate(self) -> None:
        self.calibrations.append((perf_counter() - self.origin, calibrate()))
        self._last = perf_counter()

    def speed(self, start: float, seconds: float) -> float:
        end = start + seconds
        before = [c for c in self.calibrations if c[0] < start]
        after = [c for c in self.calibrations if c[0] >= end]
        near = {before[-1], after[0]}
        near.update(c for c in self.calibrations if start - seconds / 2 <= c[0] <= end + seconds / 2 - c[1])
        return sum(c[1] for c in near) / len(near)

    def scaled(self, kind: str) -> dict[str, list[float]]:
        """Scaled seconds of each event of this kind, by event name."""
        if self.events and self.calibrations[-1][0] < sum(self.events[-1][2:]):
            self.calibrate()  # the last events need a calibration after them
        out: dict[str, list[float]] = {}
        for k, name, start, seconds in self.events:
            if k == kind:
                out.setdefault(name, []).append(seconds * REFERENCE_S / self.speed(start, seconds))
        return out

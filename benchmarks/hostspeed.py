"""Host-speed probes: a fixed computation timed around and inside operations.

The benchmark runs on a few cores of a shared host, where the speed of a
fixed piece of Python swings by up to 1.9x, in spells of seconds to
minutes, because of other tenants.  A run's raw wall times move with those
spells, so two runs of the same code can differ by more than any useful
regression bound.

So every timed interval is sampled by probes: `probe()` times a fixed
reference computation just before and just after it and, because an
operation of a few seconds goes through several spells, every `SAMPLE_S`
inside it, from a SIGALRM handler whose own time is taken out of the
interval.  The interval's wall time is then given in seconds at the
nominal host speed, the speed at which the reference takes `NOMINAL_S`:

    scaled = wall * NOMINAL_S / mean(probes)

The mean, because an interval's time grows with the mean slowness of the
host over it, and probes inside it are taken at even steps of wall time.

The reference does what the package spends most of its time on,
Python-level loops around small numpy calls, but never imports or calls
bvlsc, so a change to the package cannot move it.  (A blend with numpy on
mesh-sized arrays tracked the half-ball solves a little better but made
the spread of `decompose_1d` runs four times wider.)  It runs with the garbage collector off, so the
size of the package's heap does not move it either.  Raw wall times are
kept beside the scaled ones in every result file.
"""

import gc
import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.002  # about the reference's time on the host it was tuned on
REPEATS = 5
SAMPLE_S = 0.1  # one probe of about 2 ms per 100 ms inside an interval

_rng = np.random.default_rng(0)
_ROWS = _rng.random((40, 3))
_VEC = _rng.random(400)


def _reference():
    s = 0.0
    for i in range(150):
        x = _ROWS[i % 40] * 2.0 + 1.0
        s += float(np.linalg.norm(x)) + float(np.sum(_VEC[:200] * _VEC[200:]))
        s += len({k: k * 2 for k in range(8)})
    return s


def probe(repeats=REPEATS):
    """Median wall time of the reference computation, in seconds."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            _reference()
            times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


def scale(wall_s, probes):
    """Wall time of an interval, in seconds at the nominal host speed."""
    return wall_s * NOMINAL_S / statistics.fmean(probes)


class Stopwatch:
    """Times intervals one after another and scales each to the nominal host
    speed.  The probe after one interval is the probe before the next.
    With `sample=True` (main thread only), probes are also taken inside each
    interval every SAMPLE_S; without it, only before and after, so that
    nothing runs inside the interval (traced runs, where a probe would sit
    inside the spans)."""

    def __init__(self, sample=True):
        self.sample = sample
        self.last = probe()
        self.probes = []
        self.paused = 0.0
        self.in_probe = False

    def _on_alarm(self, signum, frame):
        if self.in_probe:  # an alarm that came during a probe is dropped
            return
        self.in_probe = True
        t0 = time.perf_counter()
        self.probes.append(probe(repeats=1))
        self.paused += time.perf_counter() - t0
        self.in_probe = False

    def start(self):
        self.probes = [self.last]
        self.paused = 0.0
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        self.t0 = time.perf_counter()

    def stop(self):
        """End the interval; returns its wall time and scaled time."""
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        wall = time.perf_counter() - self.t0 - self.paused
        self.last = probe()
        self.probes.append(self.last)
        return {"wall_s": wall, "s": scale(wall, self.probes), "probes": len(self.probes)}

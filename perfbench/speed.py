"""Pass timing rescaled to a fixed CPU speed.

The benchmark runs on a few cores of a shared host whose speed swings by
up to 1.7x, for seconds or minutes at a time: a fixed pure-Python loop
takes anywhere from 6.4 to 11 ms within three minutes, and the two vCPUs
do not swing together.  Wall time alone then measures the neighbours more
than the program.  So a ``Clock`` times each operation (a lap) of a pass,
and every ``SAMPLE_EVERY_S`` a timer signal runs a short fixed probe that
calls nothing of ``majorityrank``, on the same thread, twice: the first
run refills the caches the program has just used and the second is timed,
so the probe's time depends on the host and not on the program's memory
footprint.  A lap's wall time, less the probes run inside it, is rescaled
by ``REFERENCE_S`` over the median probe time seen during the lap, which
gives the lap's seconds at the speed at which the probe takes
``REFERENCE_S``.  A change to the program moves the laps and leaves the
probe alone.

Python runs a signal handler between bytecodes, so no probe lands inside
a long call into native code; it runs when the call returns.  A lap spent
mostly in such calls (the m = 1000 matrix powers) is therefore probed
again right after it ends, outside its time.
"""

from __future__ import annotations

import signal
import time
from math import gcd

import numpy as np

# The probe's time on a 2-vCPU Intel Xeon host in one of its fast spells;
# it only sets the scale in which rescaled seconds are given.
REFERENCE_S = 0.00027
SAMPLE_EVERY_S = 0.05
# Larger than a core's private caches, and below the 4 MiB at which numpy
# asks for transparent huge pages, so that its resident size is exact.
BLOCK_BYTES = 3 << 20
MIN_SAMPLES = 9  # probes a lap's speed is taken from, at least
CAPACITY = 1 << 16  # samples kept in the ring: 54 minutes of them


class Probe:
    """About 0.3 ms of the kinds of work the program does, on buffers made once.

    Exact rational sums (as plain integers), a dict loop and a small matmul
    run in cache and slow down when a neighbour takes the core; the sum over
    ``block``, which is larger than the private caches, slows down when a
    neighbour takes the shared cache or memory bandwidth.  The program is
    slowed by both.  A run makes no object the garbage collector tracks and
    allocates nothing on the C heap, so that a probe landing at a random
    moment moves neither the program's collections nor its peak memory.
    """

    def __init__(self) -> None:
        self.block = np.ones(BLOCK_BYTES // 8)
        self.square = np.arange(1024.0).reshape(32, 32)
        self.product = np.empty_like(self.square)
        self.counts = dict.fromkeys(range(97), 0)

    def run(self) -> float:
        num, den = 0, 1
        for i in range(1, 40):
            b = i * i + 1
            num, den = num * b + i * den, den * b
            g = gcd(num, den)
            num, den = num // g, den // g
        counts = self.counts
        for key in counts:
            counts[key] = 0
        for i in range(1500):
            counts[i % 97] += i
        np.matmul(self.square, self.square, out=self.product)
        return float(self.product.sum()) + float(self.block.sum()) + num % 7 + counts[0]


class Clock:
    """Wall and rescaled seconds of each lap of a pass.

    Use it as a context manager: the timer signal that runs the probes is
    armed on entry and disarmed, with the previous handler restored, on exit.
    Probe times go to a ring allocated once, so that the timer never makes
    the process allocate at a moment the program does not choose.
    """

    def __init__(self) -> None:
        self._probe = Probe()
        self._timed = [0.0] * CAPACITY  # seconds of each timed probe run
        self._spent = [0.0] * CAPACITY  # seconds of each sample, both runs
        self.samples = 0
        self.wall: dict = {}
        self.scaled: dict = {}
        self._first = 0
        self._mark = time.perf_counter()
        self._previous = None

    def __enter__(self) -> "Clock":
        for _ in range(MIN_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def record(self, timed: float, spent: float) -> None:
        """Keep one sample: the timed probe run and the whole sample's seconds."""
        slot = self.samples % CAPACITY
        self._timed[slot], self._spent[slot] = timed, spent
        self.samples += 1

    def _sample(self) -> None:
        began = time.perf_counter()
        self._probe.run()
        timed = time.perf_counter()
        self._probe.run()
        end = time.perf_counter()
        self.record(end - timed, end - began)

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def _range(self, ring: list[float], first: int, last: int) -> list[float]:
        return [ring[i % CAPACITY] for i in range(first, last)]

    def start(self) -> None:
        """Begin a pass: forget the last one's laps and restart the lap timer."""
        self.wall, self.scaled = {}, {}
        self._first = self.samples
        self._mark = time.perf_counter()

    def lap(self, label) -> None:
        """End the lap named ``label`` and start the next."""
        now = time.perf_counter()
        first, last = self._first, self.samples
        speed = self._range(self._timed, first, last)
        seconds = now - self._mark - sum(self._range(self._spent, first, last))
        if len(speed) < MIN_SAMPLES:
            if seconds >= MIN_SAMPLES * SAMPLE_EVERY_S:
                # native code held the timer off for most of the lap: probe
                # right after it rather than rely on probes from before it
                signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
                try:
                    for _ in range(MIN_SAMPLES - len(speed)):
                        self._sample()
                finally:
                    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
                speed += self._range(self._timed, last, self.samples)
            else:
                speed = self._range(self._timed, max(0, self.samples - MIN_SAMPLES), self.samples)
        self.wall[label] = seconds
        self.scaled[label] = seconds * REFERENCE_S / float(np.median(speed))
        self._first = self.samples
        self._mark = time.perf_counter()

    def totals(self) -> tuple[float, float]:
        """The pass so far: its wall seconds (less the probes) and rescaled seconds."""
        return sum(self.wall.values()), sum(self.scaled.values())

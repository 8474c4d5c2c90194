"""Time a section of work as seconds of a reference host.

The benchmark runs on a few cores of a shared host.  The speed that host gives
one process swings by a third or more, in phases that last from seconds to
minutes, and those phases moved the run-to-run spread of a plain wall-clock
throughput past its bound.  A fixed probe of about 3.5 ms slows down with the
host in the same phases.  ``HostClock`` runs it once as each timed section
starts and again every 0.2 s inside it from a SIGALRM handler.  It takes the
probes' own time out of the section's wall time and scales the rest by
``REF_PROBE_S`` / (mean probe time in the section).  A section that takes
2.0 s while the probe takes 4.2 ms counts 2.0 * 3.5 / 4.2 = 1.67 reference
seconds.  The probe is the benchmark's own code, so a change to the program
moves the reference time by the same factor as the wall time.

The probe mixes the three kinds of work the program does: an interpreted loop,
small int64 and float64 array operations as in ``mpc`` and the readout, and
single-qubit tensordots on a 12-qubit state as in ``qsim``.
"""

from __future__ import annotations

import contextlib
import signal
import time
from dataclasses import dataclass

import numpy as np

# a fixed scale: a reference second is one in which the probe takes this long;
# about the probe's time alone on the machine of the README's figures
REF_PROBE_S = 0.0035
INTERVAL_S = 0.2


@dataclass
class Section:
    wall_s: float = 0.0  # wall time, probes included
    work_s: float = 0.0  # wall time without the probes that ran inside it
    speed: float = 0.0  # REF_PROBE_S / mean probe time over the section
    ref_s: float = 0.0  # work_s * speed
    probes: int = 0  # probes taken over the section, the first just before it


class HostClock:
    """Samples host speed while a section of work runs; use as a context manager."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        rng = np.random.default_rng(0)
        self._ints = rng.integers(0, 2**40, size=(2, 64), dtype=np.int64)
        self._mat = rng.standard_normal((64, 64))
        self._state = rng.standard_normal((2,) * 12) + 1j * rng.standard_normal((2,) * 12)
        self._gate = np.array([[0.6, 0.8], [-0.8, 0.6]], dtype=complex)
        self._log = []  # (start, duration) of each probe since the current section began
        self._old_handler = None

    def probe(self) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += (i * 7) % 13
        a, b = self._ints
        v = self._mat[0]
        for _ in range(150):
            a = (a * 3 + b) & 0xFFFFFFFFFF
            v = self._mat @ v
            v = v / np.abs(v).max()
        s = self._state
        for i in range(24):
            s = np.moveaxis(np.tensordot(self._gate, s, axes=([1], [i % 12])), 0, i % 12)
        self._log.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> HostClock:
        self._old_handler = signal.signal(signal.SIGALRM, lambda *_: self.probe())
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    @contextlib.contextmanager
    def section(self):
        """Time the body of a ``with``; the yielded Section is filled in on exit."""
        sec = Section()
        self._log = []
        self.probe()  # every section has at least one sample, however short
        t0 = time.perf_counter()
        try:
            yield sec
        finally:
            t1 = time.perf_counter()
            # a probe that started before t1 also ended before it: both run
            # on this thread
            probes = [(s, d) for s, d in self._log if s < t1]
            sec.probes = len(probes)
            sec.wall_s = t1 - t0
            sec.work_s = sec.wall_s - sum(d for s, d in probes if s >= t0)
            sec.speed = REF_PROBE_S * len(probes) / sum(d for _, d in probes)
            sec.ref_s = sec.work_s * sec.speed

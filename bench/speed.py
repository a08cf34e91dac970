"""Machine-speed probe, run between the pieces of work the benchmark times.

The cores of the shared host the benchmark runs on change speed by tens of
percent over seconds and minutes, as other tenants' load comes and goes.
The CPU time of the same work changes with them, so CPU seconds measured
at different times are not comparable.  The probe times bursts of a fixed
unit of work on the same core just before and just after each piece of
timed work, and scales that work's CPU time by ``REFERENCE_UNIT_S`` over
the mean unit time of the two bursts: the result is seconds at the
reference speed, the speed at which the unit takes ``REFERENCE_UNIT_S``.

The unit does the kinds of work the program does, in about equal shares:
triangular solves with a SuperLU factorization (as in ``bdmdarcy.solver``),
a pass over an array larger than a core's cache, and a loop of small numpy
calls (as in the per-edge loops).  It allocates nothing large, so its time
does not depend on how much memory the program has just freed, and it does
not call the program, so a change to the program does not change it.
"""

import time
from contextlib import contextmanager

# About the median CPU time of one unit on the machine the benchmark was written on
# (2 vCPUs of an x86_64 virtual machine, scipy 1.17.1, one thread).
REFERENCE_UNIT_S = 0.030
# After a piece of work the probe runs units for this share of its CPU
# time, and at least one unit.
SHARE = 0.1


def make_unit():
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = 90
    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    lu = spla.splu((sp.kron(sp.eye(n), line) + sp.kron(line, sp.eye(n))).tocsc())
    rhs = np.ones(n * n)
    stream = np.ones(2_000_000)  # 16 MB
    points = np.linspace(0.0, 1.0, 64)

    def unit():
        for _ in range(8):
            lu.solve(rhs)
        for _ in range(4):
            stream.sum()
        total = 0.0
        for i in range(12000):
            x = points[i & 63]
            total += float(np.sqrt(x * x + 1.0))
        return total

    return unit


class SpeedProbe:
    """Splits timed work into pieces, each between two bursts of the unit,
    and adds up each piece's CPU time and its time at the reference speed."""

    def __init__(self):
        self.unit = make_unit()
        self.last = None  # mean unit CPU time of the latest burst
        self.mark = 0.0  # process CPU time at the end of the latest burst
        self.cpu = self.seconds = 0.0  # totals since the last ``take``
        for _ in range(3):  # warm up
            self.burst()

    def burst(self, work_cpu=0.0):
        """Run units for SHARE of ``work_cpu`` seconds, at least one."""
        n = max(1, round(SHARE * work_cpu / REFERENCE_UNIT_S))
        c0 = time.process_time()
        for _ in range(n):
            self.unit()
        self.mark = time.process_time()
        self.last = (self.mark - c0) / n

    def start(self):
        """Leave the CPU time since the latest burst, and any piece not yet
        taken (of work that raised), out of the totals."""
        self.mark = time.process_time()
        self.cpu = self.seconds = 0.0

    def checkpoint(self, cpu=None):
        """End a piece of work: by default this process's CPU time since the
        latest burst, else ``cpu`` seconds spent elsewhere.  Runs a burst and
        adds the piece to the totals."""
        if cpu is None:
            cpu = time.process_time() - self.mark
        before = self.last
        self.burst(cpu)
        self.cpu += cpu
        self.seconds += cpu * 2.0 * REFERENCE_UNIT_S / (before + self.last)

    def take(self):
        """The totals, CPU seconds and seconds at the reference speed, since
        the last call."""
        totals = self.cpu, self.seconds
        self.cpu = self.seconds = 0.0
        return totals

    @contextmanager
    def splitting(self, sites):
        """End a piece before and after every call of each ``(owner, name)``
        in ``sites``, so that long calls are timed between bursts of their
        own."""
        originals = [(owner, name, getattr(owner, name)) for owner, name in sites]

        def split(fn):
            def call(*args, **kwargs):
                self.checkpoint()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.checkpoint()

            return call

        for owner, name, fn in originals:
            setattr(owner, name, split(fn))
        try:
            yield self
        finally:
            for owner, name, fn in originals:
                setattr(owner, name, fn)

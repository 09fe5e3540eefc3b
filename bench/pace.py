"""Machine pace: a fixed reference kernel timed alongside the workload.

The benchmark's host shares its cores with other tenants, and the same
item, repeated in one process, runs up to 40 % slower or faster from one
minute to the next.  A wall time read alone then says as much about the
neighbours as about stokeslib.  So after every item the benchmark runs
this kernel for a share of that item's time, and reports times scaled to
a nominal machine on which one kernel call takes ``NOMINAL_CALL_S``:

    time at nominal pace = wall time * NOMINAL_CALL_S / (kernel s per call)

The kernel is plain Python written here (rational elimination, set and
dict work, and 256-bit mpmath, as in stokeslib's hot paths) and calls
nothing in stokeslib, so a change to stokeslib moves the scaled times
as it moves the wall times, while a slow spell of the host slows
both the item and the kernel and cancels.  The raw wall figures are
reported too.
"""

from __future__ import annotations

import time
from fractions import Fraction

# fixed: about one kernel call run alone on the quiet 2-core x86_64 baseline VM.
# Between items it took 5.6-9.3 ms in the baseline runs, so paced times read
# about 1.5 times lower than wall times.
NOMINAL_CALL_S = 0.005
SHARE = 0.05  # kernel time after an item, as a share of the item's time


def kernel() -> int:
    """Fixed work of about 5 ms: exact elimination of a 12 x 12 rational
    matrix, a relation grouped through sets and dicts, then real
    arithmetic at 256 bits in plain mpmath (integer mantissas)."""
    import mpmath  # not at module level: a set-up probe times stokeslib's import, mpmath's included

    n = 12
    a = [[Fraction((i * 5 + j * 3) % 11 - 5, (i + j) % 4 + 1) for j in range(n)] for i in range(n)]
    rank = 0
    for c in range(n):
        p = next((r for r in range(rank, n) if a[r][c]), None)
        if p is None:
            continue
        a[rank], a[p] = a[p], a[rank]
        inv = 1 / a[rank][c]
        for r in range(rank + 1, n):
            f = a[r][c] * inv
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    rel = {(i, j) for i in range(100) for j in range(i, 80) if (i * j) % 3 == 0}
    groups: dict = {}
    for i, j in rel:
        groups.setdefault(i, set()).add(j)
    with mpmath.workprec(256):
        x, acc = mpmath.mpf(2) / 3, mpmath.mpf(0)
        for k in range(30):
            y = mpmath.atan2(x, 1 + x * x) + mpmath.cos(x * k)
            acc += y * y
            x = (x + mpmath.mpf(k) / 7) % 3
    return rank + len(groups) + int(acc)


class Pace:
    """Kernel seconds and calls accumulated over a run."""

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0

    def run(self, seconds: float) -> float:
        """Run the kernel for about ``seconds``, at least once; returns
        this sample's seconds per call."""
        end = time.perf_counter() + seconds
        spent, calls = 0.0, 0
        while True:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            spent += t1 - t0
            calls += 1
            if t1 >= end:
                break
        self.seconds += spent
        self.calls += calls
        return spent / calls

    def follow(self, item_seconds: float) -> float:
        """Sample the pace right after an item, for a share of its time."""
        return self.run(SHARE * item_seconds)

    @classmethod
    def warmed(cls) -> "Pace":
        """A fresh Pace, after 0.05 s of uncounted kernel calls, so that the
        first counted call does not pay for mpmath's import and first use."""
        cls().run(0.05)
        return cls()

    @property
    def call_s(self) -> float:
        return self.seconds / self.calls

    def scale(self) -> float:
        """Factor from wall time to time at the nominal pace."""
        return NOMINAL_CALL_S / self.call_s

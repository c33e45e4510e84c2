"""A speed probe: how fast this machine runs pure Python at this moment.

On a shared virtual machine, load from other tenants slows every process
on it by up to about 2x, for seconds to minutes at a time; the clock reads a
fixed frequency and steal time stays near zero, so the slowdown is shared
hardware, not preemption, and nothing inside one run can wait it out.  The
benchmark therefore runs this probe around and between its timed
operations and rescales each measured wall and CPU time by REFERENCE_S /
(mean probe time over the same interval): the result is the time the work
would have taken at the reference speed.  A change to the program does not change the
probe, so a real speed-up or slow-down passes through unscaled.
"""

from __future__ import annotations

import time
from fractions import Fraction

# About the fastest probe time seen on the reference machine (2-core x86-64
# VM, Python 3.11.7): scaled figures are seconds at that speed.
REFERENCE_S = 0.001


def _work():
    # the mix the program spends its time on: small tuples, dicts, ints, Fractions
    acc = {}
    x = Fraction(0)
    for i in range(600):
        t = tuple((i * k) % 7 for k in range(6))
        acc[t] = acc.get(t, 0) + i * i
        if i % 10 == 0:
            x += Fraction(i, i % 9 + 1)
    return len(acc), x


def probe() -> float:
    """CPU seconds the fixed probe work takes now.

    CPU time, not wall time: a probe that is preempted for a moment (as
    happens right after a child process exits) would read slow although
    the machine is not.
    """
    c0 = time.process_time()
    _work()
    return time.process_time() - c0

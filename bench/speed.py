"""Host speed, sampled inside the measured process while it works.

On a shared virtual machine the same run can take 40% longer from one
minute to the next while the process's CPU time still equals its wall
time, so neither clock tells a slower program from a slower host.  This
module times a fixed reference loop every ``INTERVAL_S`` of wall time, from
a SIGALRM handler that runs between the program's own bytecodes, and so
samples the host's speed over exactly the windows the benchmark measures.
A window's host time scaled by ``NOMINAL_S / mean sample time`` is the time
it would have taken on a host that runs the reference loop in
``NOMINAL_S``.  Sampling costs about 0.7% of the process's time, on every
commit alike.

Standard library only, so that it can be started before the imports that
the set-up time includes.
"""

from __future__ import annotations

import signal
import time
from array import array

INTERVAL_S = 0.02
NOMINAL_S = 100e-6

# (start, duration) of every sample, flat; one extend() per sample, which
# the handler cannot interrupt, keeps the pairs whole
samples = array("d")


def reference() -> None:
    """The fixed loop: float arithmetic and list updates, no allocation of
    containers, so that it never triggers the garbage collector."""
    slots = _SLOTS
    acc = 0.0
    for i in range(400):
        slots[i & 31] += 1
        acc += (i * 0.5) ** 0.5
    slots[0] = acc


_SLOTS = [0.0] * 32


def _sample(_signum, _frame) -> None:
    t = time.perf_counter()
    reference()
    samples.extend((t, time.perf_counter() - t))


def start() -> None:
    """Forget earlier samples and sample from now on.  Interval timers are
    not inherited across fork, so a forked worker calls this again."""
    clear()
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    """Stop sampling; needed before the interpreter exits, which restores
    SIGALRM's default action of ending the process."""
    signal.setitimer(signal.ITIMER_REAL, 0, 0)


def clear() -> None:
    del samples[:]


def take() -> tuple[list[float], list[float]]:
    """Starts and durations of the samples so far, which are then
    forgotten.  Copies, since a view of the array would stop the handler
    from appending to it; one that arrives meanwhile is kept for later."""
    n = len(samples)
    taken = samples[:n]
    del samples[:n]
    return taken[0::2].tolist(), taken[1::2].tolist()

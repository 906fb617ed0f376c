"""A fixed reference kernel that measures how fast the host is right now.

On a shared host, other tenants slow every process on it by up to 2x for
stretches of tens of seconds.  :func:`calibrate` runs the same loop of
interpreter dictionary work every time, so its duration tracks the
host's current speed and nothing else: it calls no code of the program
under test.  ``run.py`` runs it between rounds and scales each round's
timing by ``REFERENCE_SECONDS`` over the mean of the kernel times just
before and just after it: the timing at the host speed where the kernel
takes :data:`REFERENCE_SECONDS`.  A slower program moves the scaled
figure; a slower host moves the kernel and the round alike and cancels
out.  Of the kernels tried (NumPy array passes, interpreter object
updates, dictionary updates and mixes of them), dictionary updates
tracked the host best on every workload, the NumPy-heavy sweep included.
"""

from __future__ import annotations

import time

#: The kernel's duration on an unloaded 2-core x86-64 host (Python 3.11);
#: the speed every scaled timing is expressed at.
REFERENCE_SECONDS = 0.006


def calibrate() -> float:
    """Run the kernel once; return its wall seconds."""
    began = time.perf_counter()
    buckets: dict = {}
    for step in range(60000):
        buckets[step % 97] = buckets.get(step % 97, 0) + step
    return time.perf_counter() - began

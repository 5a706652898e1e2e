"""Host-speed reference: scale timings to a nominal host speed.

On the shared 2-vCPU Xeon host (2.1 GHz) where this benchmark was written,
the same pure-Python loop runs up to 1.6x slower for seconds or minutes at a
time, while CPU pressure inside the machine stays near zero: the cause is
outside it.  Raw times then measure the neighbours as much as the program.  So
every timed item is bracketed by a short fixed loop, and its time is scaled
by ``NOMINAL_REF_MS / (mean of the two loop times)``: the time the item would
take on a host where the loop takes ``NOMINAL_REF_MS`` (about the median on
that host).  The info line of each run keeps the raw median item time and the
loop's median as well.
"""

import time

REF_ITERATIONS = 20_000
NOMINAL_REF_MS = 1.5


def reference_ms() -> float:
    """Wall time of a fixed pure-Python loop, in ms."""
    start = time.perf_counter()
    acc = 0
    for k in range(REF_ITERATIONS):
        acc += k * k
    return (time.perf_counter() - start) * 1000


def scaled(ms: float, ref_before: float, ref_after: float) -> float:
    return ms * 2 * NOMINAL_REF_MS / (ref_before + ref_after)

"""Fixed reference workloads that time the host, not the package.

The machines this benchmark runs on are shared.  The same operation takes up
to 1.8x more CPU time for seconds to minutes at a time, which is more than
any bound a timing could be given.  The benchmark therefore runs a reference
between operations and divides each operation's CPU time by the reference's
CPU time around it.  The references import nothing from the package.

Work slows down differently on a busy host depending on what it waits for,
so there are two kinds, and each workload names the one that tracks it:

* "interpreter": a pure-Python product of dict-keyed bivariate series and
  element-wise NumPy sweeps over 512-point arrays, like the series and
  scalar map code that conj-orders and certify spend their time in;
* "memory": first writes to freshly mapped memory, one page fault per
  page.  A compare operation takes about 570,000 page faults and spends a
  quarter of its CPU time in the kernel, and its time follows this kind.

One call of either kind takes about 25 ms of CPU on an idle core of a 2 GHz
Xeon.
"""

from __future__ import annotations

import mmap
import time

import numpy as np

SERIES_REPS = 16
ARRAY_REPS = 1200
FRESH_MAPS = 32
FRESH_MAP_BYTES = 1 << 20  # small, so the maps add little to peak RSS
PAGE_DOUBLES = mmap.PAGESIZE // 8
# About the CPU seconds of one call of either kind on an idle core of a
# 2 GHz Xeon.  Multiplying a figure in reference units by it gives seconds
# at that speed.
NOMINAL_S = 0.025
# One more call per this many CPU seconds of the work being bracketed, so
# that long operations are compared with a longer sample of the host.
CALL_EVERY_S = 0.5
_ORDER = 12
_TERMS = {(i, j): 1.0 / (1 + i + j) for i in range(_ORDER) for j in range(_ORDER - i)}
_XS = np.linspace(0.0, 1.0, 512)


def _series_product() -> dict[tuple[int, int], float]:
    out: dict[tuple[int, int], float] = {}
    for (i, j), a in _TERMS.items():
        for (k, l), b in _TERMS.items():
            if i + j + k + l <= _ORDER:
                key = (i + k, j + l)
                out[key] = out.get(key, 0.0) + a * b
    return out


def _array_sweeps() -> float:
    total = 0.0
    for _ in range(ARRAY_REPS):
        total += float((_XS * _XS + 0.5 * _XS - np.sin(_XS)).sum())
    return total


def _fresh_pages() -> None:
    for _ in range(FRESH_MAPS):
        with mmap.mmap(-1, FRESH_MAP_BYTES) as region:
            pages = np.frombuffer(region, dtype=np.float64)
            pages[::PAGE_DOUBLES] = 1.0  # one write per page, so every page faults in
            del pages  # release the buffer so the map can close


def _interpreter() -> None:
    for _ in range(SERIES_REPS):
        _series_product()
    _array_sweeps()


KINDS = {"interpreter": _interpreter, "memory": _fresh_pages}


def reference_seconds(kind: str, calls: int = 1) -> float:
    """CPU seconds of one call of the `kind` reference, averaged over `calls`."""
    work = KINDS[kind]
    t0 = time.process_time()
    for _ in range(calls):
        work()
    return (time.process_time() - t0) / calls


def reference_after(kind: str, secs: float) -> float:
    """Reference CPU seconds per call, sampled for as long as `secs` warrants."""
    return reference_seconds(kind, 1 + int(secs / CALL_EVERY_S))

"""Functional model of the Intel PMEM persistence domain.

This package answers the question the paper's failure-safety argument rests
on: *at any instant, which bytes would survive a power failure?*

The model (paper §2.2, Figure 1) has three tiers:

1. **Caches** — a store makes a cache block dirty; dirty data is volatile.
2. **Memory-controller write-pending queue (WPQ)** — ``clwb``/``clflushopt``
   move a dirty block into the WPQ; still volatile (the paper explicitly does
   *not* assume the controller is in the persistence domain, which is why
   ``pcommit`` is retained despite its deprecation).
3. **NVMM** — ``pcommit`` drains the WPQ; only now is the data durable.

:class:`~repro.pmem.domain.PersistenceDomain` tracks the durable image as a
copy-on-write overlay over the functional heap; crashing is simply "replace
the heap contents with the durable image".  :class:`~repro.pmem.crash.CrashTester`
drives workloads to arbitrary persist points, crashes, runs recovery, and
checks invariants.
"""

from repro.pmem.domain import PersistenceDomain
from repro.pmem.crash import CrashTester, CrashOutcome

__all__ = [
    "PersistenceDomain",
    "CrashTester",
    "CrashOutcome",
]

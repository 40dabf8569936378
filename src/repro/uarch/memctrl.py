"""Memory controller with a write-pending queue (WPQ) and NVMM timing.

The WPQ is the buffer Figure 1 of the paper shows between the LLC and the
NVMM: dirty blocks arrive from cache writebacks and ``clwb``/``clflushopt``,
and drain to the NVMM at write-bandwidth pace.  ``pcommit`` forces the drain
of everything enqueued before it and is acknowledged to the core once the
queue is empty — that acknowledgement round trip is what the paper's
``sfence-pcommit-sfence`` sequences wait on, for "100s to 1000s of cycles".

Timing model: the NVMM write engine services one block every
``nvmm_write_cycles / nvmm_banks`` cycles (bank-level parallelism folded
into one effective service rate); the queue's drain clock is a busy-until
accumulator, which tolerates the slightly out-of-order event times a
trace-driven pipeline produces.
"""

from __future__ import annotations

from typing import List

from repro.uarch.config import MachineConfig


class MemoryController:
    """WPQ + NVMM write engine + pcommit tracking (one controller)."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self.service_cycles = max(1, config.nvmm_write_cycles // config.nvmm_banks)
        #: time at which the write engine finishes everything enqueued so far
        self.drain_free = 0
        #: per-entry completion times of writes still "in the queue"
        self._pending: List[int] = []
        # statistics
        self.writes = 0
        self.pcommits = 0
        self.max_wpq_occupancy = 0
        #: completion times of pcommits in flight (Figure 11 input)
        self._inflight_pcommits: List[int] = []
        self.max_inflight_pcommits = 0

    # ------------------------------------------------------------------
    def enqueue_writeback(self, block: int, now: int) -> int:
        """A dirty block arrives at time *now*; returns its NVMM-write
        completion time (when it stops being volatile)."""
        self.writes += 1
        # If the queue is idle, service begins immediately; otherwise the
        # write queues behind the in-flight ones.
        self.drain_free = max(self.drain_free, now) + self.service_cycles
        done = self.drain_free
        self._pending.append(done)
        self._trim(now)
        if len(self._pending) > self.max_wpq_occupancy:
            self.max_wpq_occupancy = len(self._pending)
        return done

    def _trim(self, now: int) -> None:
        """Drop queue entries whose write already finished."""
        if self._pending and self._pending[0] <= now:
            self._pending = [t for t in self._pending if t > now]

    def wpq_occupancy(self, now: int) -> int:
        self._trim(now)
        return len(self._pending)

    def wpq_sample(self, now: int) -> int:
        """Read-only occupancy probe: how many queued writes are still in
        flight at *now*.  Unlike :meth:`wpq_occupancy` this never trims
        ``_pending``, so observers (the tracer samples it at arbitrary,
        possibly out-of-order timestamps) cannot perturb
        ``max_wpq_occupancy`` bookkeeping."""
        return sum(1 for t in self._pending if t > now)

    # ------------------------------------------------------------------
    def pcommit(self, issue_time: int) -> int:
        """Issue a pcommit at *issue_time*; returns its completion time
        (queue drained + acknowledgement round trip back to the core)."""
        self.pcommits += 1
        drained = max(issue_time, self.drain_free)
        done = drained + self.config.mc_roundtrip
        # Figure 11: track concurrently outstanding pcommits.
        self._inflight_pcommits = [
            t for t in self._inflight_pcommits if t > issue_time
        ]
        self._inflight_pcommits.append(done)
        if len(self._inflight_pcommits) > self.max_inflight_pcommits:
            self.max_inflight_pcommits = len(self._inflight_pcommits)
        return done

    # ------------------------------------------------------------------
    def writeback_ack(self, enqueue_done: int) -> int:
        """Time the core hears a clwb's writeback acknowledgement."""
        return enqueue_done - self.service_cycles + self.config.mc_roundtrip

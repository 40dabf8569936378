"""Timing models: cache hierarchy, memory controller/NVMM, OOO pipeline.

The pipeline is a trace-driven sliding-window model of the paper's baseline
core (Table 2): 4-wide fetch/dispatch/retire, a 128-entry ROB, a 48-entry
fetch queue, in-order retirement, and the sfence retirement rules of the
PMEM persistency model.  It reproduces the first-order phenomenon the paper
studies — retirement stalling at ``sfence-pcommit-sfence`` sequences while
memory-controller write-pending queues drain — and, with speculation enabled
(:mod:`repro.core`), their removal.
"""

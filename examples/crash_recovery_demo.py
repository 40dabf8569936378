#!/usr/bin/env python
"""Crash-recovery demo: why the fences cannot simply be dropped.

Runs a persistent hash map under the full write-ahead-logging protocol,
injects power failures at dozens of points inside an operation, and shows
that recovery always restores a consistent table.  Then repeats the
experiment without ordering fences (the ``Log+P`` variant) and shows a
*completed* insert silently evaporating across a crash.

Run:  python examples/crash_recovery_demo.py
"""

from repro.pmem import CrashTester
from repro.txn.modes import PersistMode
from repro.workloads.base import Workbench
from repro.workloads.hashmap import HashMapWorkload


def failure_safe_sweep() -> None:
    print("=== Log+P+Sf: the failure-safe protocol ===")
    bench = Workbench(mode=PersistMode.LOG_P_SF, track_persistence=True, seed=7)
    hm = HashMapWorkload(bench, initial_capacity=256)
    hm.populate(120)

    keys = iter(range(100000))

    def one_op():
        hm.operation((next(keys) * 131) % hm._key_space)

    tester = CrashTester(
        bench.domain, one_op, hm.recover, hm.check_invariants, seed=3
    )
    outcomes = tester.sweep(max_points=40)
    crashed = sum(o.crashed for o in outcomes)
    print(f"injected {len(outcomes)} crash points ({crashed} mid-operation)")
    bad = [o for o in outcomes if not o.invariants_ok]
    if bad:
        for outcome in bad[:5]:
            print(f"  INCONSISTENT at point {outcome.crash_point}: {outcome.detail}")
    else:
        print("every crash recovered to a consistent table matching the model")


def unsafe_counterexample() -> None:
    print("\n=== Log+P: same code without sfences ===")
    bench = Workbench(mode=PersistMode.LOG_P, track_persistence=True, seed=7)
    hm = HashMapWorkload(bench, initial_capacity=256)
    hm.populate(120)

    key = 4242 % hm._key_space
    before = key in hm.items()
    hm.operation(key)  # completes normally from the program's viewpoint
    print(f"operation on key {key} returned (inserted={not before})")

    bench.domain.crash()
    hm.recover()
    after = key in hm.items()
    print(f"after power failure + recovery the key is "
          f"{'present' if after else 'GONE'}")
    if not after and not before:
        print("-> the committed insert was lost: without fences nothing "
              "guarantees the WPQ drained before the program moved on")


def main() -> None:
    failure_safe_sweep()
    unsafe_counterexample()


if __name__ == "__main__":
    main()

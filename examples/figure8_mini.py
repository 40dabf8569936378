#!/usr/bin/env python
"""Regenerate a compact Figure 8 (and the headline claim) from the harness.

The full evaluation lives under ``benchmarks/``; this example runs the
same machinery on three benchmarks so it finishes in a few seconds.

Run:  python examples/figure8_mini.py
"""

from repro.harness.figures import (
    GEOMEAN,
    fig8_overheads,
    headline_claim,
    render_bar_table,
)

BENCHMARKS = ["LL", "AT", "BT"]


def main() -> None:
    data = fig8_overheads(BENCHMARKS)
    print(render_bar_table(
        "Figure 8 (mini): execution-time overhead vs baseline",
        data,
        columns=BENCHMARKS + [GEOMEAN],
    ))
    numbers = headline_claim(BENCHMARKS)
    print(
        "\nPersist-barrier overhead over Log+P: "
        f"{numbers['fence_overhead_vs_logp']:+.1%}"
        f"   with SP: {numbers['sp_overhead_vs_logp']:+.1%}"
        "   (paper, all 7 benchmarks: +20.3% -> +3.6%)"
    )


if __name__ == "__main__":
    main()

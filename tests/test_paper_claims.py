"""The paper's collective-network claims, gated at the paper's scale.

One row per claim of Figs 6-9 (section VI), each with an explicit band.
Every figure runs at its default size — Fig 6 on 8x16x16 (8192 ranks),
Fig 9 on 1024 to 8192 ranks — which tier-1 can afford because
collective-network points fold to a 2-node machine
(:func:`repro.bench.parallel.run_point`).  Every band holds on the
committed ``benchmarks/results/fig6.txt`` ... ``fig9.txt`` numbers, shown
per row; EXPERIMENTS.md sets each claim beside the paper's figure.
"""

import functools
import re

import pytest

from repro.bench.experiments import (
    fig6_tree_latency,
    fig7_tree_bandwidth,
    fig8_syscall_caching,
    fig9_scaling,
)
from repro.util.units import KIB

FIGURES = {
    "fig6": fig6_tree_latency,
    "fig7": fig7_tree_bandwidth,
    "fig8": fig8_syscall_caching,
    "fig9": fig9_scaling,
}


@functools.lru_cache(maxsize=None)
def _figure(name):
    return FIGURES[name]()


def _fig7_order_violations(result):
    """Sizes where Shaddr loses to a DMA variant or exceeds SMP."""
    shaddr, fifo, dput, smp = (s.values for s in result.series)
    return sum(
        not (s > f and s > d and s <= m)
        for s, f, d, m in zip(shaddr, fifo, dput, smp)
    )


def _fig8_gap_at_large(result):
    """Worst caching gain minus one over the sizes >= 512 KB."""
    caching, nocaching = (s.values for s in result.series)
    return max(
        c / n - 1.0
        for x, c, n in zip(result.x_values, caching, nocaching)
        if x >= 512 * KIB
    )


#: (figure, claim, value of the regenerated figure, band (lo, hi) with
#: None for an open end); the comment gives the committed value
CLAIMS = [
    ("fig6", "shmem latency 5.83 us",  # 5.851
     lambda r: r.metrics["shmem_latency_us_smallest"], (5.68, 5.98)),
    ("fig6", "shmem overhead over SMP +0.42 us",  # 0.402
     lambda r: r.metrics["shmem_overhead_us_vs_smp"], (0.32, 0.52)),
    ("fig6", "DMA FIFO overhead over shmem overhead",  # 3.6
     lambda r: r.metrics["dma_overhead_us_vs_smp"]
     / r.metrics["shmem_overhead_us_vs_smp"], (3.0, None)),
    ("fig7", "Shaddr over the better DMA variant at 128 KB",  # 1.431
     lambda r: r.metrics["shaddr_gain_vs_dma_at_128K"], (1.35, 1.55)),
    ("fig7", "sizes where Shaddr loses to DMA or exceeds SMP",  # 0
     _fig7_order_violations, (0, 0)),
    ("fig8", "worst nocaching loss",  # 1.497
     lambda r: r.metrics["max_caching_gain"], (1.3, None)),
    ("fig8", "caching gap at every size >= 512 KB",  # 0.056
     _fig8_gap_at_large, (None, 0.06)),
    ("fig9", "spread at 1 MB across 1024-8192 ranks",  # 0.0041
     lambda r: r.metrics["spread_at_largest"], (None, 0.005)),
]


@pytest.mark.parametrize(
    "figure, claim, value, band", CLAIMS,
    ids=[re.sub(r"[^\w.%]+", "-", f"{row[0]} {row[1]}") for row in CLAIMS],
)
def test_claim_holds(figure, claim, value, band):
    lo, hi = band
    measured = value(_figure(figure))
    assert lo is None or measured >= lo, (figure, claim, measured, band)
    assert hi is None or measured <= hi, (figure, claim, measured, band)

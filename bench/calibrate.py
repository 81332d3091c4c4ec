"""Fixed calibration loops that measure how fast this machine runs right now.

The benchmark's host is a share of a larger machine whose speed moves by up
to half within seconds, as other tenants come and go. A unit's wall time moves
with it, so medians of two runs of the same code can differ by more than any
bound a regression check could use. Each workload therefore names one of the
loops below, built from the same kind of numpy work as its unit but owned by
the benchmark, so that no change to the package changes them. A burst runs
before every unit and after the last, outside the timed region, and each
unit's time is multiplied by ``REFERENCE_S[kind]`` over the mean of the two
bursts around it: it reads as seconds on a machine where the burst takes
``REFERENCE_S[kind]``. The loops slow down with the host by about as much as
the units do (by up to 1.8 times), which the bursts before and after a single
unit track better than any one burst per run.

    python3 bench/calibrate.py      # median burst seconds of each loop here
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np


def small(rounds: int = 3000) -> None:
    """Many calls on 10x10 grids: seeded generators, neighbour means, rescales."""
    for i in range(rounds):
        h = np.random.default_rng(i).random((10, 10))
        for _ in range(i % 9):
            total = h.copy()
            count = np.ones_like(h)
            total[1:, :] += h[:-1, :]
            count[1:, :] += 1.0
            total[:, 1:] += h[:, :-1]
            count[:, 1:] += 1.0
            h = total / count
        lo, hi = float(h.min()), float(h.max())
        h = (h - lo) / (hi - lo)
        float(np.abs(np.diff(h, axis=0)).sum())


def table(tables: int = 10, rows: int = 1600, width: int = 2000) -> None:
    """0/1-knapsack-style value tables: copy, shift, add and max per row."""
    costs = np.random.default_rng(0).integers(1, 10, size=rows)
    for _ in range(tables):
        best = np.zeros((rows + 1, width + 1), dtype=np.int64)
        for j in range(rows - 1, -1, -1):
            skip = best[j + 1]
            row = skip.copy()
            c = int(costs[j])
            row[c:] = np.maximum(row[c:], skip[: width + 1 - c] + j)
            best[j] = row


KERNELS = {"small": small, "table": table}

#: Burst seconds of each loop on the reference machine (2 vCPU x86_64 Xeon,
#: Python 3.11, numpy 2.4) in its fast periods, so scaled times read as the
#: wall times of a quiet machine.
REFERENCE_S = {"small": 0.2, "table": 0.15}


def burst(kind: str) -> float:
    """Run one burst of the named loop and return its wall seconds."""
    start = perf_counter()
    KERNELS[kind]()
    return perf_counter() - start


if __name__ == "__main__":
    for kind in KERNELS:
        times = [burst(kind) for _ in range(15)]
        print(f"{kind:<6} median {statistics.median(times):.4f} s  min {min(times):.4f}  max {max(times):.4f}")

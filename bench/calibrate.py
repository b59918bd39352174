"""Fixed reference work: its CPU time shows how fast the host runs right now.

On a shared virtual machine the same program takes more or less CPU time
from one minute to the next, as other guests load the host's caches and
memory.  ``run.py`` starts this script between the timed operations of a
run.  The work never changes, so the median of its CPU times over a run
measures the host's speed during that run, the same way for every commit.
It does what the program's processes do: start an interpreter and import
numpy and scipy, run Python loops over strings and dicts, and run many
small numpy operations on sparse data.

    python3 bench/calibrate.py
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def work(rounds: int = 4) -> float:
    counts: dict[str, int] = {}
    for i in range(120_000 * rounds):
        key = "k" + str(i % 1_499)
        counts[key] = counts.get(key, 0) + 1
    rng = np.random.default_rng(0)
    matrix = sp.random(400, 300, density=0.02, format="csr", random_state=rng)
    total = 0.0
    for column in range(300 * rounds):
        rows = matrix.indices == column % 300
        left = np.cumsum(~rows) - 1
        total += float(left[-1]) + float(matrix.data[rows].sum())
    dense = rng.random((120, 120))
    for _ in range(10 * rounds):
        dense = dense @ dense
        dense /= dense.max()
    return total + float(dense.sum()) + sum(counts.values())


if __name__ == "__main__":
    print(f"{work():.6f}")

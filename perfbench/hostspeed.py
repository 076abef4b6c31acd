"""A fixed reference kernel, timed between operations, that tracks the
host's speed.

The reference machine shares its cores with other tenants, and its
speed moves in steps of up to 1.7x that last from seconds to minutes,
so the same work's wall time follows the host as much as the program.
The kernel mixes what the program spends its time on (interpreted
Python, small-array numpy calls, a dense LU factorization and a HiGHS
solve through ``scipy.optimize.linprog``), belongs to the benchmark and
does the same work on every commit; its time next to an operation says
how fast the host ran that operation.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.optimize import linprog

#: the kernel's median time on the reference machine (3080 samples over
#: 15 runs; Python 3.11.7, numpy 2.4.6, scipy 1.17.1, one BLAS thread); a
#: normalized time reads as seconds at that speed
REFERENCE_S = 8.75e-3


class HostSpeed:
    """Time the reference kernel on demand."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((60, 60)) + 60.0 * np.eye(60)
        self._vector = rng.standard_normal(60)
        self._keys = [f"k{i}" for i in range(64)]
        self._lp = (
            -rng.uniform(0.0, 1.0, 80),
            rng.uniform(0.0, 1.0, (40, 80)),
            rng.uniform(1.0, 2.0, 40),
        )
        self._kernel()  # first-call costs stay out of the samples

    def _kernel(self) -> None:
        table: dict = {}
        for i in range(3000):
            key = self._keys[i & 63]
            table[key] = table.get(key, 0) + i % 7
        x = self._vector
        for _ in range(150):
            y = self._matrix @ x
            x = y / np.abs(y).max()
            int(np.argmin(x))
        for _ in range(3):
            lu_solve(lu_factor(self._matrix), x)
        cost, a_ub, b_ub = self._lp
        linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, 1.0), method="highs")

    def sample(self) -> float:
        """Run the kernel once and return its time in seconds."""
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start

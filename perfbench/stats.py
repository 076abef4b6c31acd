"""Small order statistics shared by the workloads and the layer map."""

from __future__ import annotations

import math

#: what a percentile reached by a failed operation reads, in seconds: a
#: failure counts against every latency limit, and JSON has no infinity
FAILED_LATENCY_S = 1e6


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile; 0.0 for no values.

    ``inf`` entries (failed operations) sort last and read as
    :data:`FAILED_LATENCY_S`.
    """
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    a, b = data[lo], data[hi]
    if math.isinf(a) or math.isinf(b):
        return FAILED_LATENCY_S
    return a + (b - a) * (pos - lo)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0

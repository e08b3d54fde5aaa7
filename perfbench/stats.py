"""Order statistics the benchmark reports.

Every timing is reported as a median plus a tail: the highest
percentile that still has at least ten samples beyond it, so the tail
is never a single outlier. The percentile used travels with the value.
"""

from __future__ import annotations

import statistics
from typing import Dict, Sequence

#: Samples that must lie strictly beyond the reported tail.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond.

    Of ``n`` sorted samples, the value at rank ``n - TAIL_BEYOND - 1``
    has exactly ``TAIL_BEYOND`` samples above it; it sits at percentile
    ``100 * (n - TAIL_BEYOND) / n``. With too few samples for that, the
    maximum is reported at percentile 100.
    A failed sample is passed as ``math.inf`` and so counts as missing
    any limit.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return {
            "value": ordered[-1] if ordered else 0.0,
            "percentile": 100.0,
            "samples": n,
        }
    return {
        "value": ordered[n - TAIL_BEYOND - 1],
        "percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "samples": n,
    }


def window_tail(values: Sequence[float], window: int) -> Dict[str, float]:
    """The percentile :func:`tail` reports for ``window`` samples, taken
    over all of ``values``.

    A closed loop's samples come in decks of a fixed multiset of request
    kinds. With ``window`` a whole number of decks, the percentile is
    fixed, so it lands on the same kind, at the same rank within that
    kind's samples, however many decks a run completes; a run of at
    least ``window`` samples still has ``TAIL_BEYOND`` or more beyond it.
    With fewer samples the plain :func:`tail` is reported.
    """
    n = len(values)
    if n < window:
        return tail(values)
    ordered = sorted(values)
    return {
        "value": ordered[(window - TAIL_BEYOND) * n // window - 1],
        "percentile": 100.0 * (window - TAIL_BEYOND) / window,
        "samples": n,
    }

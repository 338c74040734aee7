"""Small numeric helpers: medians, supported percentiles, self time, digests.

Everything here is pure and stdlib-only so the helper tests run without
the program under test.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from typing import Iterable, List, Optional, Sequence, Tuple

#: Samples that must lie beyond a reported percentile for it to be reported.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def rank(n: int, q: float) -> int:
    """1-based nearest-rank index of the ``q``-th percentile of ``n`` samples."""
    if n < 1:
        raise ValueError("percentile of no samples")
    if not 0 < q < 100:
        raise ValueError("q must lie strictly between 0 and 100")
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-th percentile rank."""
    return n - rank(n, q)


def supported(n: int, q: float, min_beyond: int = MIN_BEYOND) -> bool:
    """``True`` iff ``n`` samples leave at least ``min_beyond`` beyond ``q``."""
    return n >= 1 and beyond(n, q) >= min_beyond


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (no interpolation)."""
    ordered = sorted(values)
    return float(ordered[rank(len(ordered), q) - 1])


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (``inf`` at median 0)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else math.inf


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if e > start and s < end
    )
    total = 0.0
    cur_s: Optional[float] = None
    cur_e = 0.0
    for s, e in clipped:
        if cur_s is None or s > cur_e:
            if cur_s is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_s is not None:
        total += cur_e - cur_s
    return total


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    ``parents[i]`` is the index of span ``i``'s parent, or ``-1`` for a
    root. Children may overlap each other or stick out of their parent;
    only the covered part of the parent's own interval is subtracted.
    """
    children: List[List[int]] = [[] for _ in starts]
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    return [
        (e - s) - covered(s, e, ((starts[k], ends[k]) for k in kids))
        for s, e, kids in zip(starts, ends, children)
    ]


def output_digest(output: Iterable[object]) -> str:
    """sha256 of a window output, order-independent (sorted ``repr`` lines)."""
    canonical = "\n".join(sorted(map(repr, output)))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

"""The two percentile formulas the repo reports, each defined once.

- :func:`nearest_rank` -- the sample at index ``round(q * (n - 1))``;
  load-generator results and the scale-out benches report this one.
- :func:`interpolated` -- linear interpolation between the two samples
  around rank ``q * (n - 1)``; the metrics registry, the SLO layer and
  Table 2's stage summaries report this one.
"""


def nearest_rank(values, q):
    """Nearest-rank ``q``-quantile of unsorted ``values``; 0.0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def interpolated(ordered, q):
    """Interpolated ``q``-quantile of already-sorted ``ordered``; None when
    empty."""
    if not ordered:
        return None
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] * (1 - (rank - low)) + ordered[high] * (rank - low)

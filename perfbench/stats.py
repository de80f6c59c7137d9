"""Summary statistics shared by the benchmark runner and its self-tests."""

import statistics

# A tail percentile is reported only when at least this many samples lie
# strictly beyond it.
MIN_BEYOND = 10


def percentile(values, pct):
    """Nearest-rank percentile of `values` (pct in [0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = round(pct / 100.0 * (len(ordered) - 1))
    return ordered[min(max(rank, 0), len(ordered) - 1)]


def beyond(values, threshold):
    """Number of samples strictly greater than `threshold`."""
    return sum(1 for v in values if v > threshold)


def tail(values, pct):
    """The `pct` percentile of `values`, or None when fewer than MIN_BEYOND
    samples lie strictly beyond it."""
    value = percentile(values, pct)
    return value if beyond(values, value) >= MIN_BEYOND else None


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4)
    computes them — the run-to-run spread the benchmark's bounds apply to."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def fail_ratio(failed, attempted):
    """Failed operations over attempted ones.  Every check, RPC and pack the
    run makes is one attempt; a run that attempted nothing is an error, not
    a perfect score."""
    if attempted <= 0:
        raise ValueError("fail_ratio over zero attempts")
    if failed < 0 or failed > attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted

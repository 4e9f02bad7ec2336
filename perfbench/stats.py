"""Sample summaries shared by `run.py`, `sweep.py` and `compare.py`."""

import statistics


def quartiles(values):
    """First and third quartile, as `statistics.quantiles(values, n=4)` gives
    them (a single sample is its own quartiles)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(samples, value=None):
    """Raw samples plus median, quartiles, min/max and count. `value` is the
    reported figure; it defaults to the median."""
    samples = list(samples)
    q1, q3 = quartiles(samples)
    median = statistics.median(samples)
    return {
        "value": median if value is None else value,
        "samples": samples,
        "n": len(samples),
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(samples),
        "max": max(samples),
    }

"""Statistics and failure accounting shared by the benchmark's workloads."""

import math


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than it needs."""


# A percentile is reported only when at least this many samples lie beyond
# it, so p95 needs 200 samples and p50 needs 20.
MIN_BEYOND = 10


def percentile(samples, q):
    """Nearest-rank q-th percentile (0 < q < 100) of `samples`.

    Raises TooFewSamples unless at least MIN_BEYOND samples lie above the
    returned rank. Samples may include math.inf (a failed operation).
    """
    if not 0 < q < 100:
        raise ValueError("percentile must be in (0, 100): %r" % (q,))
    n = len(samples)
    rank = math.ceil(q / 100.0 * n)
    if n == 0 or n - rank < MIN_BEYOND:
        raise TooFewSamples(
            "p%g needs %d samples beyond it; %d samples give %d"
            % (q, MIN_BEYOND, n, max(0, n - rank)))
    return sorted(samples)[rank - 1]


def min_samples(q):
    """Smallest sample count for which percentile(samples, q) is defined."""
    n = 1
    while n - math.ceil(q / 100.0 * n) < MIN_BEYOND:
        n += 1
    return n


def median(values):
    """Plain median of a non-empty list (for repetition counts below 20)."""
    s = sorted(values)
    if not s:
        raise TooFewSamples("median of no values")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def trimmed_mean(values, trim=0.1):
    """Mean after dropping the lowest and highest `trim` share of values."""
    s = sorted(values)
    if not s:
        raise TooFewSamples("mean of no values")
    k = int(len(s) * trim)
    kept = s[k:len(s) - k]
    return sum(kept) / len(kept)


# Terminal outcomes of one submitted job, as the load generator records them.
OK_OUTCOMES = {"done"}
FAILED_OUTCOMES = {"failed", "stopped", "rejected", "timeout"}


def account(jobs):
    """Failure accounting over submitted jobs.

    Each job is a dict with an "outcome" (one of OK_OUTCOMES or
    FAILED_OUTCOMES) and, for completed jobs, "latency_ms". Returns
    (attempted, failed, latencies) where a failed job contributes math.inf to
    `latencies`, so it misses every latency limit.
    """
    attempted = failed = 0
    latencies = []
    for job in jobs:
        attempted += 1
        if job["outcome"] in OK_OUTCOMES:
            latencies.append(float(job["latency_ms"]))
        else:
            if job["outcome"] not in FAILED_OUTCOMES:
                raise ValueError("unknown job outcome %r" % (job["outcome"],))
            failed += 1
            latencies.append(math.inf)
    return attempted, failed, latencies


def finite_or_fail(name, value):
    """Returns `value`, or raises when a failed operation pushed it to inf."""
    if not math.isfinite(value):
        raise ValueError("%s is not finite: failed operations reached it"
                         % name)
    return value


def ratio(num, den):
    return num / den if den else 0.0

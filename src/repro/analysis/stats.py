"""Small statistics helpers for experiment aggregation.

Only what the experiment harness needs — means, spreads, medians and a
normal-approximation confidence interval — with explicit handling of
empty and single-sample inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.numeric import left_sum


def mean(samples: Sequence[float]) -> float:
    if not samples:
        raise ConfigurationError("mean of empty sample set")
    return left_sum(samples) / len(samples)


def std(samples: Sequence[float]) -> float:
    """Sample standard deviation (ddof=1); 0.0 for a single sample."""
    if not samples:
        raise ConfigurationError("std of empty sample set")
    if len(samples) == 1:
        return 0.0
    m = mean(samples)
    return math.sqrt(
        left_sum((x - m) ** 2 for x in samples) / (len(samples) - 1)
    )


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ConfigurationError("median of empty sample set")
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def confidence_interval95(samples: Sequence[float]) -> Tuple[float, float]:
    """Normal-approximation 95% CI of the mean."""
    m = mean(samples)
    if len(samples) == 1:
        return (m, m)
    half = 1.96 * std(samples) / math.sqrt(len(samples))
    return (m - half, m + half)


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of one metric across runs."""

    n: int
    mean: float
    std: float
    minimum: float
    median: float
    maximum: float

    def format(self, unit: str = "") -> str:
        suffix = f" {unit}" if unit else ""
        return (
            f"mean={self.mean:.2f}{suffix} std={self.std:.2f} "
            f"min={self.minimum:.2f} med={self.median:.2f} "
            f"max={self.maximum:.2f} (n={self.n})"
        )


def summarize(samples: Sequence[float]) -> Summary:
    if not samples:
        raise ConfigurationError("summarize of empty sample set")
    return Summary(
        n=len(samples),
        mean=mean(samples),
        std=std(samples),
        minimum=min(samples),
        median=median(samples),
        maximum=max(samples),
    )

"""Pareto (power-law) fitting for raw popularity scores.

Convention: density proportional to x^-(alpha+1) for x >= x_min, so the
mean is undefined for alpha <= 1 and the variance for alpha <= 2. Rating
counts fit with alpha well below 1, which is why mean-based popularity
aggregates misbehave.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = ["ParetoFit", "fit_pareto", "ks_statistic", "sample_pareto"]

MIN_SAMPLES = 10


@dataclass(frozen=True)
class ParetoFit:
    alpha: float
    x_min: float
    ks_stat: float
    n: int


def sample_pareto(
    n: int, alpha: float, x_min: float = 1.0, *, rng: np.random.Generator
) -> np.ndarray:
    """Inverse-CDF sampling: x = x_min * U^(-1/alpha), with U drawn from ``rng``."""
    if alpha <= 0 or x_min <= 0:
        raise ValueError("alpha and x_min must be positive")
    return x_min * rng.random(n) ** (-1.0 / alpha)


def fit_pareto(samples: Sequence[float], x_min: float | None = None) -> ParetoFit:
    """Maximum-likelihood shape estimate alpha = n / sum(ln(x / x_min)).

    ``x_min`` defaults to the sample minimum. All samples must be finite
    and lie at or above it; a degenerate sample (all equal to x_min) yields
    alpha = inf.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    if np.any(x <= 0):
        raise ValueError("samples must be positive")
    if x_min is None:
        x_min = float(np.min(x))
    elif not 0 < x_min < np.inf:
        raise ValueError("x_min must be positive and finite")
    elif np.any(x < x_min):
        raise ValueError(f"sample below x_min={x_min}")
    log_sum = float(np.sum(np.log(x / x_min)))
    alpha = float("inf") if log_sum == 0.0 else x.size / log_sum
    fit = ParetoFit(alpha=alpha, x_min=float(x_min), ks_stat=0.0, n=int(x.size))
    ks = ks_statistic(x, fit)
    return ParetoFit(alpha=alpha, x_min=float(x_min), ks_stat=ks, n=int(x.size))


def ks_statistic(samples: Sequence[float], fit: ParetoFit) -> float:
    """Sup distance between the empirical CDF and 1 - (x_min / x)^alpha."""
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size == 0:
        raise ValueError("empty sample")
    if np.any(x < fit.x_min):
        raise ValueError(f"sample below x_min={fit.x_min}")
    if np.isinf(fit.alpha):
        cdf = np.where(x > fit.x_min, 1.0, 0.0)
    else:
        cdf = 1.0 - (fit.x_min / x) ** fit.alpha
    n = x.size
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(upper - cdf), np.abs(cdf - lower))))

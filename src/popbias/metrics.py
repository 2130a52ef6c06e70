"""Popularity-bias metrics for top-k recommenders.

Every metric compares the aggregate popularity of a recommendation profile
``r`` against a user profile ``u``, given raw per-item popularity scores
``phi``. A metric is a (transform g, aggregation h, comparison M) triple,
``M(h(g(phi(r))), h(g(phi(u))))``, and each ``METRICS`` entry holds the
three functions named here:

=================  ===========  ================  ===================
metric             transform g  aggregation h     comparison M
=================  ===========  ================  ===================
log_pop_diff       log          mean              difference
avg_pop_lift       identity     mean              relative_difference
gini_diff          identity     gini_coefficient  difference
herfindahl_diff    identity     herfindahl_index  difference
pru                identity     identity          spearman_rho
=================  ===========  ================  ===================

The Gini and Herfindahl aggregates normalise scores to shares themselves.
PRU is the exception to the pattern: it correlates the popularity of the
items both profiles share with their slate positions, so its record
carries its own evaluation.

Profiles are multisets: duplicate items count with multiplicity. All
functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Profile",
    "Metric",
    "METRICS",
    "profile_scores",
    "gini_coefficient",
    "herfindahl_index",
    "spearman_rho",
    "kendall_tau",
    "evaluate_metric",
]


@dataclass(frozen=True)
class Profile:
    """An item multiset: a recommendation slate or a user's history.

    When ``ranked`` is true the item order encodes the recommender's
    ranking, position 1 being the top slot.
    """

    items: tuple[int, ...]
    ranked: bool = False

    def __post_init__(self) -> None:
        if not self.items:
            raise ValueError("profile must contain at least one item")

    @classmethod
    def of(cls, items: Sequence[int], ranked: bool = False) -> "Profile":
        return cls(items=tuple(items), ranked=ranked)


def profile_scores(p: Profile, phi: Mapping[int, float]) -> np.ndarray:
    """Look up the raw popularity score of every profile item, in order."""
    try:
        return np.array([phi[a] for a in p.items], dtype=float)
    except KeyError as exc:
        raise ValueError(f"item {exc.args[0]} missing from popularity table") from None


def identity(scores: np.ndarray) -> np.ndarray:
    return scores


def log(scores: np.ndarray) -> np.ndarray:
    """Natural log of scores >= 1 (rating counts), which keeps it non-negative."""
    if np.any(scores < 1.0):
        raise ValueError(f"profile has score {scores[scores < 1.0][0]} < 1 (log domain)")
    return np.log(scores)


def mean(values: np.ndarray) -> float:
    return float(np.mean(values))


def gini_coefficient(scores: Sequence[float]) -> float:
    """Gini inequality of a set of positive scores, in [0, 1)."""
    x = np.sort(np.asarray(scores, dtype=float))
    if x.size == 0:
        raise ValueError("empty score list")
    if np.any(x <= 0):
        raise ValueError("scores must be positive")
    n = x.size
    i = np.arange(1, n + 1)
    return float(np.sum((2 * i - n - 1) / n * x / x.sum()))


def herfindahl_index(scores: Sequence[float]) -> float:
    """Concentration of a set of positive scores: sum of squared shares."""
    x = np.asarray(scores, dtype=float)
    if x.size == 0:
        raise ValueError("empty score list")
    if np.any(x <= 0):
        raise ValueError("scores must be positive")
    shares = x / x.sum()
    return float(np.sum(shares * shares))


def difference(r_value: float, u_value: float) -> float:
    return r_value - u_value


def relative_difference(r_value: float, u_value: float) -> float:
    """(h(r) - h(u)) / h(u); undefined when the user aggregate is zero."""
    if u_value == 0.0:
        raise ValueError("aggregate of the user profile is zero")
    return (r_value - u_value) / u_value


def _paired(xs: Sequence[float], ys: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Two equal-length samples of at least 2 observations each, as arrays."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size:
        raise ValueError("sequences must have equal length")
    if x.size < 2:
        raise ValueError("undefined correlation: need at least 2 observations")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ValueError("undefined correlation: constant sequence")
    return x, y


# scipy.stats is imported on first use: importing it takes longer than
# the rest of the package, and most commands never correlate.


def spearman_rho(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation: Pearson correlation of average ranks."""
    from scipy.stats import spearmanr

    return float(spearmanr(*_paired(xs, ys)).statistic)


def kendall_tau(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Kendall rank correlation with tau-b tie handling."""
    from scipy.stats import kendalltau

    return float(kendalltau(*_paired(xs, ys)).statistic)


@dataclass(frozen=True)
class Metric:
    """One bias metric: ``compare(statistic(phi(r)), statistic(phi(u)))``."""

    id: str
    transform: Callable[[np.ndarray], np.ndarray]
    aggregate: Callable[[np.ndarray], float]
    compare: Callable[[float, float], float]

    def statistic(
        self, scores: np.ndarray, rng: np.random.Generator | None = None
    ) -> float:
        """h(g(scores)): one profile's aggregate of its raw popularity scores.

        ``rng`` feeds a statistic that needs draws beyond the scores; only
        PRU's does.
        """
        return self.aggregate(self.transform(scores))

    def evaluate(self, r: Profile, u: Profile, phi: Mapping[int, float]) -> float:
        return self.compare(
            self.statistic(profile_scores(r, phi)), self.statistic(profile_scores(u, phi))
        )


class RankCorrelationMetric(Metric):
    """PRU: popularity against slate position over the profile intersection.

    Correlates each shared item's popularity with an alignment score
    ``k + 1 - position_r``, so +1 means the most popular items occupy the
    recommender's top slots.
    """

    def statistic(
        self, scores: np.ndarray, rng: np.random.Generator | None = None
    ) -> float:
        """The correlation of ``scores`` with a slate order drawn from ``rng``."""
        return self.compare(
            self.aggregate(self.transform(scores)), rng.permutation(scores.size) + 1.0
        )

    def evaluate(self, r: Profile, u: Profile, phi: Mapping[int, float]) -> float:
        if not r.ranked:
            raise ValueError("PRU requires a rank-ordered recommendation profile")
        u_items = set(u.items)
        seen: dict[int, int] = {}
        for pos, a in enumerate(r.items, start=1):
            if a in u_items and a not in seen:
                seen[a] = pos
        if len(seen) < 2:
            raise ValueError("PRU undefined: profile intersection has fewer than 2 items")
        k = len(r.items)
        scores = profile_scores(Profile.of(seen), phi)
        alignment = [k + 1 - pos for pos in seen.values()]
        return self.compare(self.aggregate(self.transform(scores)), alignment)


METRICS: dict[str, Metric] = {
    m.id: m
    for m in (
        Metric("log_pop_diff", log, mean, difference),
        Metric("avg_pop_lift", identity, mean, relative_difference),
        Metric("gini_diff", identity, gini_coefficient, difference),
        Metric("herfindahl_diff", identity, herfindahl_index, difference),
        RankCorrelationMetric("pru", identity, identity, spearman_rho),
    )
}


def evaluate_metric(
    metric_id: str, r: Profile, u: Profile, phi: Mapping[int, float]
) -> float:
    """Evaluate one registered metric by id."""
    try:
        metric = METRICS[metric_id]
    except KeyError:
        known = ", ".join(sorted(METRICS))
        raise ValueError(f"unknown metric {metric_id!r} (known: {known})") from None
    return metric.evaluate(r, u, phi)

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
carries its own evaluation. It is a desiderata-only metric: top-k slates
exclude the user's training profile, so over a fold of slates its
intersection is always empty and it is never scored there.

A fold is scored in one batch. ``evaluate_metric`` takes the fold's slates
and training profiles as ``Profiles`` (ragged rows of item ids) and a
``PhiArray``, and returns one value per row, NaN where the metric is
undefined for that row. The three stages are row-wise: g maps a
(profiles × length) block of scores element by element, h reduces each
row of a block to one value, and M combines two vectors of row values.
Blocks are gathered once per distinct profile length. Each row is reduced
by numpy's 1-D pairwise summation, exactly as ``np.sum`` reduces that row
on its own, so a batch gives the same bits as one profile at a time.
Nothing may pad a row or reorder the items within one: either changes the
summation order and with it the last bits of the result.

A row is undefined, and its value NaN, where

* one of its items is missing from ``phi`` (every metric);
* the log transform meets a score below 1 (log domain);
* the Gini or Herfindahl aggregate meets a score that is not positive;
* the relative difference meets a user aggregate of zero;
* it is empty.

``Metric.evaluate`` and ``Metric.statistic`` are the one-row case: they
raise ``ValueError`` where a batch would hold NaN.

Profiles are multisets: duplicate items count with multiplicity. All
functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain
from typing import ClassVar

import numpy as np

__all__ = [
    "Profile",
    "Profiles",
    "PhiArray",
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


@dataclass(frozen=True)
class Profiles:
    """A batch of item profiles: row i is ``items[offsets[i]:offsets[i + 1]]``.

    Rows keep their item order. A row may be empty (an empty slate).
    """

    items: np.ndarray
    offsets: np.ndarray

    @classmethod
    def of(cls, rows: Iterable[Iterable[int]]) -> "Profiles":
        rows = [tuple(row) for row in rows]
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, rows), np.int64, len(rows)), out=offsets[1:])
        items = np.fromiter(chain.from_iterable(rows), np.int64, int(offsets[-1]))
        return cls(items=items, offsets=offsets)

    def __len__(self) -> int:
        return self.offsets.size - 1

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def rows(self) -> np.ndarray:
        """The row of every item."""
        return np.repeat(np.arange(len(self)), self.lengths)

    @property
    def positions(self) -> np.ndarray:
        """The 0-based position of every item within its row."""
        return np.arange(self.items.size) - np.repeat(self.offsets[:-1], self.lengths)


@dataclass(frozen=True)
class PhiArray:
    """Raw popularity scores ``phi`` as an array indexed by item id.

    ``table[a - first]`` is item a's score. The table spans the range of
    ids in phi (catalog ids, which are dense: MovieLens ids stay below
    300k), holds NaN for an id in the range that phi lacks and ends with
    one NaN slot that every id outside the range reads.
    """

    first: int
    table: np.ndarray

    @classmethod
    def of(cls, phi: Mapping[int, float]) -> "PhiArray":
        ids = np.fromiter(phi.keys(), np.int64, len(phi))
        first = int(ids.min()) if ids.size else 0
        table = np.full(int(ids.max()) - first + 2 if ids.size else 1, np.nan)
        table[ids - first] = np.fromiter(phi.values(), float, len(phi))
        return cls(first=first, table=table)

    def lookup(self, items: np.ndarray) -> np.ndarray:
        """The score of every item, NaN where the item is missing from phi."""
        pos = items - self.first
        pos[(pos < 0) | (pos >= self.table.size)] = self.table.size - 1
        return self.table[pos]


def profile_scores(p: Profile, phi: Mapping[int, float]) -> np.ndarray:
    """Look up the raw popularity score of every profile item, in order."""
    scores = PhiArray.of(phi).lookup(np.asarray(p.items, dtype=np.int64))
    missing = np.isnan(scores)
    if missing.any():
        raise ValueError(f"item {p.items[np.argmax(missing)]} missing from popularity table")
    return scores


def _undefined(message: str):
    """Name the error a stage's one-row case raises where the stage gives NaN."""

    def mark(stage):
        stage.undefined = message
        return stage

    return mark


def _defined(stage: Callable[..., np.ndarray], *args: np.ndarray) -> np.ndarray:
    """``stage(*args)`` on one row, raising the stage's error where it gives NaN."""
    out = stage(*args)
    if hasattr(stage, "undefined") and np.isnan(out).any():
        raise ValueError(stage.undefined)
    return out


def _rows(scores: Sequence[float] | np.ndarray) -> np.ndarray:
    """Scores as floats whose last axis is a row; a row may not be empty."""
    x = np.asarray(scores, dtype=float)
    if x.shape[-1] == 0:
        raise ValueError("empty score list")
    return x


def _positive(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x, np.nan)


def identity(x: np.ndarray) -> np.ndarray:
    return x


@_undefined("profile has a score < 1 (log domain)")
def log(x: np.ndarray) -> np.ndarray:
    """Natural log of scores >= 1 (rating counts), which keeps it non-negative.

    NaN below 1.
    """
    return np.log(np.where(x >= 1.0, x, np.nan))


def mean(scores: np.ndarray) -> np.ndarray:
    """Arithmetic mean of each row."""
    return np.mean(_rows(scores), axis=-1)


@_undefined("scores must be positive")
def gini_coefficient(scores: Sequence[float] | np.ndarray) -> np.ndarray:
    """Gini inequality of each row of positive scores, in [0, 1).

    A row is the last axis; NaN for a row holding a score that is not positive.
    """
    x = np.sort(_positive(_rows(scores)), axis=-1)
    n = x.shape[-1]
    i = np.arange(1, n + 1)
    return np.sum((2 * i - n - 1) / n * x / x.sum(axis=-1, keepdims=True), axis=-1)


@_undefined("scores must be positive")
def herfindahl_index(scores: Sequence[float] | np.ndarray) -> np.ndarray:
    """Concentration of each row of positive scores: sum of squared shares.

    A row is the last axis; NaN for a row holding a score that is not positive.
    """
    x = _positive(_rows(scores))
    shares = x / x.sum(axis=-1, keepdims=True)
    return np.sum(shares * shares, axis=-1)


def difference(r_value: np.ndarray, u_value: np.ndarray) -> np.ndarray:
    return r_value - u_value


@_undefined("aggregate of the user profile is zero")
def relative_difference(r_value: np.ndarray, u_value: np.ndarray) -> np.ndarray:
    """(h(r) - h(u)) / h(u); undefined where the user aggregate is zero."""
    diff = r_value - u_value
    return np.divide(diff, u_value, out=np.full_like(diff, np.nan), where=u_value != 0.0)


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
    aggregate: Callable[[np.ndarray], np.ndarray]
    compare: Callable[[np.ndarray, np.ndarray], np.ndarray]

    desiderata_only: ClassVar[bool] = False

    def statistics(self, p: Profiles, phi: PhiArray) -> np.ndarray:
        """h(g(phi(row))) of every row; NaN where it is undefined.

        The rows of each length are gathered into one block, in row order.
        """
        scores = phi.lookup(p.items)
        lengths = p.lengths
        out = np.full(len(p), np.nan)
        for n in np.unique(lengths[lengths > 0]):
            rows = np.flatnonzero(lengths == n)
            block = scores[p.offsets[rows, None] + np.arange(n)]
            out[rows] = self.aggregate(self.transform(block))
        return out

    def evaluate_rows(self, r: Profiles, u: Profiles, phi: PhiArray) -> np.ndarray:
        """M of every (recommendation, user) row pair; NaN where it is undefined."""
        return self.compare(self.statistics(r, phi), self.statistics(u, phi))

    def statistic(
        self, scores: np.ndarray, rng: np.random.Generator | None = None
    ) -> float:
        """h(g(scores)): one profile's aggregate of its raw popularity scores.

        The one-row case of ``statistics``. ``rng`` feeds a statistic that
        needs draws beyond the scores; only PRU's does.
        """
        block = np.asarray(scores, dtype=float)[None, :]
        return float(_defined(self.aggregate, _defined(self.transform, block))[0])

    def evaluate(self, r: Profile, u: Profile, phi: Mapping[int, float]) -> float:
        """M of one (recommendation, user) pair: the one-row case of ``evaluate_rows``."""
        r_value = self.statistic(profile_scores(r, phi))
        u_value = self.statistic(profile_scores(u, phi))
        return float(_defined(self.compare, np.array([r_value]), np.array([u_value]))[0])


class RankCorrelationMetric(Metric):
    """PRU: popularity against slate position over the profile intersection.

    Correlates each shared item's popularity with an alignment score
    ``k + 1 - position_r``, so +1 means the most popular items occupy the
    recommender's top slots.
    """

    desiderata_only = True

    def statistic(
        self, scores: np.ndarray, rng: np.random.Generator | None = None
    ) -> float:
        """The correlation of ``scores`` with a slate order drawn from ``rng``."""
        return self.compare(
            self.aggregate(self.transform(scores)), rng.permutation(scores.size) + 1.0
        )

    def evaluate_rows(self, r: Profiles, u: Profiles, phi: PhiArray) -> np.ndarray:
        raise ValueError(f"{self.id} is a desiderata-only metric")

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
    metric_id: str, r: Profiles, u: Profiles, phi: PhiArray
) -> np.ndarray:
    """Score one registered metric over a batch of (slate, profile) row pairs.

    Returns one value per row, NaN where the metric is undefined for it.
    """
    try:
        metric = METRICS[metric_id]
    except KeyError:
        known = ", ".join(sorted(METRICS))
        raise ValueError(f"unknown metric {metric_id!r} (known: {known})") from None
    return metric.evaluate_rows(r, u, phi)

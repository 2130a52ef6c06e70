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
carries its own row evaluation. It is a desiderata-only metric: top-k
slates exclude the user's training profile, so over a fold of slates its
intersection is always empty and it is never scored there.

A fold is scored in one batch. ``Metric.statistics`` takes ``Profiles``
(ragged rows of item ids) and a ``PhiArray`` and returns h(g(phi(row))) of
each row; ``evaluate_metric`` compares a batch of slates with the
statistics of their users' training profiles, which a fold computes once
for all its recommenders. Both return one value per row, NaN where it is
undefined. The three stages are row-wise: g maps a (profiles × length)
block of scores element by element, h reduces each row of a block to one
value, and M combines two vectors of row values.
Blocks are gathered once per distinct profile length. Each row is reduced
by numpy's 1-D pairwise summation, exactly as ``np.sum`` reduces that row
on its own, so a batch gives the same bits as one profile at a time.
Nothing may pad a row or reorder the items within one: either changes the
summation order and with it the last bits of the result.

Every id lookup, ``PhiArray.lookup``'s and the recommenders', reads a
dense table of one slot per id in the ids' span, and ``check_id_span``
refuses a span past ``MAX_ID_SPAN`` before any is made. A ``PhiArray``
builds its table once, on its first lookup.

A row is undefined, and its value NaN, where

* one of its items is missing from ``phi`` (every metric);
* the log transform meets a score below 1 (log domain);
* the Gini or Herfindahl aggregate meets a score that is not positive;
* the relative difference meets a user aggregate of zero;
* it is empty.

PRU reads the order of each slate row as its ranking, position 1 being the
top slot, and is NaN for a row pair that shares fewer than 2 distinct
items, or whose shared items all have the same popularity. Because it is
desiderata-only, ``evaluate_metric`` refuses it; the desiderata checks call
its ``evaluate_rows`` directly.

Profiles are multisets: duplicate items count with multiplicity. All
functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import ClassVar

import numpy as np

__all__ = [
    "Profiles",
    "PhiArray",
    "MAX_ID_SPAN",
    "check_id_span",
    "id_positions",
    "Metric",
    "METRICS",
    "gini_coefficient",
    "herfindahl_index",
    "spearman_rho",
    "kendall_tau",
    "registered_metric",
    "scored_metric",
    "evaluate_metric",
]


@dataclass(frozen=True, eq=False)
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


# Largest span, max - min + 1, of an id_positions table's ids: 2**24 slots, 128 MiB.
MAX_ID_SPAN = 1 << 24


def check_id_span(ids: np.ndarray) -> None:
    """Refuse, with ValueError, ids whose span max - min + 1 is past MAX_ID_SPAN."""
    if ids.size and int(ids.max()) - int(ids.min()) + 1 > MAX_ID_SPAN:
        raise ValueError(f"ids span more than {MAX_ID_SPAN} values (largest {ids.max()})")


def _id_table(ids: np.ndarray) -> tuple[int, np.ndarray]:
    """The first of sorted distinct ids, and each id's position in a dense table.

    The table has a slot per id in [ids[0], ids[-1]], -1 for a non-id, and a
    last -1 slot that the values outside the span read (see ``_slots``). Ids
    that ``check_id_span`` refuses are refused before the table is made.
    """
    check_id_span(ids)
    first = int(ids[0]) if ids.size else 0
    table = np.full(int(ids[-1]) - first + 2 if ids.size else 1, -1, dtype=np.int64)
    table[ids - first] = np.arange(ids.size)
    return first, table


def _slots(first: int, table: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each value's slot in an ``_id_table`` table that starts at ``first``; -1 outside it."""
    offsets = values - first
    offsets[(offsets < 0) | (offsets >= table.size)] = -1
    return offsets


def id_positions(ids: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's position among sorted distinct ids (-1 if absent), and whether it is there."""
    first, table = _id_table(ids)
    positions = table[_slots(first, table, values)]
    return positions, positions >= 0


@dataclass(frozen=True, eq=False)
class PhiArray:
    """Raw popularity scores ``phi``: item ``ids[i]``, ids ascending, has score ``scores[i]``."""

    ids: np.ndarray
    scores: np.ndarray

    @classmethod
    def of(cls, phi: Mapping[int, float]) -> "PhiArray":
        """The PhiArray of a hand-built mapping from item id to score."""
        ids = sorted(phi)
        return cls(np.array(ids, dtype=np.int64), np.array([phi[a] for a in ids], dtype=float))

    @cached_property
    def _score_table(self) -> tuple[int, np.ndarray]:
        """The ``_id_table`` of the ids with each slot holding its id's score, NaN for a non-id.

        Built on the first lookup, read-only.
        """
        first, table = _id_table(self.ids)
        # Position -1, a non-id, reads the NaN after the last score.
        scores = np.append(self.scores, np.nan)[table]
        scores.flags.writeable = False
        return first, scores

    def lookup(self, items: np.ndarray) -> np.ndarray:
        """The score of every item, NaN where the item is missing from phi."""
        first, table = self._score_table
        return table[_slots(first, table, items)]


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


def log(x: np.ndarray) -> np.ndarray:
    """Natural log of scores >= 1 (rating counts), which keeps it non-negative.

    NaN below 1.
    """
    return np.log(np.where(x >= 1.0, x, np.nan))


def mean(scores: np.ndarray) -> np.ndarray:
    """Arithmetic mean of each row."""
    return np.mean(_rows(scores), axis=-1)


def gini_coefficient(scores: Sequence[float] | np.ndarray) -> np.ndarray:
    """Gini inequality of each row of positive scores, in [0, 1).

    A row is the last axis; NaN for a row holding a score that is not positive.
    """
    x = np.sort(_positive(_rows(scores)), axis=-1)
    n = x.shape[-1]
    i = np.arange(1, n + 1)
    return np.sum((2 * i - n - 1) / n * x / x.sum(axis=-1, keepdims=True), axis=-1)


def herfindahl_index(scores: Sequence[float] | np.ndarray) -> np.ndarray:
    """Concentration of each row of positive scores: sum of squared shares.

    A row is the last axis; NaN for a row holding a score that is not positive.
    """
    x = _positive(_rows(scores))
    shares = x / x.sum(axis=-1, keepdims=True)
    return np.sum(shares * shares, axis=-1)


def difference(r_value: np.ndarray, u_value: np.ndarray) -> np.ndarray:
    return r_value - u_value


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
    """One bias metric: ``compare(h(g(phi(r))), h(g(phi(u))))``."""

    id: str
    transform: Callable[[np.ndarray], np.ndarray]
    aggregate: Callable[[np.ndarray], np.ndarray]
    compare: Callable[[np.ndarray, np.ndarray], np.ndarray]

    # Set by a metric that ranks the items r and u share (PRU): no report
    # scores it, and the desiderata give each of its fixture rows one shared
    # profile and compare each drawn profile against a drawn slate order.
    desiderata_only: ClassVar[bool] = False

    def statistics(self, p: Profiles, phi: PhiArray) -> np.ndarray:
        """h(g(phi(row))) of every row; NaN where it is undefined.

        The rows of each length are gathered into one block, in row order.
        """
        scores = phi.lookup(p.items)
        lengths = p.lengths
        out = np.full(len(p), np.nan)
        # Not np.unique: on numpy 2 it imports numpy.ma, which nothing else here needs.
        for n in np.flatnonzero(np.bincount(lengths)[1:]) + 1:
            rows = np.flatnonzero(lengths == n)
            block = scores[p.offsets[rows, None] + np.arange(n)]
            out[rows] = self.aggregate(self.transform(block))
        return out

    def evaluate_rows(self, r: Profiles, u: Profiles, phi: PhiArray) -> np.ndarray:
        """M of every (recommendation, user) row pair; NaN where it is undefined."""
        return self.compare(self.statistics(r, phi), self.statistics(u, phi))


class RankCorrelationMetric(Metric):
    """PRU: popularity against slate position over the profile intersection.

    Correlates each shared item's popularity with an alignment score
    ``k + 1 - position_r``, so +1 means the most popular items occupy the
    recommender's top slots.
    """

    desiderata_only = True

    def evaluate_rows(self, r: Profiles, u: Profiles, phi: PhiArray) -> np.ndarray:
        """PRU of every row pair, each slate row read in rank order; NaN where undefined.

        A row's slate length k counts every slot, and an item that fills
        several slots takes the position of its first.
        """
        out = np.full(len(r), np.nan)
        for row in range(len(r)):
            slate = r.items[r.offsets[row] : r.offsets[row + 1]].tolist()
            profile = set(u.items[u.offsets[row] : u.offsets[row + 1]].tolist())
            positions: dict[int, int] = {}
            for pos, a in enumerate(slate, start=1):
                if a in profile:
                    positions.setdefault(a, pos)
            scores = phi.lookup(np.fromiter(positions, np.int64, len(positions)))
            if np.isnan(scores).any():
                continue
            popularity = self.aggregate(self.transform(scores))
            alignment = [len(slate) + 1 - pos for pos in positions.values()]
            try:
                out[row] = self.compare(popularity, alignment)
            except ValueError:  # fewer than 2 shared items, or all equally popular
                continue
        return out


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


def registered_metric(metric_id: str) -> Metric:
    """The registered metric of that id, refused with ValueError naming the known ids if none is."""
    try:
        return METRICS[metric_id]
    except (KeyError, TypeError):  # TypeError: an unhashable id, such as a list
        known = ", ".join(sorted(METRICS))
        raise ValueError(f"unknown metric {metric_id!r} (known: {known})") from None


def scored_metric(metric_id: str) -> Metric:
    """The registered metric of that id, refused with ValueError if unknown or desiderata-only."""
    metric = registered_metric(metric_id)
    if metric.desiderata_only:
        raise ValueError(
            f"{metric_id!r} is a desiderata-only metric: it ranks the items a slate "
            "shares with the user's profile, and slates exclude the training profile"
        )
    return metric


def evaluate_metric(
    metric_id: str, r: Profiles, u_statistics: np.ndarray, phi: PhiArray
) -> np.ndarray:
    """Score one registered metric over a batch of slates against their users.

    ``u_statistics`` is ``scored_metric(metric_id).statistics(u, phi)`` of
    the users' profiles ``u``, row for row with ``r``. Returns one value per
    row, NaN where the metric is undefined for it. An unknown or
    desiderata-only metric is refused with ValueError.
    """
    metric = scored_metric(metric_id)
    return metric.compare(metric.statistics(r, phi), u_statistics)

"""Offline evaluation: per-user splits, folds, hit rates, bias aggregation.

Protocol: sample disjoint folds of users, split each user's ratings into
train/test, let every recommender produce a top-k slate from the training
side, then report recall-style hit rates and popularity-bias metrics as
mean plus/minus one standard error over folds.

Splits are index arrays into the run's sorted ratings table: a
``UserSplit`` holds the ascending rows of one user's training and test
ratings, so both sides keep watch order, (timestamp, item). Its ``train``
is that slice of the table; iterating it yields ``Interaction`` rows for
readers that want one object per rating.

Each (fold, recommender) pair is scored in one batch. A fold's requests,
held-out items and each metric's column of training-profile statistics
are computed once into ``FoldInputs``, which every recommender of the
fold shares. ``evaluate_recommender`` takes all of the fold's slates at
once and returns the fold's per-user table: one array per report column,
in report order, row i for the user of request i, NaN where a value is
undefined. The columns are a hit rate per cutoff of ``HIT_CUTOFFS``, each
metric from one ``evaluate_metric`` call, then the unfilled slots: k minus
the slate's length, for every recommender.
``summarize`` is the only reduction: a column's fold mean adds its defined
values left to right in fold order, and a row is the mean and standard
error of those fold means. ``EvalRow`` and the report keep the table's
columns in its order, so each column is defined once.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from popbias.catalog import Ratings
from popbias.metrics import PhiArray, Profiles, evaluate_metric, kendall_tau, scored_metric
from popbias.recommenders import BaseRecommender, RecRequest

__all__ = [
    "FoldSpec",
    "UserSplit",
    "FoldPlan",
    "EvalRow",
    "split_user_ratings",
    "make_folds",
    "FoldInputs",
    "evaluate_recommender",
    "aggregate_folds",
    "summarize",
    "correlate_metrics",
    "emit_report",
    "emit_correlations",
    "build_manifest",
]

DEFAULT_METRICS = ("log_pop_diff", "avg_pop_lift", "gini_diff", "herfindahl_diff")
HIT_CUTOFFS = (5, 10)  # report columns hr5 and hr10


@dataclass(frozen=True)
class FoldSpec:
    fold_count: int = 5
    users_per_fold: int = 1000
    seed: int = 0
    train_fraction: float = 0.8
    min_ratings: int = 10

    def __post_init__(self) -> None:
        # Each message starts with the field it names.
        bounds = (("fold_count", 1), ("users_per_fold", 1), ("seed", 0), ("min_ratings", 0))
        for name, least in bounds:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}")
        fraction = self.train_fraction
        real = isinstance(fraction, (int, float)) and not isinstance(fraction, bool)
        if not (real and 0 < fraction < 1):
            raise ValueError("train_fraction must be a number in (0, 1)")


@dataclass(frozen=True, eq=False)
class UserSplit:
    """One user's train/test split: ascending rows of ``ratings``."""

    user: int
    ratings: Ratings
    train_rows: np.ndarray
    test_rows: np.ndarray

    @property
    def train(self) -> Ratings:
        return self.ratings[self.train_rows]

    @property
    def test_items(self) -> frozenset[int]:
        return frozenset(self.ratings.item[self.test_rows].tolist())


@dataclass
class FoldPlan:
    folds: list[list[UserSplit]]
    skipped: dict[int, str]
    ineligible_users: int


def split_user_ratings(
    user: int, n_ratings: int, train_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Random train/test partition of one user's ratings.

    Returns the ascending positions of the train and the test ratings among
    the user's ratings in watch order. Deterministic per (user, seed): the
    permutation is seeded by both, so the split does not depend on
    evaluation order or fold membership.
    """
    if n_ratings < 1:
        raise ValueError("no interactions to split")
    perm = np.random.default_rng([seed, user]).permutation(n_ratings)
    n_train = int(round(train_fraction * n_ratings))
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def make_folds(ratings: Ratings, spec: FoldSpec) -> FoldPlan:
    """Sample disjoint user folds and split each sampled user's ratings.

    ``ratings`` must be sorted by user, as a table from ``Ratings.from_columns``
    or ``read_ratings_file`` is: each user's ratings are then one run of rows.
    """
    owner = ratings.user
    descents = np.flatnonzero(owner[1:] < owner[:-1])
    if descents.size:
        row = int(descents[0]) + 1
        raise ValueError(
            f"ratings are not sorted by user: row {row} (user {owner[row]}) "
            f"follows user {owner[row - 1]}"
        )
    # Sorted, so the first row holds the smallest user; split seeds need users >= 0.
    if owner.size and owner[0] < 0:
        raise ValueError(f"user ids must be >= 0: user {owner[0]}")
    first = np.ones(owner.size, dtype=bool)
    first[1:] = owner[1:] != owner[:-1]
    starts = np.flatnonzero(first)
    users = owner[starts]
    counts = np.diff(starts, append=owner.size)
    eligible = users[counts >= spec.min_ratings]
    ineligible = users.size - eligible.size
    needed = spec.fold_count * spec.users_per_fold
    if eligible.size < needed:
        raise ValueError(
            f"need {needed} users with >= {spec.min_ratings} ratings, "
            f"only {eligible.size} available"
        )
    rng = np.random.default_rng([spec.seed, eligible.size])
    sampled = eligible[rng.permutation(eligible.size)[:needed]]

    skipped: dict[int, str] = {}
    folds: list[list[UserSplit]] = []
    for f in range(spec.fold_count):
        fold_users = np.sort(sampled[f * spec.users_per_fold : (f + 1) * spec.users_per_fold])
        runs = np.searchsorted(users, fold_users)
        fold: list[UserSplit] = []
        for user, start, count in zip(
            fold_users.tolist(), starts[runs].tolist(), counts[runs].tolist()
        ):
            train, test = split_user_ratings(user, count, spec.train_fraction, spec.seed)
            if not test.size:
                skipped[user] = "empty test set after split"
                continue
            if not train.size:
                skipped[user] = "empty training set after split"
                continue
            fold.append(UserSplit(user, ratings, start + train, start + test))
        folds.append(fold)
    return FoldPlan(folds=folds, skipped=skipped, ineligible_users=ineligible)


@dataclass(frozen=True)
class FoldInputs:
    """What every recommender of one fold shares, one row per user in fold order.

    ``requests`` ask for each user's slate and carry the user's training
    ratings, whose items the slate leaves out. ``ratings`` is the fold's
    training table, user by user in fold order, which the rating matrix is
    built from. ``test`` holds the held-out items the hit rates count, and
    ``test_keys`` the same (row, item) pairs as sorted ``_item_keys``.
    ``statistics`` maps each metric id, in report order, to the metric's
    statistic of every training profile under ``phi``: the side the bias
    metrics compare slates against.
    """

    requests: list[RecRequest]
    ratings: Ratings
    test: Profiles
    test_keys: np.ndarray
    phi: PhiArray
    statistics: dict[str, np.ndarray]

    @classmethod
    def of(
        cls, fold: Sequence[UserSplit], phi: PhiArray, metric_ids: Sequence[str]
    ) -> "FoldInputs":
        if not fold:
            raise ValueError("fold has no users")
        for s in fold:
            if not s.test_rows.size:
                raise ValueError(f"user {s.user} has an empty test set")
            if s.ratings is not fold[0].ratings:
                raise ValueError("a fold's splits must index one ratings table")
        ratings = fold[0].ratings[np.concatenate([s.train_rows for s in fold])]
        offsets = np.zeros(len(fold) + 1, dtype=np.int64)
        np.cumsum([s.train_rows.size for s in fold], out=offsets[1:])
        bounds = zip(offsets[:-1].tolist(), offsets[1:].tolist())
        train = Profiles(items=ratings.item, offsets=offsets)
        test = Profiles.of(s.test_items for s in fold)
        return cls(
            requests=[
                RecRequest(s.user, ratings[a:b]) for s, (a, b) in zip(fold, bounds)
            ],
            ratings=ratings,
            test=test,
            test_keys=np.sort(_item_keys(test)),
            phi=phi,
            statistics={m: scored_metric(m).statistics(train, phi) for m in metric_ids},
        )


def _sum_in_order(values: np.ndarray) -> float:
    """Sum from 0.0, left to right in fold order, one user at a time.

    Fold means are defined by this order, not by numpy's pairwise one.
    """
    return float(np.add.accumulate(np.concatenate(([0.0], values)))[-1])


def _item_keys(profiles: Profiles) -> np.ndarray:
    """item * rows + row of every item: one key per (row, item) pair."""
    return profiles.items * len(profiles) + profiles.rows


def _held_out(slates: Profiles, test_keys: np.ndarray) -> np.ndarray:
    """Which slate items are held-out items of their own user (test_keys: sorted, not empty)."""
    keys = _item_keys(slates)
    return test_keys[np.minimum(np.searchsorted(test_keys, keys), test_keys.size - 1)] == keys


def evaluate_recommender(
    rec: BaseRecommender, fold: FoldInputs, k: int
) -> dict[str, np.ndarray]:
    """Run one recommender over one fold and return its per-user table.

    The table maps each report column, in report order, to one value per
    user, row i for the user of ``fold.requests[i]``. The fold is scored in
    one batch: each metric of ``fold.statistics`` is evaluated once, by
    ``evaluate_metric``, over every user's slate against that column of
    training-profile statistics. ``hr<cut>`` for each cut of
    ``HIT_CUTOFFS`` is recall: the share of a user's held-out items among
    the first cut slate items. ``unmatched`` is the user's unfilled slots,
    k minus the slate's length: an LLM line that names no valid catalog item
    and a baseline's short slate both leave one. Every user has a hit rate
    and an ``unmatched`` value; a user with an empty slate has zero hits.

    A metric's value is NaN where it is undefined for the user (the
    ``metrics`` module docstring lists where), which leaves the user out of
    that metric's fold mean in ``summarize``.
    """
    results = rec.recommend_batch(fold.requests, k)
    slates = Profiles.of(result.slate.entries for result in results)
    n = len(results)

    held_out = _held_out(slates, fold.test_keys)
    rows, positions = slates.rows[held_out], slates.positions[held_out]
    columns = {
        f"hr{cut}": np.bincount(rows[positions < cut], minlength=n) / fold.test.lengths
        for cut in HIT_CUTOFFS
    }
    for m, u_statistics in fold.statistics.items():
        columns[m] = evaluate_metric(m, slates, u_statistics, fold.phi)
    columns["unmatched"] = (k - slates.lengths).astype(float)
    return columns


def aggregate_folds(values: Sequence[float]) -> tuple[float, float]:
    """Mean and standard error of the mean over fold-level values."""
    if len(values) < 2:
        raise ValueError("need at least 2 folds to aggregate")
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    sem = float(arr.std(ddof=1) / math.sqrt(arr.size))
    return mean, sem


@dataclass(frozen=True)
class EvalRow:
    """One recommender's fold-aggregated results: (mean, sem) per report column.

    ``columns`` lists the columns in report order. A column defined in
    fewer than 2 folds has (None, None).
    """

    name: str
    columns: dict[str, tuple[float | None, float | None]]


def summarize(name: str, tables: Sequence[Mapping[str, np.ndarray]]) -> EvalRow:
    """Reduce one recommender's per-user fold tables to one report row.

    A column's fold mean adds its defined (not NaN) values left to right in
    fold order and divides by their count; a fold where none is defined has
    no mean. The row holds each column's mean and standard error over its
    fold means, in the first table's column order.
    """
    if len(tables) < 2:
        raise ValueError("need at least 2 folds to aggregate")
    columns: dict[str, tuple[float | None, float | None]] = {}
    for column in tables[0]:
        defined = [table[column][~np.isnan(table[column])] for table in tables]
        means = [_sum_in_order(v) / v.size for v in defined if v.size]
        columns[column] = aggregate_folds(means) if len(means) >= 2 else (None, None)
    return EvalRow(name=name, columns=columns)


def correlate_metrics(
    bias_by_metric: Mapping[str, Sequence[float]]
) -> dict[str, dict[str, float | None]]:
    """Each metric's row of Kendall tau against every metric, across recommender rows.

    The mapping is symmetric, 1.0 on the diagonal, and None where tau is
    undefined, as it is against a constant column.
    """
    ids = tuple(bias_by_metric)
    if not ids:
        raise ValueError("no metrics to correlate")
    lengths = {len(v) for v in bias_by_metric.values()}
    if len(lengths) != 1:
        raise ValueError("metric vectors have unequal lengths")
    n = lengths.pop()
    if n < 4:
        raise ValueError(f"need at least 4 rows to correlate, got {n}")
    taus: dict[str, dict[str, float | None]] = {a: {} for a in ids}
    for i, a in enumerate(ids):
        for b in ids[i:]:
            try:
                tau = 1.0 if a == b else kendall_tau(bias_by_metric[a], bias_by_metric[b])
            except ValueError:
                tau = None
            taus[a][b] = taus[b][a] = tau
    return taus


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.4f}"


def _render(header: list[str], rows: Iterable[list[str]], fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(header), *(",".join(cells) for cells in rows)]
    elif fmt == "markdown":
        lines = [
            "| " + " | ".join(header) + " |",
            "|" + "|".join(["---"] * len(header)) + "|",
            *("| " + " | ".join(cells) + " |" for cells in rows),
        ]
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return "\n".join(lines) + "\n"


def emit_report(rows: Sequence[EvalRow], fmt: str = "csv") -> str:
    """Render evaluation rows as CSV or markdown.

    The first row's columns, in order, give the header: each column and its
    ``_sem``. Every row's cells are read at the same keys.
    """
    if not rows:
        raise ValueError("no rows to report")
    keys = list(rows[0].columns)
    header = ["recommender", *(f"{key}{suffix}" for key in keys for suffix in ("", "_sem"))]
    cells = ([row.name, *(_fmt(v) for key in keys for v in row.columns[key])] for row in rows)
    return _render(header, cells, fmt)


def emit_correlations(taus: Mapping[str, Mapping[str, float | None]]) -> str:
    """Render ``correlate_metrics``' rows as CSV; undefined cells are blank."""
    ids = list(taus)
    return _render(["metric", *ids], ([a, *(_fmt(taus[a][b]) for b in ids)] for a in ids), "csv")


def build_manifest(
    config: Mapping[str, object],
    plan: FoldPlan,
    rows: Sequence[EvalRow],
    errors: Mapping[str, str] | None = None,
) -> str:
    """Deterministic JSON manifest of a run: config, folds, exclusions."""
    manifest = {
        "config": config,
        "folds": [[s.user for s in fold] for fold in plan.folds],
        "skipped_users": {str(u): reason for u, reason in sorted(plan.skipped.items())},
        "ineligible_users": plan.ineligible_users,
        "recommenders": [row.name for row in rows],
        "errors": dict(sorted((errors or {}).items())),
    }
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"

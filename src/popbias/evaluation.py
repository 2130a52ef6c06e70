"""Offline evaluation: per-user splits, folds, hit rates, bias aggregation.

Protocol: sample disjoint folds of users, split each user's ratings into
train/test, let every recommender produce a top-k slate from the training
side, then report recall-style hit rates and popularity-bias metrics as
mean plus/minus one standard error over folds.

Each (fold, recommender) pair is scored in one batch. A fold's requests,
training profiles and held-out items are gathered once into
``FoldInputs``, which every recommender of the fold shares.
``evaluate_recommender`` takes all of the fold's slates at once, calls
``evaluate_metric`` once per metric over them and counts hits from the
same flat slate arrays. A user is left out of a bias mean only where the
metric is undefined for that user; ``evaluate_recommender`` lists the
reasons. Fold means add per-user values left to right in fold order.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from popbias.catalog import Interaction
from popbias.metrics import PhiArray, Profiles, evaluate_metric, kendall_tau
from popbias.recommenders import BaseRecommender, RecRequest

__all__ = [
    "FoldSpec",
    "UserSplit",
    "FoldPlan",
    "FoldStats",
    "EvalRow",
    "CorrelationMatrix",
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


@dataclass(frozen=True)
class FoldSpec:
    fold_count: int = 5
    users_per_fold: int = 1000
    seed: int = 0
    train_fraction: float = 0.8
    min_ratings: int = 10

    def __post_init__(self) -> None:
        if not 0 < self.train_fraction < 1:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.fold_count < 1 or self.users_per_fold < 1:
            raise ValueError("fold_count and users_per_fold must be >= 1")


@dataclass(frozen=True)
class UserSplit:
    user: int
    train: tuple[Interaction, ...]
    test_items: frozenset[int]


@dataclass
class FoldPlan:
    folds: list[list[UserSplit]]
    skipped: dict[int, str]
    ineligible_users: int


def split_user_ratings(
    interactions: Sequence[Interaction], train_fraction: float, seed: int
) -> tuple[tuple[Interaction, ...], tuple[Interaction, ...]]:
    """Random train/test partition of one user's ratings.

    Deterministic per (user, seed): the permutation is seeded by both, so
    the split does not depend on evaluation order or fold membership.
    """
    if not interactions:
        raise ValueError("no interactions to split")
    user = interactions[0].user
    ordered = sorted(interactions, key=lambda it: (it.timestamp, it.item))
    rng = np.random.default_rng([seed, user])
    perm = rng.permutation(len(ordered))
    n_train = int(round(train_fraction * len(ordered)))
    train_idx = sorted(perm[:n_train])
    test_idx = sorted(perm[n_train:])
    return (
        tuple(ordered[i] for i in train_idx),
        tuple(ordered[i] for i in test_idx),
    )


def make_folds(interactions: Iterable[Interaction], spec: FoldSpec) -> FoldPlan:
    """Sample disjoint user folds and split each sampled user's ratings."""
    by_user: dict[int, list[Interaction]] = {}
    for it in interactions:
        by_user.setdefault(it.user, []).append(it)

    eligible = sorted(u for u, its in by_user.items() if len(its) >= spec.min_ratings)
    ineligible = len(by_user) - len(eligible)
    needed = spec.fold_count * spec.users_per_fold
    if len(eligible) < needed:
        raise ValueError(
            f"need {needed} users with >= {spec.min_ratings} ratings, "
            f"only {len(eligible)} available"
        )
    rng = np.random.default_rng([spec.seed, len(eligible)])
    sampled = [eligible[i] for i in rng.permutation(len(eligible))[:needed]]

    skipped: dict[int, str] = {}
    folds: list[list[UserSplit]] = []
    for f in range(spec.fold_count):
        fold_users = sorted(sampled[f * spec.users_per_fold : (f + 1) * spec.users_per_fold])
        fold: list[UserSplit] = []
        for user in fold_users:
            train, test = split_user_ratings(by_user[user], spec.train_fraction, spec.seed)
            if not test:
                skipped[user] = "empty test set after split"
                continue
            if not train:
                skipped[user] = "empty training set after split"
                continue
            fold.append(
                UserSplit(
                    user=user,
                    train=train,
                    test_items=frozenset(it.item for it in test),
                )
            )
        folds.append(fold)
    return FoldPlan(folds=folds, skipped=skipped, ineligible_users=ineligible)


@dataclass
class FoldStats:
    """Unweighted per-fold means plus exclusion counters."""

    n_users: int
    hr5: float
    hr10: float
    bias: dict[str, float | None]
    unmatched: float
    empty_slates: int
    bias_excluded: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class FoldInputs:
    """What every recommender of one fold shares, one row per user in fold order.

    ``requests`` ask for each user's slate, ``train`` holds the training
    profiles the bias metrics compare slates against and ``test`` the
    held-out items the hit rates count.
    """

    requests: list[RecRequest]
    train: Profiles
    test: Profiles

    @classmethod
    def of(cls, fold: Sequence[UserSplit]) -> "FoldInputs":
        if not fold:
            raise ValueError("fold has no users")
        for s in fold:
            if not s.test_items:
                raise ValueError(f"user {s.user} has an empty test set")
        train = [tuple(it.item for it in s.train) for s in fold]
        return cls(
            requests=[
                RecRequest(user=s.user, train=s.train, exclude=frozenset(items))
                for s, items in zip(fold, train)
            ],
            train=Profiles.of(train),
            test=Profiles.of(s.test_items for s in fold),
        )


def _sum_in_order(values: np.ndarray) -> float:
    """Sum from 0.0, left to right in fold order, one user at a time.

    Fold means are defined by this order, not by numpy's pairwise one.
    """
    return float(np.add.accumulate(np.concatenate(([0.0], values)))[-1])


def _held_out(slates: Profiles, test: Profiles) -> np.ndarray:
    """Which slate items are held-out items of their own user."""
    ids, codes = np.unique(np.concatenate((slates.items, test.items)), return_inverse=True)
    slate_keys = slates.rows * ids.size + codes[: slates.items.size]
    test_keys = test.rows * ids.size + codes[slates.items.size :]
    return np.isin(slate_keys, test_keys)


def evaluate_recommender(
    rec: BaseRecommender,
    fold: FoldInputs,
    phi: PhiArray,
    metric_ids: Sequence[str] = DEFAULT_METRICS,
    k: int = 10,
) -> FoldStats:
    """Run one recommender over one fold and average per-user results.

    The fold is scored in one batch: each metric is evaluated once, by
    ``evaluate_metric``, over every user's slate and training profile.
    Hit rates at 5 and 10 are recall: the share of a user's held-out items
    among the first 5 or 10 slate items. Every user counts in them, a user
    with an empty slate as zero.

    A user is left out of a bias mean, and counted in ``bias_excluded``,
    where the metric is undefined for that user:

    * an empty slate excludes the user from every metric (and is counted
      in ``empty_slates`` too);
    * a slate or profile item missing from ``phi`` excludes the user from
      every metric;
    * a score below 1 (log domain) excludes the user from ``log_pop_diff``;
    * a user aggregate of zero excludes the user from ``avg_pop_lift``;
    * a score that is not positive excludes the user from ``gini_diff``
      and ``herfindahl_diff``.

    Each mean sums its per-user values left to right in fold order.
    """
    results = rec.recommend_batch(fold.requests, k)
    slates = Profiles.of(result.slate.entries for result in results)
    n = len(results)

    bias: dict[str, float | None] = {}
    bias_excluded: dict[str, int] = {}
    for m in metric_ids:
        values = evaluate_metric(m, slates, fold.train, phi)
        defined = values[~np.isnan(values)]
        bias[m] = _sum_in_order(defined) / defined.size if defined.size else None
        bias_excluded[m] = n - defined.size

    held_out = _held_out(slates, fold.test)
    rows, positions = slates.rows[held_out], slates.positions[held_out]

    def hit_rate(cut: int) -> float:
        hits = np.bincount(rows[positions < cut], minlength=n)
        return _sum_in_order(hits / fold.test.lengths) / n

    return FoldStats(
        n_users=n,
        hr5=hit_rate(5),
        hr10=hit_rate(10),
        bias=bias,
        unmatched=sum(result.unmatched for result in results) / n,
        empty_slates=int(np.count_nonzero(slates.lengths == 0)),
        bias_excluded=bias_excluded,
    )


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
    """One recommender's fold-aggregated results: (mean, sem) pairs.

    A bias metric defined in fewer than 2 folds has (None, None).
    """

    name: str
    hr5: tuple[float, float]
    hr10: tuple[float, float]
    bias: dict[str, tuple[float | None, float | None]]
    unmatched: tuple[float, float]


def summarize(name: str, fold_stats: Sequence[FoldStats]) -> EvalRow:
    """Aggregate per-fold means into one report row."""
    bias: dict[str, tuple[float | None, float | None]] = {}
    for m in fold_stats[0].bias:
        values = [fs.bias[m] for fs in fold_stats if fs.bias[m] is not None]
        bias[m] = aggregate_folds(values) if len(values) >= 2 else (None, None)
    return EvalRow(
        name=name,
        hr5=aggregate_folds([fs.hr5 for fs in fold_stats]),
        hr10=aggregate_folds([fs.hr10 for fs in fold_stats]),
        bias=bias,
        unmatched=aggregate_folds([fs.unmatched for fs in fold_stats]),
    )


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric Kendall-tau matrix over metric ids; None marks undefined."""

    metric_ids: tuple[str, ...]
    values: dict[tuple[str, str], float | None]

    def tau(self, a: str, b: str) -> float | None:
        return self.values[(a, b)]


def correlate_metrics(bias_by_metric: Mapping[str, Sequence[float]]) -> CorrelationMatrix:
    """Pairwise Kendall tau between metrics across recommender rows."""
    ids = tuple(bias_by_metric)
    if not ids:
        raise ValueError("no metrics to correlate")
    lengths = {len(v) for v in bias_by_metric.values()}
    if len(lengths) != 1:
        raise ValueError("metric vectors have unequal lengths")
    n = lengths.pop()
    if n < 4:
        raise ValueError(f"need at least 4 rows to correlate, got {n}")
    values: dict[tuple[str, str], float | None] = {}
    for a in ids:
        for b in ids:
            if a == b:
                values[(a, b)] = 1.0
                continue
            if (b, a) in values:
                values[(a, b)] = values[(b, a)]
                continue
            try:
                values[(a, b)] = kendall_tau(bias_by_metric[a], bias_by_metric[b])
            except ValueError:
                values[(a, b)] = None
    return CorrelationMatrix(metric_ids=ids, values=values)


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.4f}"


def report_columns(rows: Sequence[EvalRow]) -> list[str]:
    metric_ids = list(rows[0].bias)
    cols = ["recommender", "hr5", "hr5_sem", "hr10", "hr10_sem"]
    for m in metric_ids:
        cols.extend([m, f"{m}_sem"])
    cols.extend(["unmatched", "unmatched_sem"])
    return cols


def _row_cells(row: EvalRow) -> list[str]:
    cells = [row.name, _fmt(row.hr5[0]), _fmt(row.hr5[1]), _fmt(row.hr10[0]), _fmt(row.hr10[1])]
    for mean_sem in row.bias.values():
        cells.extend([_fmt(mean_sem[0]), _fmt(mean_sem[1])])
    cells.extend([_fmt(row.unmatched[0]), _fmt(row.unmatched[1])])
    return cells


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
    """Render evaluation rows as CSV or markdown."""
    if not rows:
        raise ValueError("no rows to report")
    return _render(report_columns(rows), (_row_cells(row) for row in rows), fmt)


def emit_correlations(matrix: CorrelationMatrix) -> str:
    """Render a Kendall-tau matrix as CSV; undefined cells are blank."""
    ids = matrix.metric_ids
    return _render(
        ["metric", *ids], ([a, *(_fmt(matrix.tau(a, b)) for b in ids)] for a in ids), "csv"
    )


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

import csv
import io
import json
import math
import random

import numpy as np
import pytest
from click.testing import CliRunner

from popbias.catalog import Interaction, Ratings
from popbias.cli import main
from popbias.evaluation import (
    FoldInputs,
    FoldSpec,
    FoldStats,
    UserSplit,
    emit_report,
    evaluate_recommender,
    make_folds,
    split_user_ratings,
    summarize,
)
from popbias.metrics import METRICS, PhiArray, Profiles
from popbias.recommenders import BaseRecommender, Slate

BIAS_METRICS = ("log_pop_diff", "avg_pop_lift", "gini_diff", "herfindahl_diff")


def _interactions(n_users=40, per_user=12):
    """Every user rates ``per_user`` distinct items at distinct timestamps."""
    rng = random.Random(3)
    return [
        Interaction(user, item, 4.0, 1000 * user + t)
        for user in range(n_users)
        for t, item in enumerate(rng.sample(range(200), per_user))
    ]


def _splits(plan):
    return {s.user: s for fold in plan.folds for s in fold}


def test_make_folds_are_disjoint_and_partition_each_user():
    interactions = _interactions()
    plan = make_folds(Ratings.of(interactions), FoldSpec(fold_count=3, users_per_fold=10))
    users = [{s.user for s in fold} for fold in plan.folds]
    assert [len(u) for u in users] == [10, 10, 10]
    assert len(set().union(*users)) == 30
    for split in _splits(plan).values():
        rated = {it.item for it in interactions if it.user == split.user}
        train = {it.item for it in split.train}
        assert train.isdisjoint(split.test_items)
        assert train | split.test_items == rated


def test_make_folds_rejects_a_table_not_sorted_by_user():
    n = 24
    ratings = Ratings(
        np.array([1, 2] * (n // 2)), np.arange(n), np.full(n, 4.0), np.arange(n)
    )
    with pytest.raises(ValueError, match=r"not sorted by user: row 2 \(user 1\) follows user 2"):
        make_folds(ratings, FoldSpec(fold_count=1, users_per_fold=2, min_ratings=1))


def test_split_depends_only_on_user_and_seed():
    interactions = _interactions()
    spec = FoldSpec(fold_count=3, users_per_fold=10, seed=7)
    a = _splits(make_folds(Ratings.of(interactions), spec))
    shuffled = list(interactions)
    random.Random(0).shuffle(shuffled)
    spec = FoldSpec(fold_count=2, users_per_fold=18, seed=7)
    b = _splits(make_folds(Ratings.of(shuffled), spec))
    shared = a.keys() & b.keys()
    assert shared

    def own_split(user, seed):
        own = sorted(
            (it for it in shuffled if it.user == user), key=lambda it: (it.timestamp, it.item)
        )
        train, test = split_user_ratings(user, len(own), 0.8, seed=seed)
        return tuple(own[i] for i in train), frozenset(own[i].item for i in test)

    for user in shared:
        assert (tuple(a[user].train), a[user].test_items) == (
            tuple(b[user].train),
            b[user].test_items,
        )
        assert own_split(user, seed=7) == (tuple(a[user].train), a[user].test_items)
    assert any(own_split(user, seed=8)[0] != tuple(a[user].train) for user in shared)


def _fold(hr, log_pop_diff, pru):
    means = {"hr5": hr, "hr10": 2 * hr, "log_pop_diff": log_pop_diff, "pru": pru, "unmatched": 0.0}
    excluded = {column: 0 if mean is not None else 10 for column, mean in means.items()}
    return FoldStats(n_users=10, means=means, excluded=excluded, empty_slates=0)


def test_summarize_mean_and_standard_error():
    row = summarize("rec", [_fold(1.0, 1.0, None), _fold(2.0, None, 0.5), _fold(4.0, 3.0, None)])
    # hr5 over [1, 2, 4]: mean 7/3, sample variance 7/3, so SEM sqrt(7/3)/sqrt(3).
    assert row.columns["hr5"] == pytest.approx((7 / 3, math.sqrt(7) / 3), abs=1e-12)
    assert row.columns["hr10"] == pytest.approx((14 / 3, 2 * math.sqrt(7) / 3), abs=1e-12)
    # log_pop_diff is defined in two folds: [1, 3] gives mean 2, SEM sqrt(2)/sqrt(2).
    assert row.columns["log_pop_diff"] == pytest.approx((2.0, 1.0), abs=1e-12)
    # pru is defined in one fold only, which leaves its cells blank.
    assert row.columns["pru"] == (None, None)
    assert row.columns["unmatched"] == (0.0, 0.0)
    with pytest.raises(ValueError, match="need at least 2 folds"):
        summarize("rec", [_fold(1.0, 1.0, None)])


def test_baseline_hit_rates_order_on_eval_corpus(eval_corpus, tmp_path):
    movies, ratings = eval_corpus
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {"data": {"movies": str(movies), "ratings": str(ratings)}, "folds": {"fold_count": 2}}
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["evaluate", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = csv.DictReader(io.StringIO((out / "report.csv").read_text(encoding="utf-8")))
    hr10 = {row["recommender"]: float(row["hr10"]) for row in rows}
    assert hr10["user_knn"] > hr10["item_knn"] > hr10["top_pop"] > hr10["random"]


class FixedSlates(BaseRecommender):
    """Serves a preset slate per user."""

    def __init__(self, by_user):
        self.by_user = by_user

    def slates(self, requests, k):
        return [Slate(self.by_user[request.user]) for request in requests]


def _fold_of(*splits):
    """One fold of (user, train items, test items) splits over one ratings table.

    Users come in ascending order; each rates its train items, then its
    test items, 4.0 each, in that watch order.
    """
    table = Ratings.of(
        Interaction(user, item, 4.0, t)
        for user, train, test in splits
        for t, item in enumerate((*train, *test))
    )
    fold = []
    for user, train, test in splits:
        start = int(np.searchsorted(table.user, user))
        rows = start + np.arange(len(train) + len(test))
        fold.append(UserSplit(user, table, rows[: len(train)], rows[len(train) :]))
    return fold


def test_each_exclusion_reason_leaves_a_user_out_of_its_metrics_only():
    phi = {1: 4.0, 2: 2.0, 3: 8.0, 4: 1.0, 5: 0.5}
    fold = _fold_of(
        (1, (1, 2), (3,)),
        (2, (1, 3), (4,)),  # empty slate: out of every metric
        (3, (2, 4), (1,)),  # slate item 99 lacks phi: out of every metric
        (4, (5, 1), (2, 6)),  # phi 0.5 < 1: out of log_pop_diff only
    )
    rec = FixedSlates({1: (3, 4), 2: (), 3: (1, 99), 4: (3, 2)})
    stats = evaluate_recommender(rec, FoldInputs.of(fold), PhiArray.of(phi), BIAS_METRICS)

    assert stats.n_users == 4
    assert stats.empty_slates == 1
    assert stats.excluded == {
        "hr5": 0,
        "hr10": 0,
        "log_pop_diff": 3,
        "avg_pop_lift": 2,
        "gini_diff": 2,
        "herfindahl_diff": 2,
        "unmatched": 0,
    }
    # User 1 scores r = (8, 1) against u = (4, 2); user 4 r = (8, 2) against u = (0.5, 4).
    assert stats.means["log_pop_diff"] == pytest.approx(
        (math.log(8) + math.log(1)) / 2 - (math.log(4) + math.log(2)) / 2, abs=1e-12
    )
    assert stats.means["avg_pop_lift"] == pytest.approx((0.5 + 11 / 9) / 2, abs=1e-12)
    # Gini of (1, 8) is 7/18, of (2, 4) 1/6, of (2, 8) 3/10 and of (0.5, 4) 7/18.
    assert stats.means["gini_diff"] == pytest.approx((2 / 9 - 4 / 45) / 2, abs=1e-12)
    # Herfindahl of (1, 8) is 65/81, of (2, 4) 5/9, of (2, 8) 0.68 and of (0.5, 4) 65/81.
    assert stats.means["herfindahl_diff"] == pytest.approx(
        (20 / 81 + 0.68 - 65 / 81) / 2, abs=1e-12
    )
    # Hit rates count every user; the empty slate hits nothing.
    assert stats.means["hr5"] == stats.means["hr10"] == (1 + 0 + 1 + 0.5) / 4
    assert stats.means["unmatched"] == 0.0


def _reference_stats(fold, slates, phi):
    """The per-user loop: hit rates over sets, one-row metric calls, in-order sums."""
    hr = {5: 0.0, 10: 0.0}
    totals = {m: 0.0 for m in BIAS_METRICS}
    counts = {m: 0 for m in BIAS_METRICS}
    phi_array = PhiArray.of(phi)
    for split in fold:
        slate = slates[split.user]
        for cut in hr:
            hr[cut] += len(set(slate[:cut]) & split.test_items) / len(split.test_items)
        train = Profiles.of([(it.item for it in split.train)])
        for m in BIAS_METRICS:
            value = METRICS[m].evaluate_rows(Profiles.of([slate]), train, phi_array)[0]
            if np.isnan(value):
                continue
            totals[m] += value
            counts[m] += 1
    n = len(fold)
    bias = {m: totals[m] / counts[m] if counts[m] else None for m in BIAS_METRICS}
    return hr[5] / n, hr[10] / n, bias, {m: n - counts[m] for m in BIAS_METRICS}


def test_fold_batch_equals_the_per_user_loop_exactly():
    rng = random.Random(5)
    items = range(1, 400)
    phi = {item: float(rng.randint(1, 500)) for item in items if item % 37}
    splits, slates = [], {}
    for user in range(300):
        rated = rng.sample(items, rng.choice([3, 9, 40, 130, 200]))
        cut = max(1, len(rated) // 5)
        splits.append((user, rated[cut:], rated[:cut]))
        unseen = [item for item in items if item not in rated[cut:]]
        slates[user] = tuple(rng.sample(unseen, rng.choice([0, 3, 10, 10, 10])))
    fold = _fold_of(*splits)
    stats = evaluate_recommender(
        FixedSlates(slates), FoldInputs.of(fold), PhiArray.of(phi), BIAS_METRICS
    )
    hr5, hr10, bias, excluded = _reference_stats(fold, slates, phi)
    assert (stats.means["hr5"], stats.means["hr10"]) == (hr5, hr10)
    assert {m: stats.means[m] for m in BIAS_METRICS} == bias
    assert {m: stats.excluded[m] for m in BIAS_METRICS} == excluded
    assert 0 < excluded["log_pop_diff"] < len(fold)


def test_a_folds_training_statistics_are_computed_once_per_metric(monkeypatch):
    phi = {1: 4.0, 2: 2.0, 3: 8.0, 4: 1.0, 5: 3.0}
    fold = _fold_of((1, (1, 2), (3,)), (2, (1, 3), (4,)), (3, (2, 4), (5,)))
    recs = [
        FixedSlates({1: (3, 4), 2: (2, 5), 3: (1, 3)}),
        FixedSlates({1: (5,), 2: (4,), 3: (5,)}),
    ]
    fresh = [evaluate_recommender(rec, FoldInputs.of(fold), PhiArray.of(phi)) for rec in recs]

    inputs = FoldInputs.of(fold)
    calls = []
    statistics = type(METRICS["log_pop_diff"]).statistics

    def counted(self, p, phi_array):
        calls.append((self.id, p is inputs.train))
        return statistics(self, p, phi_array)

    monkeypatch.setattr(type(METRICS["log_pop_diff"]), "statistics", counted)
    phi_array = PhiArray.of(phi)
    shared = [evaluate_recommender(rec, inputs, phi_array) for rec in recs]
    assert [s.means for s in shared] == [s.means for s in fresh]
    assert sorted(m for m, train in calls if train) == sorted(BIAS_METRICS)
    assert sum(not train for _, train in calls) == 2 * len(BIAS_METRICS)
    # Another phi gives another column.
    calls.clear()
    evaluate_recommender(recs[0], inputs, PhiArray.of({**phi, 1: 40.0}))
    assert sorted(m for m, train in calls if train) == sorted(BIAS_METRICS)


def test_report_layout_of_a_two_fold_run():
    phi = {1: 4.0, 2: 2.0, 3: 8.0, 4: 1.0, 5: 0.5, 6: 2.0, 7: 2.0, 8: 2.0, 9: 2.0}
    folds = [
        _fold_of((1, (1, 2), (3,)), (2, (1, 3), (4,))),
        _fold_of((3, (2, 4), (1,)), (4, (3, 4), (2, 6))),
    ]
    # User 2 hits at the sixth slot, so only its hr10 counts it. Item 5
    # (phi 0.5) leaves log_pop_diff undefined for both users of fold 2.
    rec = FixedSlates({1: (3, 4), 2: (2, 6, 7, 8, 9, 4), 3: (5, 1), 4: (5, 2)})
    metric_ids = ("log_pop_diff", "avg_pop_lift")
    stats = [
        evaluate_recommender(rec, FoldInputs.of(fold), PhiArray.of(phi), metric_ids)
        for fold in folds
    ]
    rows = [summarize("fixed", stats)]
    # hr5 over folds (0.5, 0.75), hr10 (1, 0.75); avg_pop_lift (-7/72, -1/9).
    assert emit_report(rows, fmt="csv") == (
        "recommender,hr5,hr5_sem,hr10,hr10_sem,log_pop_diff,log_pop_diff_sem,"
        "avg_pop_lift,avg_pop_lift_sem,unmatched,unmatched_sem\n"
        "fixed,0.6250,0.1250,0.8750,0.1250,,,-0.1042,0.0069,0.0000,0.0000\n"
    )
    assert emit_report(rows, fmt="markdown") == (
        "| recommender | hr5 | hr5_sem | hr10 | hr10_sem | log_pop_diff | log_pop_diff_sem"
        " | avg_pop_lift | avg_pop_lift_sem | unmatched | unmatched_sem |\n"
        "|---|---|---|---|---|---|---|---|---|---|---|\n"
        "| fixed | 0.6250 | 0.1250 | 0.8750 | 0.1250 |  |  | -0.1042 | 0.0069 | 0.0000 | 0.0000 |\n"
    )

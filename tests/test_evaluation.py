import csv
import io
import json
import math
import random

import pytest
from click.testing import CliRunner

from popbias.catalog import Interaction
from popbias.cli import main
from popbias.evaluation import (
    FoldInputs,
    FoldSpec,
    FoldStats,
    UserSplit,
    evaluate_recommender,
    make_folds,
    split_user_ratings,
    summarize,
)
from popbias.metrics import METRICS, PhiArray, Profile
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
    plan = make_folds(interactions, FoldSpec(fold_count=3, users_per_fold=10))
    users = [{s.user for s in fold} for fold in plan.folds]
    assert [len(u) for u in users] == [10, 10, 10]
    assert len(set().union(*users)) == 30
    for split in _splits(plan).values():
        rated = {it.item for it in interactions if it.user == split.user}
        train = {it.item for it in split.train}
        assert train.isdisjoint(split.test_items)
        assert train | split.test_items == rated


def test_split_depends_only_on_user_and_seed():
    interactions = _interactions()
    a = _splits(make_folds(interactions, FoldSpec(fold_count=3, users_per_fold=10, seed=7)))
    shuffled = list(interactions)
    random.Random(0).shuffle(shuffled)
    b = _splits(make_folds(shuffled, FoldSpec(fold_count=2, users_per_fold=18, seed=7)))
    shared = a.keys() & b.keys()
    assert shared
    for user in shared:
        assert a[user] == b[user]
        own = [it for it in shuffled if it.user == user]
        train, _ = split_user_ratings(own, 0.8, seed=7)
        assert train == a[user].train
    other_seed = {
        user: split_user_ratings([it for it in interactions if it.user == user], 0.8, seed=8)[0]
        for user in shared
    }
    assert any(other_seed[user] != a[user].train for user in shared)


def _fold(hr, log_pop_diff, pru):
    return FoldStats(
        n_users=10,
        hr5=hr,
        hr10=2 * hr,
        bias={"log_pop_diff": log_pop_diff, "pru": pru},
        unmatched=0.0,
        empty_slates=0,
    )


def test_summarize_mean_and_standard_error():
    row = summarize("rec", [_fold(1.0, 1.0, None), _fold(2.0, None, 0.5), _fold(4.0, 3.0, None)])
    # hr5 over [1, 2, 4]: mean 7/3, sample variance 7/3, so SEM sqrt(7/3)/sqrt(3).
    assert row.hr5 == pytest.approx((7 / 3, math.sqrt(7) / 3), abs=1e-12)
    assert row.hr10 == pytest.approx((14 / 3, 2 * math.sqrt(7) / 3), abs=1e-12)
    # log_pop_diff is defined in two folds: [1, 3] gives mean 2, SEM sqrt(2)/sqrt(2).
    assert row.bias["log_pop_diff"] == pytest.approx((2.0, 1.0), abs=1e-12)
    # pru is defined in one fold only, which leaves its cells blank.
    assert row.bias["pru"] == (None, None)
    assert row.unmatched == (0.0, 0.0)


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
        return [Slate(self.by_user[request.user], k) for request in requests]


def _split(user, train, test):
    return UserSplit(
        user=user,
        train=tuple(Interaction(user, item, 4.0, t) for t, item in enumerate(train)),
        test_items=frozenset(test),
    )


def test_each_exclusion_reason_leaves_a_user_out_of_its_metrics_only():
    phi = {1: 4.0, 2: 2.0, 3: 8.0, 4: 1.0, 5: 0.5}
    fold = [
        _split(1, train=(1, 2), test=(3,)),
        _split(2, train=(1, 3), test=(4,)),  # empty slate: out of every metric
        _split(3, train=(2, 4), test=(1,)),  # slate item 99 lacks phi: out of every metric
        _split(4, train=(5, 1), test=(2, 6)),  # phi 0.5 < 1: out of log_pop_diff only
    ]
    rec = FixedSlates({1: (3, 4), 2: (), 3: (1, 99), 4: (3, 2)})
    stats = evaluate_recommender(rec, FoldInputs.of(fold), PhiArray.of(phi), BIAS_METRICS)

    assert stats.n_users == 4
    assert stats.empty_slates == 1
    assert stats.bias_excluded == {
        "log_pop_diff": 3,
        "avg_pop_lift": 2,
        "gini_diff": 2,
        "herfindahl_diff": 2,
    }
    # User 1 scores r = (8, 1) against u = (4, 2); user 4 r = (8, 2) against u = (0.5, 4).
    assert stats.bias["log_pop_diff"] == pytest.approx(
        (math.log(8) + math.log(1)) / 2 - (math.log(4) + math.log(2)) / 2, abs=1e-12
    )
    assert stats.bias["avg_pop_lift"] == pytest.approx((0.5 + 11 / 9) / 2, abs=1e-12)
    # Gini of (1, 8) is 7/18, of (2, 4) 1/6, of (2, 8) 3/10 and of (0.5, 4) 7/18.
    assert stats.bias["gini_diff"] == pytest.approx((2 / 9 - 4 / 45) / 2, abs=1e-12)
    # Herfindahl of (1, 8) is 65/81, of (2, 4) 5/9, of (2, 8) 0.68 and of (0.5, 4) 65/81.
    assert stats.bias["herfindahl_diff"] == pytest.approx(
        (20 / 81 + 0.68 - 65 / 81) / 2, abs=1e-12
    )
    # Hit rates count every user; the empty slate hits nothing.
    assert stats.hr5 == stats.hr10 == (1 + 0 + 1 + 0.5) / 4
    assert stats.unmatched == 0.0


def _reference_stats(fold, slates, phi):
    """The per-user loop: hit rates over sets, one-pair metrics, in-order sums."""
    hr = {5: 0.0, 10: 0.0}
    totals = {m: 0.0 for m in BIAS_METRICS}
    counts = {m: 0 for m in BIAS_METRICS}
    for split in fold:
        slate = slates[split.user]
        for cut in hr:
            hr[cut] += len(set(slate[:cut]) & split.test_items) / len(split.test_items)
        for m in BIAS_METRICS:
            try:
                value = METRICS[m].evaluate(
                    Profile(slate), Profile(tuple(it.item for it in split.train)), phi
                )
            except ValueError:
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
    fold, slates = [], {}
    for user in range(300):
        rated = rng.sample(items, rng.choice([3, 9, 40, 130, 200]))
        cut = max(1, len(rated) // 5)
        fold.append(_split(user, train=rated[cut:], test=rated[:cut]))
        unseen = [item for item in items if item not in rated[cut:]]
        slates[user] = tuple(rng.sample(unseen, rng.choice([0, 3, 10, 10, 10])))
    stats = evaluate_recommender(
        FixedSlates(slates), FoldInputs.of(fold), PhiArray.of(phi), BIAS_METRICS
    )
    hr5, hr10, bias, excluded = _reference_stats(fold, slates, phi)
    assert (stats.hr5, stats.hr10) == (hr5, hr10)
    assert stats.bias == bias
    assert stats.bias_excluded == excluded
    assert 0 < excluded["log_pop_diff"] < len(fold)

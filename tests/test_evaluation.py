import csv
import io
import json
import math
import random

import pytest
from click.testing import CliRunner

from popbias.catalog import Interaction
from popbias.cli import main
from popbias.evaluation import FoldSpec, FoldStats, make_folds, split_user_ratings, summarize


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

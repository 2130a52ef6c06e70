import csv
import io
import json
import math
import random

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from popbias import evaluation
from popbias.catalog import Interaction, Ratings
from popbias.cli import main
from popbias.evaluation import (
    FoldInputs,
    FoldSpec,
    UserSplit,
    aggregate_folds,
    correlate_metrics,
    emit_correlations,
    emit_report,
    evaluate_recommender,
    make_folds,
    split_user_ratings,
    summarize,
)
from popbias.metrics import METRICS, PhiArray, Profiles
from popbias.recommenders import BaseRecommender, RandomRecommender, Slate, TopPopRecommender

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


def test_make_folds_names_a_negative_user():
    users = np.repeat(np.arange(-3, 30), 12)
    ratings = Ratings.from_columns(
        users, np.tile(np.arange(12), 33), np.full(users.size, 4.0), np.arange(users.size)
    )
    with pytest.raises(ValueError, match=r"user ids must be >= 0: user -3$"):
        make_folds(ratings, FoldSpec(fold_count=2, users_per_fold=15))


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


def _table(hr, log_pop_diff, pru):
    """A three-user fold table with the given fold means; None leaves a column all NaN.

    Hit rates are spread around ``hr``; each bias column is defined for the
    first and last user only.
    """

    def bias(mean):
        return np.full(3, np.nan) if mean is None else np.array([mean - 0.5, np.nan, mean + 0.5])

    return {
        "hr5": np.array([hr - 1, hr, hr + 1]),
        "hr10": 2 * np.array([hr - 1, hr, hr + 1]),
        "log_pop_diff": bias(log_pop_diff),
        "pru": bias(pru),
        "unmatched": np.zeros(3),
    }


def test_summarize_mean_and_standard_error():
    row = summarize(
        "rec", [_table(1.0, 1.0, None), _table(2.0, None, 0.5), _table(4.0, 3.0, None)]
    )
    assert list(row.columns) == ["hr5", "hr10", "log_pop_diff", "pru", "unmatched"]
    # hr5 over [1, 2, 4]: mean 7/3, sample variance 7/3, so SEM sqrt(7/3)/sqrt(3).
    assert row.columns["hr5"] == pytest.approx((7 / 3, math.sqrt(7) / 3), abs=1e-12)
    assert row.columns["hr10"] == pytest.approx((14 / 3, 2 * math.sqrt(7) / 3), abs=1e-12)
    # log_pop_diff is defined in two folds: [1, 3] gives mean 2, SEM sqrt(2)/sqrt(2).
    assert row.columns["log_pop_diff"] == pytest.approx((2.0, 1.0), abs=1e-12)
    # pru is defined in one fold only, which leaves its cells blank.
    assert row.columns["pru"] == (None, None)
    assert row.columns["unmatched"] == (0.0, 0.0)
    with pytest.raises(ValueError, match="need at least 2 folds"):
        summarize("rec", [_table(1.0, 1.0, None)])


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
    table = evaluate_recommender(rec, FoldInputs.of(fold, PhiArray.of(phi), BIAS_METRICS), 10)

    assert {column: int(np.isnan(values).sum()) for column, values in table.items()} == {
        "hr5": 0,
        "hr10": 0,
        "log_pop_diff": 3,
        "avg_pop_lift": 2,
        "gini_diff": 2,
        "herfindahl_diff": 2,
        "unmatched": 0,
    }
    nan = math.nan
    # User 1 scores r = (8, 1) against u = (4, 2); user 4 r = (8, 2) against u = (0.5, 4).
    np.testing.assert_allclose(
        table["log_pop_diff"],
        [(math.log(8) + math.log(1)) / 2 - (math.log(4) + math.log(2)) / 2, nan, nan, nan],
        rtol=0,
        atol=1e-12,
    )
    np.testing.assert_allclose(table["avg_pop_lift"], [0.5, nan, nan, 11 / 9], rtol=0, atol=1e-12)
    # Gini of (1, 8) is 7/18, of (2, 4) 1/6, of (2, 8) 3/10 and of (0.5, 4) 7/18.
    np.testing.assert_allclose(
        table["gini_diff"], [2 / 9, nan, nan, -4 / 45], rtol=0, atol=1e-12
    )
    # Herfindahl of (1, 8) is 65/81, of (2, 4) 5/9, of (2, 8) 0.68 and of (0.5, 4) 65/81.
    np.testing.assert_allclose(
        table["herfindahl_diff"], [20 / 81, nan, nan, 0.68 - 65 / 81], rtol=0, atol=1e-12
    )
    # Hit rates count every user; the empty slate hits nothing.
    np.testing.assert_array_equal(table["hr5"], [1, 0, 1, 0.5])
    np.testing.assert_array_equal(table["hr10"], table["hr5"])
    # Every slate is short of k = 10; the empty one leaves all ten slots unfilled.
    np.testing.assert_array_equal(table["unmatched"], [8, 10, 8, 8])
    row = summarize("fixed", [table, table])
    assert row.columns["hr5"] == ((1 + 0 + 1 + 0.5) / 4, 0.0)
    assert row.columns["avg_pop_lift"] == pytest.approx(((0.5 + 11 / 9) / 2, 0.0), abs=1e-12)


def test_the_table_has_one_row_per_request_in_request_order():
    phi = {item: float(item) for item in range(1, 10)}
    # Users 3, 1, 2: the fold is not in user id order.
    fold = _fold_of((3, (1, 2), (3,)), (1, (4, 5), (6, 9)), (2, (7, 8), (9,)))
    inputs = FoldInputs.of(fold, PhiArray.of(phi), ["log_pop_diff"])
    table = evaluate_recommender(FixedSlates({3: (3,), 1: (6,), 2: ()}), inputs, 10)

    assert [request.user for request in inputs.requests] == [3, 1, 2]
    assert list(table) == ["hr5", "hr10", "log_pop_diff", "unmatched"]
    assert all(values.shape == (3,) for values in table.values())
    np.testing.assert_array_equal(table["hr5"], [1.0, 0.5, 0.0])
    np.testing.assert_allclose(
        table["log_pop_diff"],
        [math.log(3) - math.log(2) / 2, math.log(6) - math.log(20) / 2, math.nan],
        rtol=0,
        atol=1e-12,
    )


def test_a_baselines_short_and_empty_slates_count_their_unfilled_slots():
    # Five catalog items: user 1 has seen two of them, user 2 all five.
    phi = {item: float(item) for item in range(1, 6)}
    fold = _fold_of((1, (1, 2), (3,)), (2, (1, 2, 3, 4, 5), (6,)))
    inputs = FoldInputs.of(fold, PhiArray.of(phi), ["log_pop_diff"])
    for rec in (RandomRecommender(PhiArray.of(phi), seed=0), TopPopRecommender(PhiArray.of(phi))):
        table = evaluate_recommender(rec, inputs, 10)
        np.testing.assert_array_equal(table["unmatched"], [7, 10], err_msg=rec.name)


def _reference_table(fold, slates, phi, k):
    """The per-user loop: hit rates over sets, one-row metric calls."""
    phi_array = PhiArray.of(phi)
    table = {"hr5": [], "hr10": [], **{m: [] for m in BIAS_METRICS}, "unmatched": []}
    for split in fold:
        slate = slates[split.user]
        for cut in (5, 10):
            hits = len(set(slate[:cut]) & split.test_items)
            table[f"hr{cut}"].append(hits / len(split.test_items))
        train = Profiles.of([(it.item for it in split.train)])
        for m in BIAS_METRICS:
            table[m].append(METRICS[m].evaluate_rows(Profiles.of([slate]), train, phi_array)[0])
        table["unmatched"].append(float(k - len(slate)))
    return {column: np.array(values) for column, values in table.items()}


def _reference_mean(values):
    """The mean of the defined values, summed left to right from 0.0."""
    total, count = 0.0, 0
    for value in values:
        if not np.isnan(value):
            total += value
            count += 1
    return total / count


def test_fold_batch_equals_the_per_user_loop_exactly():
    rng = random.Random(5)
    items = range(1, 400)
    phi = {item: float(rng.randint(1, 500)) for item in items if item % 37}
    folds, slates = [], {}
    for users in (range(300), range(300, 500)):
        splits = []
        for user in users:
            rated = rng.sample(items, rng.choice([3, 9, 40, 130, 200]))
            cut = max(1, len(rated) // 5)
            splits.append((user, rated[cut:], rated[:cut]))
            unseen = [item for item in items if item not in rated[cut:]]
            slates[user] = tuple(rng.sample(unseen, rng.choice([0, 3, 10, 10, 10])))
        folds.append(_fold_of(*splits))
    phi_array = PhiArray.of(phi)
    tables = [
        evaluate_recommender(FixedSlates(slates), FoldInputs.of(fold, phi_array, BIAS_METRICS), 10)
        for fold in folds
    ]
    references = [_reference_table(fold, slates, phi, 10) for fold in folds]
    for table, reference in zip(tables, references):
        assert list(table) == list(reference)
        for column, values in reference.items():
            # NaN positions must match too.
            np.testing.assert_array_equal(table[column], values)
    row = summarize("fixed", tables)
    for column in references[0]:
        means = [_reference_mean(reference[column]) for reference in references]
        assert row.columns[column] == aggregate_folds(means)
    assert 0 < np.isnan(references[0]["log_pop_diff"]).sum() < len(folds[0])


def _unique_isin_held_out(slates, test):
    """The former held-out search: np.unique codes of both sides, then np.isin."""
    ids, codes = np.unique(np.concatenate((slates.items, test.items)), return_inverse=True)
    slate_keys = slates.rows * ids.size + codes[: slates.items.size]
    test_keys = test.rows * ids.size + codes[slates.items.size :]
    return np.isin(slate_keys, test_keys)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), users=st.integers(1, 12))
def test_held_out_matches_the_unique_isin_form(data, users):
    # Held-out items come from phi; slates may be empty and may hold items
    # missing from phi, here the ids outside 0-30.
    phi = PhiArray.of({item: 1.0 for item in range(31)})
    test = Profiles.of(
        data.draw(st.sets(st.integers(0, 30), min_size=1, max_size=8)) for _ in range(users)
    )
    slate_items = st.integers(0, 30) | st.integers(-(2**31), 2**31)
    slates = Profiles.of(
        data.draw(st.lists(slate_items, max_size=10, unique=True)) for _ in range(users)
    )
    got = evaluation._held_out(slates, np.sort(evaluation._item_keys(test)))
    expected = _unique_isin_held_out(slates, test)
    np.testing.assert_array_equal(got, expected)
    assert not got[np.isnan(phi.lookup(slates.items))].any()


def _rows_of(p):
    return [p.items[a:b].tolist() for a, b in zip(p.offsets[:-1], p.offsets[1:])]


def test_a_folds_training_statistics_are_computed_once_per_metric(monkeypatch):
    phi_array = PhiArray.of({1: 4.0, 2: 2.0, 3: 8.0, 4: 1.0, 5: 3.0})
    fold = _fold_of((1, (1, 2), (3,)), (2, (1, 3), (4,)), (3, (2, 4), (5,)))
    by_user = [{1: (3, 4), 2: (2, 5), 3: (1, 3)}, {1: (5,), 2: (4,), 3: (5,)}]
    fresh = [
        evaluate_recommender(FixedSlates(slates), FoldInputs.of(fold, phi_array, BIAS_METRICS), 10)
        for slates in by_user
    ]

    calls = []
    statistics = type(METRICS["log_pop_diff"]).statistics

    def counted(self, p, phi):
        calls.append((self.id, _rows_of(p)))
        return statistics(self, p, phi)

    monkeypatch.setattr(type(METRICS["log_pop_diff"]), "statistics", counted)
    inputs = FoldInputs.of(fold, phi_array, BIAS_METRICS)
    assert calls == [(m, [[1, 2], [1, 3], [2, 4]]) for m in BIAS_METRICS]
    calls.clear()
    shared = [evaluate_recommender(FixedSlates(slates), inputs, 10) for slates in by_user]
    # Every later call scores a recommender's slates, none the training profiles.
    assert calls == [
        (m, [list(slates[user]) for user in (1, 2, 3)]) for slates in by_user for m in BIAS_METRICS
    ]
    for table, reference in zip(shared, fresh):
        assert list(table) == list(reference)
        for column, values in reference.items():
            np.testing.assert_array_equal(table[column], values)


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
    tables = [
        evaluate_recommender(rec, FoldInputs.of(fold, PhiArray.of(phi), metric_ids), 10)
        for fold in folds
    ]
    rows = [summarize("fixed", tables)]
    # hr5 over folds (0.5, 0.75), hr10 (1, 0.75); avg_pop_lift (-7/72, -1/9);
    # unmatched (6, 8), from slates of 2 and 6 items, then 2 and 2.
    assert emit_report(rows, fmt="csv") == (
        "recommender,hr5,hr5_sem,hr10,hr10_sem,log_pop_diff,log_pop_diff_sem,"
        "avg_pop_lift,avg_pop_lift_sem,unmatched,unmatched_sem\n"
        "fixed,0.6250,0.1250,0.8750,0.1250,,,-0.1042,0.0069,7.0000,1.0000\n"
    )
    assert emit_report(rows, fmt="markdown") == (
        "| recommender | hr5 | hr5_sem | hr10 | hr10_sem | log_pop_diff | log_pop_diff_sem"
        " | avg_pop_lift | avg_pop_lift_sem | unmatched | unmatched_sem |\n"
        "|---|---|---|---|---|---|---|---|---|---|---|\n"
        "| fixed | 0.6250 | 0.1250 | 0.8750 | 0.1250 |  |  | -0.1042 | 0.0069 | 7.0000 | 1.0000 |\n"
    )


def test_correlate_metrics_maps_each_metric_to_its_symmetric_row():
    # a and b agree on 2 of 6 pairs and disagree on 4: tau = -1/3.
    taus = correlate_metrics({"a": [1, 2, 3, 4], "b": [4, 1, 3, 2], "flat": [5, 5, 5, 5]})
    assert list(taus) == ["a", "b", "flat"]
    for x, row in taus.items():
        assert list(row) == list(taus)
        assert row[x] == 1.0
        assert all(row[y] == taus[y][x] for y in taus)
    assert taus["a"]["b"] == pytest.approx(-1 / 3)
    # Tau against a constant column is undefined.
    assert taus["a"]["flat"] is None and taus["b"]["flat"] is None
    assert emit_correlations(taus) == (
        "metric,a,b,flat\n"
        "a,1.0000,-0.3333,\n"
        "b,-0.3333,1.0000,\n"
        "flat,,,1.0000\n"
    )

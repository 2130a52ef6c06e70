import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popbias import metrics
from popbias.metrics import (
    METRICS,
    PhiArray,
    Profiles,
    evaluate_metric,
    gini_coefficient,
    herfindahl_index,
    scored_metric,
)

scores_lists = st.lists(
    st.floats(min_value=1.0, max_value=1e6, allow_nan=False), min_size=1, max_size=30
)


def _profiles(r_scores, u_scores):
    phi = {}
    r_items = []
    u_items = []
    for i, s in enumerate(r_scores):
        phi[1000 + i] = s
        r_items.append(1000 + i)
    for i, s in enumerate(u_scores):
        phi[2000 + i] = s
        u_items.append(2000 + i)
    return tuple(r_items), tuple(u_items), phi


def one_row(metric_id, r, u, phi):
    """M of one (recommendation, user) pair: a one-row ``evaluate_rows`` call."""
    values = METRICS[metric_id].evaluate_rows(Profiles.of([r]), Profiles.of([u]), PhiArray.of(phi))
    return float(values[0])


class TestLogPopDifference:
    def test_identical_profiles_zero(self):
        phi = {1: 3.0, 2: 17.0}
        assert one_row("log_pop_diff", (1, 2), (1, 2), phi) == 0.0

    def test_frozen_value(self):
        # Oracle: (ln10 + ln100)/2 - (ln1 + ln10)/2 = ln(10).
        r, u, phi = _profiles([10.0, 100.0], [1.0, 10.0])
        assert one_row("log_pop_diff", r, u, phi) == pytest.approx(math.log(10.0), abs=1e-12)

    def test_anti_symmetry_example(self):
        r, u, phi = _profiles([10.0, 100.0], [1.0, 10.0])
        assert one_row("log_pop_diff", u, r, phi) == pytest.approx(-math.log(10.0), abs=1e-12)

    def test_missing_item_named(self):
        # A row holding an item missing from phi is undefined: NaN.
        assert math.isnan(one_row("log_pop_diff", (42,), (42,), {}))
        assert math.isnan(one_row("log_pop_diff", (1, 42), (1,), {1: 2.0}))

    def test_score_below_one_rejected(self):
        r, u, phi = _profiles([0.5], [2.0])
        assert math.isnan(one_row("log_pop_diff", r, u, phi))

    @given(scores_lists, scores_lists)
    def test_anti_symmetry_property(self, a, b):
        r, u, phi = _profiles(a, b)
        fwd = one_row("log_pop_diff", r, u, phi)
        assert abs(fwd + one_row("log_pop_diff", u, r, phi)) < 1e-12

    @given(scores_lists, scores_lists, st.floats(min_value=1.0, max_value=1e3))
    def test_scaling_invariance(self, a, b, c):
        # Scale factors >= 1 keep scores inside the count domain.
        r, u, phi = _profiles(a, b)
        scaled = {k: v * c for k, v in phi.items()}
        assert one_row("log_pop_diff", r, u, phi) == pytest.approx(
            one_row("log_pop_diff", r, u, scaled), abs=1e-9
        )

    @given(scores_lists, scores_lists, st.floats(min_value=0.01, max_value=100.0))
    def test_monotone_in_any_recommender_score(self, a, b, eps):
        r, u, phi = _profiles(a, b)
        base = one_row("log_pop_diff", r, u, phi)
        bumped = dict(phi)
        bumped[r[0]] += eps
        assert one_row("log_pop_diff", r, u, bumped) > base


class TestAvgPopLift:
    def test_asymmetry_counterexample(self):
        phi = {1: 1.0, 2: 0.5}
        assert one_row("avg_pop_lift", (1,), (2,), phi) == pytest.approx(1.0, abs=1e-12)
        assert one_row("avg_pop_lift", (2,), (1,), phi) == pytest.approx(-0.5, abs=1e-12)

    def test_identical_zero(self):
        phi = {1: 4.0}
        assert one_row("avg_pop_lift", (1,), (1,), phi) == 0.0

    def test_direct_arithmetic(self):
        r, u, phi = _profiles([4.0], [2.0])
        assert one_row("avg_pop_lift", r, u, phi) == pytest.approx(1.0, abs=1e-12)

    @given(scores_lists, scores_lists, st.floats(min_value=0.01, max_value=100.0))
    def test_monotone(self, a, b, eps):
        r, u, phi = _profiles(a, b)
        base = one_row("avg_pop_lift", r, u, phi)
        bumped = dict(phi)
        bumped[r[-1]] += eps
        assert one_row("avg_pop_lift", r, u, bumped) > base


class TestGini:
    def test_equal_scores_zero(self):
        assert gini_coefficient([5.0, 5.0, 5.0]) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_hand_value(self):
        # (-1/2)(1/4) + (1/2)(3/4) = 0.25
        assert gini_coefficient([1.0, 3.0]) == pytest.approx(0.25, abs=1e-12)

    def test_long_tail_value(self):
        # Brute-force evaluation of the sorted-share formula.
        scores = [1.0, 1.0, 1.0, 97.0]
        n, total = len(scores), sum(scores)
        expected = sum(
            (2 * i - n - 1) / n * (s / total) for i, s in enumerate(sorted(scores), 1)
        )
        value = gini_coefficient(scores)
        assert value == pytest.approx(expected, abs=1e-12)
        assert 0.7 < value < 0.75

    def test_diff_and_antisymmetry(self):
        r, u, phi = _profiles([1.0, 3.0], [2.0, 2.0])
        assert one_row("gini_diff", r, u, phi) == pytest.approx(0.25, abs=1e-12)
        assert one_row("gini_diff", u, r, phi) == pytest.approx(-0.25, abs=1e-12)

    def test_empty_profile_error(self):
        with pytest.raises(ValueError):
            gini_coefficient([])

    @given(scores_lists)
    def test_bounds(self, scores):
        assert 0.0 <= gini_coefficient(scores) < 1.0

    @given(scores_lists, st.floats(min_value=0.1, max_value=1e3))
    def test_scale_invariant(self, scores, c):
        assert gini_coefficient(scores) == pytest.approx(
            gini_coefficient([s * c for s in scores]), abs=1e-9
        )


class TestHerfindahl:
    def test_equal_shares(self):
        assert herfindahl_index([7.0, 7.0]) == pytest.approx(0.5, abs=1e-12)

    def test_single_item_full_concentration(self):
        assert herfindahl_index([123.0]) == 1.0

    def test_skewed_value(self):
        assert herfindahl_index([999.0, 1.0]) == pytest.approx(0.998002, abs=1e-9)

    def test_diff(self):
        phi = {1: 5.0, 2: 3.0, 3: 3.0}
        assert one_row("herfindahl_diff", (1,), (2, 3), phi) == pytest.approx(0.5, abs=1e-12)
        assert one_row("herfindahl_diff", (2, 3), (1,), phi) == pytest.approx(-0.5, abs=1e-12)

    @given(scores_lists)
    def test_bounds(self, scores):
        value = herfindahl_index(scores)
        assert 0.0 < value <= 1.0

    @given(scores_lists, st.floats(min_value=0.1, max_value=1e3))
    def test_scale_invariant(self, scores, c):
        assert herfindahl_index(scores) == pytest.approx(
            herfindahl_index([s * c for s in scores]), abs=1e-9
        )


class TestPru:
    def test_popular_on_top_is_plus_one(self):
        phi = {1: 30.0, 2: 20.0, 3: 10.0}
        assert one_row("pru", (1, 2, 3), (3, 1, 2), phi) == pytest.approx(1.0, abs=1e-12)

    def test_popular_on_bottom_is_minus_one(self):
        phi = {1: 10.0, 2: 20.0, 3: 30.0}
        assert one_row("pru", (1, 2, 3), (1, 2, 3), phi) == pytest.approx(-1.0, abs=1e-12)

    def test_empty_intersection_error(self):
        # Undefined below 2 shared items: NaN.
        phi = {1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0}
        assert math.isnan(one_row("pru", (1, 2), (3, 4), phi))

    def test_rows_are_ranked_slates_with_nan_rows(self):
        phi = {1: 10.0, 2: 20.0, 3: 30.0, 4: 40.0, 5: 20.0}
        slates = [
            (4, 3, 2, 1),  # most popular on top
            (1, 9, 2, 3),  # item 9 takes a slot but is not shared
            (3, 3, 1),  # a repeated item keeps its first position
            (1, 2),  # one shared item
            (2, 5),  # shared items of equal popularity
            (1, 7),  # shared item 7 is missing from phi
            (),
        ]
        profiles = [(1, 2, 3, 4), (3, 2, 1), (1, 3), (2, 8), (2, 5), (1, 7), (1,)]
        values = METRICS["pru"].evaluate_rows(
            Profiles.of(slates), Profiles.of(profiles), PhiArray.of(phi)
        )
        assert values[0] == pytest.approx(1.0, abs=1e-12)
        # Alignments k + 1 - position: item 1 scores 4, 2 scores 2, 3 scores 1.
        assert values[1] == pytest.approx(-1.0, abs=1e-12)
        # Item 3 at position 1 and item 1 at position 3 of k = 3.
        assert values[2] == pytest.approx(1.0, abs=1e-12)
        assert np.isnan(values[3:]).all()
        for row, (r, u) in enumerate(zip(slates, profiles)):
            assert np.array_equal(one_row("pru", r, u, phi), values[row], equal_nan=True)


class TestZeroCenteringAllDifferenceMetrics:
    @given(scores_lists)
    def test_difference_metrics_zero_on_identical(self, scores):
        phi = {i + 1: s for i, s in enumerate(scores)}
        p = tuple(phi)
        for metric_id in METRICS:
            if metric_id == "pru":
                continue
            assert abs(one_row(metric_id, p, p, phi)) < 1e-12

    @given(scores_lists, scores_lists)
    def test_difference_form_anti_symmetry(self, a, b):
        r, u, phi = _profiles(a, b)
        for metric_id in ("log_pop_diff", "gini_diff", "herfindahl_diff"):
            fwd = one_row(metric_id, r, u, phi)
            bwd = one_row(metric_id, u, r, phi)
            assert abs(fwd + bwd) < 1e-12


def test_profiles_are_multisets():
    phi = {1: 8.0, 2: 2.0}
    expected = (math.log(8) + math.log(8) + math.log(2)) / 3 - math.log(2)
    assert one_row("log_pop_diff", (1, 1, 2), (2,), phi) == pytest.approx(expected)


def test_module_table_names_each_records_functions():
    for m in METRICS.values():
        row = (m.id, m.transform.__name__, m.aggregate.__name__, m.compare.__name__)
        assert re.search(r"^" + r"\s+".join(row) + r"\s*$", metrics.__doc__, re.M), row


def test_unknown_metric_rejected():
    batch = Profiles.of([(1,)])
    with pytest.raises(ValueError, match="unknown metric"):
        evaluate_metric("nope", batch, np.ones(1), PhiArray.of({1: 1.0}))


@settings(max_examples=25)
@given(scores_lists, scores_lists)
def test_gini_profile_matches_sorted_formula(a, b):
    r, u, phi = _profiles(a, b)
    row = Profiles.of([r])
    direct = METRICS["gini_diff"].statistics(row, PhiArray.of(phi))[0]
    n = len(a)
    total = sum(a)
    manual = sum((2 * i - n - 1) / n * (s / total) for i, s in enumerate(sorted(a), 1))
    assert direct == pytest.approx(manual, abs=1e-9)
    assert METRICS["herfindahl_diff"].statistics(row, PhiArray.of(phi))[0] == pytest.approx(
        sum((s / total) ** 2 for s in a), abs=1e-9
    )


# Lengths around the block boundaries of numpy's pairwise summation, which
# sums runs of fewer than 8 items in order and splits longer runs at
# multiples of 8 up to blocks of 128.
PAIRWISE_BOUNDARY_LENGTHS = (1, 7, 8, 9, 127, 128, 129, 300)


@st.composite
def ragged_batches(draw):
    """Slates, training profiles and phi for one batch, with undefined rows.

    Items come from a small pool, so rows hold duplicates. Some pool items
    are missing from phi and some score below 1, which leaves rows
    undefined for one metric or all of them; a slate may be empty.
    """
    pool = draw(st.integers(min_value=2, max_value=40))
    scores = st.one_of(
        st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
        st.floats(min_value=0.01, max_value=0.99),
    )
    phi = {
        item: draw(scores)
        for item in range(pool)
        if draw(st.integers(min_value=0, max_value=9))  # about 1 in 10 missing
    }
    length = st.one_of(
        st.sampled_from(PAIRWISE_BOUNDARY_LENGTHS), st.integers(min_value=1, max_value=20)
    )
    row = lambda n: st.lists(st.integers(0, pool - 1), min_size=n, max_size=n)  # noqa: E731
    n_rows = draw(st.integers(min_value=1, max_value=6))
    slates = [draw(st.integers(0, 12).flatmap(row)) for _ in range(n_rows)]
    profiles = [draw(length.flatmap(row)) for _ in range(n_rows)]
    return slates, profiles, phi


@settings(max_examples=60, deadline=None)
@given(ragged_batches())
def test_batched_metric_equals_one_pair_bit_for_bit(batch):
    slates, profiles, phi = batch
    phi_array = PhiArray.of(phi)
    for metric_id in ("log_pop_diff", "avg_pop_lift", "gini_diff", "herfindahl_diff"):
        u_statistics = METRICS[metric_id].statistics(Profiles.of(profiles), phi_array)
        values = evaluate_metric(metric_id, Profiles.of(slates), u_statistics, phi_array)
        assert values.shape == (len(slates),)
        for value, r, u in zip(values, slates, profiles):
            expected = one_row(metric_id, r, u, phi)
            if math.isnan(expected):
                assert math.isnan(value), (metric_id, r, u)
            else:
                assert np.float64(value).tobytes() == np.float64(expected).tobytes(), (
                    metric_id, r, u,
                )


def _sorted_shares(x):
    n = x.size
    return (2 * np.arange(1, n + 1) - n - 1) / n * np.sort(x) / np.sort(x).sum()


ONE_PROFILE_REFERENCE = {
    "log_pop_diff": lambda x: np.mean(np.log(x)),
    "avg_pop_lift": np.mean,
    "gini_diff": lambda x: np.sum(_sorted_shares(x)),
    "herfindahl_diff": lambda x: np.sum((x / x.sum()) * (x / x.sum())),
}


@pytest.mark.parametrize("length", PAIRWISE_BOUNDARY_LENGTHS)
def test_row_statistic_is_the_one_dimensional_reduction(length):
    x = np.random.default_rng(length).pareto(0.7, size=length) + 1.0
    row, phi = Profiles.of([range(length)]), PhiArray.of(dict(enumerate(x)))
    for metric_id, reference in ONE_PROFILE_REFERENCE.items():
        assert METRICS[metric_id].statistics(row, phi)[0] == reference(x), metric_id


def test_batched_pru_is_rejected_as_desiderata_only():
    batch = Profiles.of([(1, 2)])
    with pytest.raises(ValueError, match="desiderata-only"):
        evaluate_metric("pru", batch, np.ones(1), PhiArray.of({1: 1.0, 2: 2.0}))


def test_refusing_pru_says_why_no_report_can_score_it():
    why = (
        "'pru' is a desiderata-only metric: it ranks the items a slate shares with "
        "the user's profile, and slates exclude the training profile"
    )
    with pytest.raises(ValueError, match=re.escape(why)):
        scored_metric("pru")

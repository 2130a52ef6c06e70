import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popbias import metrics
from popbias.metrics import (
    METRICS,
    Profile,
    evaluate_metric,
    gini_coefficient,
    herfindahl_index,
    profile_scores,
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
    return Profile(tuple(r_items)), Profile(tuple(u_items)), phi


class TestLogPopDifference:
    def test_identical_profiles_zero(self):
        phi = {1: 3.0, 2: 17.0}
        p = Profile((1, 2))
        assert evaluate_metric("log_pop_diff", p, p, phi) == 0.0

    def test_frozen_value(self):
        # Oracle: (ln10 + ln100)/2 - (ln1 + ln10)/2 = ln(10).
        r, u, phi = _profiles([10.0, 100.0], [1.0, 10.0])
        assert evaluate_metric("log_pop_diff", r, u, phi) == pytest.approx(math.log(10.0), abs=1e-12)

    def test_anti_symmetry_example(self):
        r, u, phi = _profiles([10.0, 100.0], [1.0, 10.0])
        assert evaluate_metric("log_pop_diff", u, r, phi) == pytest.approx(-math.log(10.0), abs=1e-12)

    def test_missing_item_named(self):
        with pytest.raises(ValueError, match="42"):
            evaluate_metric("log_pop_diff", Profile((42,)), Profile((42,)), {})

    def test_score_below_one_rejected(self):
        r, u, phi = _profiles([0.5], [2.0])
        with pytest.raises(ValueError, match="log domain"):
            evaluate_metric("log_pop_diff", r, u, phi)

    @given(scores_lists, scores_lists)
    def test_anti_symmetry_property(self, a, b):
        r, u, phi = _profiles(a, b)
        fwd = evaluate_metric("log_pop_diff", r, u, phi)
        assert abs(fwd + evaluate_metric("log_pop_diff", u, r, phi)) < 1e-12

    @given(scores_lists, scores_lists, st.floats(min_value=1.0, max_value=1e3))
    def test_scaling_invariance(self, a, b, c):
        # Scale factors >= 1 keep scores inside the count domain.
        r, u, phi = _profiles(a, b)
        scaled = {k: v * c for k, v in phi.items()}
        assert evaluate_metric("log_pop_diff", r, u, phi) == pytest.approx(
            evaluate_metric("log_pop_diff", r, u, scaled), abs=1e-9
        )

    @given(scores_lists, scores_lists, st.floats(min_value=0.01, max_value=100.0))
    def test_monotone_in_any_recommender_score(self, a, b, eps):
        r, u, phi = _profiles(a, b)
        base = evaluate_metric("log_pop_diff", r, u, phi)
        bumped = dict(phi)
        bumped[r.items[0]] += eps
        assert evaluate_metric("log_pop_diff", r, u, bumped) > base


class TestAvgPopLift:
    def test_asymmetry_counterexample(self):
        phi = {1: 1.0, 2: 0.5}
        r, u = Profile((1,)), Profile((2,))
        assert evaluate_metric("avg_pop_lift", r, u, phi) == pytest.approx(1.0, abs=1e-12)
        assert evaluate_metric("avg_pop_lift", u, r, phi) == pytest.approx(-0.5, abs=1e-12)

    def test_identical_zero(self):
        phi = {1: 4.0}
        p = Profile((1,))
        assert evaluate_metric("avg_pop_lift", p, p, phi) == 0.0

    def test_direct_arithmetic(self):
        r, u, phi = _profiles([4.0], [2.0])
        assert evaluate_metric("avg_pop_lift", r, u, phi) == pytest.approx(1.0, abs=1e-12)

    @given(scores_lists, scores_lists, st.floats(min_value=0.01, max_value=100.0))
    def test_monotone(self, a, b, eps):
        r, u, phi = _profiles(a, b)
        base = evaluate_metric("avg_pop_lift", r, u, phi)
        bumped = dict(phi)
        bumped[r.items[-1]] += eps
        assert evaluate_metric("avg_pop_lift", r, u, bumped) > base


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
        assert evaluate_metric("gini_diff", r, u, phi) == pytest.approx(0.25, abs=1e-12)
        assert evaluate_metric("gini_diff", u, r, phi) == pytest.approx(-0.25, abs=1e-12)

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
        r, u = Profile((1,)), Profile((2, 3))
        assert evaluate_metric("herfindahl_diff", r, u, phi) == pytest.approx(0.5, abs=1e-12)
        assert evaluate_metric("herfindahl_diff", u, r, phi) == pytest.approx(-0.5, abs=1e-12)

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
        r = Profile((1, 2, 3), ranked=True)
        u = Profile((3, 1, 2))
        assert evaluate_metric("pru", r, u, phi) == pytest.approx(1.0, abs=1e-12)

    def test_popular_on_bottom_is_minus_one(self):
        phi = {1: 10.0, 2: 20.0, 3: 30.0}
        r = Profile((1, 2, 3), ranked=True)
        u = Profile((1, 2, 3))
        assert evaluate_metric("pru", r, u, phi) == pytest.approx(-1.0, abs=1e-12)

    def test_empty_intersection_error(self):
        phi = {1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0}
        with pytest.raises(ValueError, match="PRU undefined"):
            evaluate_metric("pru", Profile((1, 2), ranked=True), Profile((3, 4)), phi)

    def test_requires_rank_order(self):
        phi = {1: 1.0, 2: 2.0}
        with pytest.raises(ValueError, match="rank-ordered"):
            evaluate_metric("pru", Profile((1, 2)), Profile((1, 2)), phi)


class TestZeroCenteringAllDifferenceMetrics:
    @given(scores_lists)
    def test_difference_metrics_zero_on_identical(self, scores):
        phi = {i + 1: s for i, s in enumerate(scores)}
        p = Profile(tuple(phi), ranked=True)
        for metric_id in METRICS:
            if metric_id == "pru":
                continue
            assert abs(evaluate_metric(metric_id, p, p, phi)) < 1e-12

    @given(scores_lists, scores_lists)
    def test_difference_form_anti_symmetry(self, a, b):
        r, u, phi = _profiles(a, b)
        for metric_id in ("log_pop_diff", "gini_diff", "herfindahl_diff"):
            fwd = evaluate_metric(metric_id, r, u, phi)
            bwd = evaluate_metric(metric_id, u, r, phi)
            assert abs(fwd + bwd) < 1e-12


def test_profiles_are_multisets():
    phi = {1: 8.0, 2: 2.0}
    with_dup = Profile((1, 1, 2))
    expected = (math.log(8) + math.log(8) + math.log(2)) / 3 - math.log(2)
    assert evaluate_metric("log_pop_diff", with_dup, Profile((2,)), phi) == pytest.approx(expected)


def test_module_table_names_each_records_functions():
    for m in METRICS.values():
        row = (m.id, m.transform.__name__, m.aggregate.__name__, m.compare.__name__)
        assert re.search(r"^" + r"\s+".join(row) + r"\s*$", metrics.__doc__, re.M), row


def test_profile_requires_items():
    with pytest.raises(ValueError):
        Profile(())


def test_unknown_metric_rejected():
    phi = {1: 1.0}
    with pytest.raises(ValueError, match="unknown metric"):
        evaluate_metric("nope", Profile((1,)), Profile((1,)), phi)


@settings(max_examples=25)
@given(scores_lists, scores_lists)
def test_gini_profile_matches_sorted_formula(a, b):
    r, u, phi = _profiles(a, b)
    direct = METRICS["gini_diff"].statistic(profile_scores(r, phi))
    n = len(a)
    total = sum(a)
    manual = sum((2 * i - n - 1) / n * (s / total) for i, s in enumerate(sorted(a), 1))
    assert direct == pytest.approx(manual, abs=1e-9)
    assert METRICS["herfindahl_diff"].statistic(profile_scores(r, phi)) == pytest.approx(
        sum((s / total) ** 2 for s in a), abs=1e-9
    )

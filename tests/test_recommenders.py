import math

import numpy as np
import pytest

from popbias.catalog import Interaction
from popbias.recommenders import (
    SCORE_BLOCK,
    SCORE_SNAP_BITS,
    SIMILARITY_FLOOR,
    ItemKnnRecommender,
    KnnModel,
    RandomRecommender,
    RatingMatrix,
    RecRequest,
    Slate,
    TopPopRecommender,
    UserKnnRecommender,
    build_item_knn,
    build_user_knn,
    recommend_item_knn,
    recommend_random,
    recommend_top_pop,
    recommend_user_knn,
)

# ---------------------------------------------------------------------------
# Brute-force oracles: plain-python all-pairs cosine and full scoring, ranked
# by a full sort under the module's tie rule (scores snapped to
# SCORE_SNAP_BITS significant bits, then ascending id; cosines at or below
# SIMILARITY_FLOOR are no neighbor).
# ---------------------------------------------------------------------------


def _snapped(score):
    mantissa, exponent = math.frexp(score)
    return math.ldexp(round(mantissa * 2**SCORE_SNAP_BITS), exponent - SCORE_SNAP_BITS)


def oracle_rank(scored, k):
    """The first k of (id, score) pairs by descending snapped score, then id."""
    return sorted(scored, key=lambda pair: (-_snapped(pair[1]), pair[0]))[:k]


def _user_means(ratings):
    sums, counts = {}, {}
    for (u, _), r in ratings.items():
        sums[u] = sums.get(u, 0.0) + r
        counts[u] = counts.get(u, 0) + 1
    return {u: sums[u] / counts[u] for u in sums}


def _centered(ratings):
    means = _user_means(ratings)
    return {(u, i): r - means[u] for (u, i), r in ratings.items()}


def _cosine(vec_a, vec_b):
    dot = sum(vec_a[k] * vec_b[k] for k in vec_a if k in vec_b)
    na = math.sqrt(sum(v * v for v in vec_a.values()))
    nb = math.sqrt(sum(v * v for v in vec_b.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def oracle_item_neighbors(ratings, k_neighbors):
    centered = _centered(ratings)
    items = sorted({i for _, i in ratings})
    vecs = {
        i: {u: v for (u, j), v in centered.items() if j == i} for i in items
    }
    neighbors = {}
    for a in items:
        sims = [(b, _cosine(vecs[a], vecs[b])) for b in items if b != a]
        positive = [(b, s) for b, s in sims if s > SIMILARITY_FLOOR]
        neighbors[a] = oracle_rank(positive, k_neighbors)
    return neighbors


def oracle_user_neighbors(ratings, k_neighbors):
    centered = _centered(ratings)
    users = sorted({u for u, _ in ratings})
    vecs = {
        u: {i: v for (w, i), v in centered.items() if w == u} for u in users
    }
    neighbors = {}
    for a in users:
        sims = [(b, _cosine(vecs[a], vecs[b])) for b in users if b != a]
        positive = [(b, s) for b, s in sims if s > SIMILARITY_FLOOR]
        neighbors[a] = oracle_rank(positive, k_neighbors)
    return neighbors


def oracle_item_slate(neighbors, profile, k):
    seen = {i for i, _ in profile}
    rating_of = dict(profile)
    scores = {}
    candidates = {c for c in neighbors if c not in seen}
    for c in candidates:
        num = den = 0.0
        for j, sim in neighbors[c]:
            if j in seen:
                num += sim * rating_of[j]
                den += abs(sim)
        if den > 0:
            scores[c] = num / den
    return tuple(c for c, _ in oracle_rank(scores.items(), k))


def oracle_user_slate(ratings, neighbors, user, k):
    means = _user_means(ratings)
    seen = {i for (u, i) in ratings if u == user}
    num, den = {}, {}
    for v, sim in neighbors.get(user, []):
        for (w, i), r in ratings.items():
            if w != v or i in seen:
                continue
            num[i] = num.get(i, 0.0) + sim * (r - means[v])
            den[i] = den.get(i, 0.0) + abs(sim)
    scores = {i: means[user] + num[i] / den[i] for i in num if den[i] > 0}
    return tuple(i for i, _ in oracle_rank(scores.items(), k))


def request_for(user, profile):
    """The evaluation request of a user whose training side is profile."""
    train = tuple(Interaction(user, i, r, ts) for ts, (i, r) in enumerate(profile))
    return RecRequest(user=user, train=train, exclude=frozenset(i for i, _ in profile))


def random_ratings(rng, max_users=8, max_items=8):
    n_users = int(rng.integers(2, max_users + 1))
    n_items = int(rng.integers(2, max_items + 1))
    ratings = {}
    for u in range(1, n_users + 1):
        n_rated = int(rng.integers(1, n_items + 1))
        items = rng.choice(np.arange(1, n_items + 1), size=n_rated, replace=False)
        for i in items:
            ratings[(u, int(i))] = float(rng.integers(1, 11)) / 2.0
    return ratings


# ---------------------------------------------------------------------------
# Random / TopPop
# ---------------------------------------------------------------------------


class TestRandom:
    def test_forced_outcome(self):
        slate = recommend_random({"a", "b", "c"} - set(), {"a"}, 2, seed=0)
        assert set(slate.entries) == {"b", "c"}

    def test_deterministic(self):
        args = (range(100), {3, 4}, 10, 1234)
        assert recommend_random(*args).entries == recommend_random(*args).entries

    def test_k_zero(self):
        assert recommend_random(range(5), set(), 0, seed=1).entries == ()

    def test_insufficient_candidates(self):
        with pytest.raises(ValueError, match="candidates"):
            recommend_random(range(3), {0, 1}, 2, seed=1)


class TestTopPop:
    def test_ordering(self):
        phi = {"a": 5, "b": 3, "c": 1}
        assert recommend_top_pop(phi, set(), 2).entries == ("a", "b")

    def test_exclusion(self):
        phi = {"a": 5, "b": 3, "c": 1}
        assert recommend_top_pop(phi, {"a"}, 2).entries == ("b", "c")

    def test_tie_broken_by_id(self):
        phi = {2: 5.0, 1: 5.0}
        assert recommend_top_pop(phi, set(), 2).entries == (1, 2)

    def test_scores_equal_up_to_rounding_tie_by_id(self):
        assert recommend_top_pop({7: 1.5, 5: 1.4999999999999998}, set(), 2).entries == (5, 7)

    def test_tied_group_straddling_k_admitted_in_id_order(self):
        # 9, 6 and 4 tie up to rounding; raw order would admit 9, then 6.
        phi = {1: 3.0, 9: 2.0000000000000004, 6: 2.0, 4: 1.9999999999999998, 2: 1.0}
        assert recommend_top_pop(phi, set(), 2).entries == (1, 4)
        assert recommend_top_pop(phi, set(), 3).entries == (1, 4, 6)

    def test_insufficient(self):
        with pytest.raises(ValueError):
            recommend_top_pop({1: 2.0}, set(), 2)

    def test_identical_slates_for_identical_exclusions(self):
        phi = {i: float(i) for i in range(1, 30)}
        slates = {recommend_top_pop(phi, {3, 4}, 10).entries for _ in range(5)}
        assert len(slates) == 1


# ---------------------------------------------------------------------------
# KNN builds
# ---------------------------------------------------------------------------


def matrix_from(ratings):
    return RatingMatrix.from_interactions(
        [Interaction(u, i, r, ts) for ts, ((u, i), r) in enumerate(ratings.items())]
    )


class TestBuildItemKnn:
    def test_identically_rated_items_are_mutual_top_neighbors(self):
        ratings = {
            (1, 10): 5.0, (1, 11): 5.0, (1, 12): 1.0,
            (2, 10): 4.0, (2, 11): 4.0, (2, 12): 2.0,
            (3, 10): 3.0, (3, 11): 3.0, (3, 12): 0.5,
        }
        model = build_item_knn(matrix_from(ratings), 30)
        top_of_10 = model.neighbors[10][0]
        top_of_11 = model.neighbors[11][0]
        assert top_of_10[0] == 11 and top_of_10[1] == pytest.approx(1.0, abs=1e-12)
        assert top_of_11[0] == 10 and top_of_11[1] == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_rater_sets_not_neighbors(self):
        ratings = {
            (1, 10): 5.0, (1, 11): 2.0,
            (2, 20): 4.0, (2, 21): 1.0,
        }
        model = build_item_knn(matrix_from(ratings), 30)
        assert all(b not in (20, 21) for b, _ in model.neighbors[10])

    def test_matches_all_pairs_oracle_on_toy_matrix(self):
        rng = np.random.default_rng(2)
        ratings = random_ratings(rng, max_users=4, max_items=3)
        model = build_item_knn(matrix_from(ratings), 30)
        expected = oracle_item_neighbors(ratings, 30)
        for item, neigh in expected.items():
            got = model.neighbors[item]
            assert [b for b, _ in got] == [b for b, _ in neigh]
            for (gb, gs), (eb, es) in zip(got, neigh):
                assert gs == pytest.approx(es, abs=1e-12)

    def test_similarity_symmetric(self):
        rng = np.random.default_rng(3)
        ratings = random_ratings(rng)
        model = build_item_knn(matrix_from(ratings), 30)
        sims = {(a, b): s for a, neigh in model.neighbors.items() for b, s in neigh}
        for (a, b), s in sims.items():
            assert sims[(b, a)] == pytest.approx(s, abs=1e-12)


class TestRecommendItemKnn:
    def test_forced_single_neighbor(self):
        model = KnnModel(
            mode="item",
            k_neighbors=30,
            neighbors={7: ((3, 0.9),), 3: ((7, 0.9),)},
        )
        slate = recommend_item_knn(model, [(3, 4.5)], 1)
        assert slate.entries == (7,)

    def test_k_larger_than_scorable(self):
        model = KnnModel(
            mode="item",
            k_neighbors=30,
            neighbors={7: ((3, 0.9),), 3: ((7, 0.9),)},
        )
        slate = recommend_item_knn(model, [(3, 4.0)], 10)
        assert slate.entries == (7,)
        assert slate.requested_k == 10

    def test_scores_differing_in_last_bit_tie_by_id(self):
        # Both candidates score sim * 1.5 / sim, exactly 1.5; item 5's
        # similarity makes the computed score 1.4999999999999998.
        sim5, sim7 = 0.38692217758657976, 0.25877791363493624
        model = KnnModel(
            mode="item",
            k_neighbors=30,
            neighbors={5: ((2, sim5),), 7: ((2, sim7),), 2: ((5, sim5), (7, sim7))},
        )
        assert sim5 * 1.5 / sim5 < sim7 * 1.5 / sim7
        assert recommend_item_knn(model, [(2, 1.5)], 2).entries == (5, 7)

    def test_mode_check(self):
        model = KnnModel(mode="user", k_neighbors=1, neighbors={})
        with pytest.raises(ValueError):
            recommend_item_knn(model, [(1, 3.0)], 2)


class TestUserKnn:
    def test_identical_users_similarity_one(self):
        ratings = {
            (1, 10): 5.0, (1, 11): 1.0, (1, 12): 3.0,
            (2, 10): 5.0, (2, 11): 1.0, (2, 12): 3.0,
            (3, 10): 1.0, (3, 11): 5.0,
        }
        model = build_user_knn(matrix_from(ratings), 30)
        top = model.neighbors[1][0]
        assert top[0] == 2 and top[1] == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_users_similarity_zero(self):
        ratings = {
            (1, 10): 5.0, (1, 11): 1.0,
            (2, 20): 4.0, (2, 21): 2.0,
        }
        model = build_user_knn(matrix_from(ratings), 30)
        assert all(v != 2 for v, _ in model.neighbors[1])

    def test_clone_user_extra_item_ranks_first(self):
        ratings = {
            (1, 10): 5.0, (1, 11): 2.0, (1, 12): 4.0,
            (2, 10): 5.0, (2, 11): 2.0, (2, 12): 4.0, (2, 99): 5.0,
            (3, 10): 4.0, (3, 11): 2.5, (3, 50): 1.0,
        }
        matrix = matrix_from(ratings)
        model = build_user_knn(matrix, 30)
        slate = recommend_user_knn(model, matrix, 1, 2)
        assert slate.entries[0] == 99

    def test_no_neighbors_empty_slate(self):
        ratings = {
            (1, 10): 5.0,
            (2, 20): 4.0, (2, 21): 2.0,
        }
        matrix = matrix_from(ratings)
        model = build_user_knn(matrix, 30)
        slate = recommend_user_knn(model, matrix, 1, 5)
        assert slate.entries == ()

    def test_rounding_noise_cosine_is_no_neighbor(self):
        # Users 1 and 3 are orthogonal in exact arithmetic; the computed
        # cosine is 2.08e-17.
        ratings = {
            (1, 1): 3.5, (1, 2): 4.5, (1, 3): 2.5, (1, 4): 3.5,
            (1, 5): 2.5, (1, 6): 4.0, (1, 7): 0.5, (1, 8): 5.0,
            (2, 1): 4.0, (2, 3): 1.0, (2, 4): 2.5, (2, 5): 1.5,
            (3, 1): 1.0, (3, 2): 0.5, (3, 3): 0.5, (3, 5): 3.0,
            (3, 6): 3.5, (3, 8): 2.0,
        }
        matrix = matrix_from(ratings)
        model = build_user_knn(matrix, 1)
        assert model.neighbors[3] == ()
        assert recommend_user_knn(model, matrix, 3, 2).entries == ()


@pytest.mark.parametrize("trial", range(30))
def test_knn_recommenders_match_oracles_on_random_matrices(trial):
    rng = np.random.default_rng(9_000 + trial)
    ratings = random_ratings(rng)
    k_neighbors = int(rng.choice([1, 2, 3, 30]))
    k = int(rng.integers(1, 6))
    matrix = matrix_from(ratings)

    item_model = build_item_knn(matrix, k_neighbors)
    item_oracle = oracle_item_neighbors(ratings, k_neighbors)
    user_model = build_user_knn(matrix, k_neighbors)
    user_oracle = oracle_user_neighbors(ratings, k_neighbors)

    users = sorted({u for u, _ in ratings})
    profiles = {}
    for user in users:
        profile = sorted((i, r) for (u, i), r in ratings.items() if u == user)
        profiles[user] = profile
        got_item = recommend_item_knn(item_model, profile, k)
        assert got_item.entries == oracle_item_slate(item_oracle, profile, k)
        got_user = recommend_user_knn(user_model, matrix, user, k)
        assert got_user.entries == oracle_user_slate(ratings, user_oracle, user, k)

    requests = [request_for(user, profiles[user]) for user in users]
    item_batch = ItemKnnRecommender(item_model).recommend_batch(requests, k)
    user_batch = UserKnnRecommender(user_model, matrix).recommend_batch(requests, k)
    assert [(i.slate.entries, u.slate.entries) for i, u in zip(item_batch, user_batch)] == [
        (
            oracle_item_slate(item_oracle, profiles[user], k),
            oracle_user_slate(ratings, user_oracle, user, k),
        )
        for user in users
    ]


def test_batches_larger_than_one_block_match_single_requests_in_any_order():
    rng = np.random.default_rng(17)
    n_users, n_items = 300, 40
    ratings = {}
    for u in range(1, n_users + 1):
        items = rng.choice(np.arange(1, n_items + 1), size=int(rng.integers(3, 16)), replace=False)
        for i in items:
            ratings[(u, int(i))] = float(rng.integers(1, 11)) / 2.0
    matrix = matrix_from(ratings)
    phi = {i: float(rng.integers(1, 6)) for i in range(1, n_items + 1)}
    requests = [
        request_for(u, sorted((i, r) for (w, i), r in ratings.items() if w == u))
        for u in range(1, n_users + 1)
    ]
    assert len(requests) > SCORE_BLOCK
    for rec in (
        RandomRecommender(phi.keys(), seed=3),
        TopPopRecommender(phi),
        ItemKnnRecommender(build_item_knn(matrix, 5)),
        UserKnnRecommender(build_user_knn(matrix, 5), matrix),
    ):
        batch = [r.slate.entries for r in rec.recommend_batch(requests, 5)]
        assert batch == [rec.recommend(request, 5).slate.entries for request in requests]
        reversed_batch = rec.recommend_batch(requests[::-1], 5)
        assert [r.slate.entries for r in reversed_batch[::-1]] == batch
        assert any(batch), rec.name


class TestSlate:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            Slate(entries=(1, 1), requested_k=2)

    def test_len(self):
        assert len(Slate(entries=(1, 2), requested_k=5)) == 2


class TestAdapters:
    def test_adapters_respect_exclusions(self):
        ratings = {(u, i): 3.0 + (u + i) % 3 for u in range(1, 6) for i in range(1, 7)}
        matrix = matrix_from(ratings)
        phi = {i: float(10 - i) for i in range(1, 9)}
        train = tuple(
            Interaction(1, i, r, 0) for (u, i), r in ratings.items() if u == 1
        )
        request = RecRequest(user=1, train=train, exclude=frozenset(i.item for i in train))
        for rec in (
            RandomRecommender(phi.keys(), seed=4),
            TopPopRecommender(phi),
            ItemKnnRecommender(build_item_knn(matrix, 30)),
            UserKnnRecommender(build_user_knn(matrix, 30), matrix),
        ):
            result = rec.recommend(request, 2)
            assert not set(result.slate.entries) & request.exclude

    def test_random_adapter_user_seed_independent_of_order(self):
        phi = {i: 1.0 for i in range(50)}
        rec = RandomRecommender(phi.keys(), seed=11)
        req_a = RecRequest(user=7, train=(), exclude=frozenset())
        req_b = RecRequest(user=8, train=(), exclude=frozenset())
        ab = rec.recommend_batch([req_a, req_b], 5)
        ba = rec.recommend_batch([req_b, req_a], 5)
        assert ab[0].slate.entries == ba[1].slate.entries
        assert ab[1].slate.entries == ba[0].slate.entries

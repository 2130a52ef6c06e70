import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from popbias import metrics, recommenders
from popbias.catalog import Ratings, compute_popularity
from popbias.metrics import PhiArray
from popbias.recommenders import (
    SCORE_BLOCK,
    SCORE_SNAP_BITS,
    SIMILARITY_FLOOR,
    ItemKnnRecommender,
    RandomRecommender,
    RatingMatrix,
    RecRequest,
    Slate,
    TopPopRecommender,
    UserKnnRecommender,
    build_item_knn,
    build_user_knn,
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


def neighbor_lists(matrix, mode, k_neighbors):
    """{id: ((neighbor id, similarity), ...)} of _build_knn's neighbor lists, in stored order."""
    ids, sims = recommenders._build_knn(matrix, mode, k_neighbors)
    return {
        entity: tuple(
            zip(
                ids[sims.indices[sims.indptr[n] : sims.indptr[n + 1]]].tolist(),
                sims.data[sims.indptr[n] : sims.indptr[n + 1]].tolist(),
            )
        )
        for n, entity in enumerate(ids.tolist())
    }


def knn_lists(neighbors):
    """(ids, sims) holding the given {id: ((neighbor id, similarity), ...)} lists."""
    ids = sorted(set(neighbors).union(*({j for j, _ in neigh} for neigh in neighbors.values())))
    position = {entity: n for n, entity in enumerate(ids)}
    rows = [neighbors.get(entity, ()) for entity in ids]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    cols = [position[j] for row in rows for j, _ in row]
    data = [sim for row in rows for _, sim in row]
    sims = sparse.csr_matrix((data, cols, indptr), shape=(len(ids), len(ids)))
    return np.array(ids, dtype=np.int64), sims


def request_for(user, profile):
    """The evaluation request of a user whose training side is profile."""
    pairs = list(profile)
    items, ratings = [i for i, _ in pairs], [r for _, r in pairs]
    train = Ratings.from_columns([user] * len(pairs), items, ratings, range(len(pairs)))
    return RecRequest(user=user, profile=train)


def watched(user, items):
    """The request of a user whose training profile holds items, each rated 3."""
    return request_for(user, [(i, 3.0) for i in sorted(items)])


def pool_of(candidates):
    """The PhiArray of candidate items, each scored 1: a random recommender's pool."""
    return PhiArray.of(dict.fromkeys(candidates, 1.0))


def random_slate(candidates, exclude, k, seed, user=0):
    """The random slate of one request whose profile is exclude."""
    return RandomRecommender(pool_of(candidates), seed).slates([watched(user, exclude)], k)[0]


def top_pop_slate(phi, exclude, k):
    """The top-pop slate of one request whose profile is exclude."""
    return TopPopRecommender(PhiArray.of(phi)).slates([watched(0, exclude)], k)[0]


def item_knn_slate(rec, profile, k):
    """The item-KNN slate of one training profile of (item, rating) pairs."""
    return rec.slates([request_for(0, profile)], k)[0]


def user_knn_slates(rec, users, k):
    """The user-KNN slates of users, each asking with their rating-matrix row as profile."""
    matrix = rec.matrix
    requests = []
    for user in users:
        row = matrix.csr[int(np.searchsorted(matrix.users, user))]
        requests.append(request_for(user, zip(matrix.items[row.indices].tolist(), row.data)))
    return rec.slates(requests, k)


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
        slate = random_slate({1, 2, 3}, {1}, 2, seed=0)
        assert set(slate.entries) == {2, 3}

    def test_deterministic(self):
        args = (range(100), {3, 4}, 10, 1234)
        assert random_slate(*args).entries == random_slate(*args).entries

    def test_k_zero(self):
        assert random_slate(range(5), set(), 0, seed=1).entries == ()

    def test_insufficient_candidates(self):
        # Fewer than k candidates left: all of them, in a short slate.
        assert random_slate(range(3), {0, 1}, 2, seed=1).entries == (2,)
        assert set(random_slate(range(6), {0, 1}, 5, seed=1).entries) == {2, 3, 4, 5}
        assert random_slate(range(3), {0, 1, 2}, 2, seed=1).entries == ()

    def test_pinned_draw(self):
        # Any change to the per-user draw stream shows here.
        rec = RandomRecommender(pool_of(range(100)), seed=11)
        assert rec.slates([watched(7, {3, 50, 99})], 5)[0].entries == (87, 47, 38, 39, 31)


class TestTopPop:
    def test_ordering(self):
        phi = {10: 1, 20: 5, 30: 3}
        assert top_pop_slate(phi, set(), 2).entries == (20, 30)

    def test_exclusion(self):
        phi = {10: 1, 20: 5, 30: 3}
        assert top_pop_slate(phi, {20}, 2).entries == (30, 10)

    def test_tie_broken_by_id(self):
        phi = {2: 5.0, 1: 5.0}
        assert top_pop_slate(phi, set(), 2).entries == (1, 2)

    def test_scores_equal_up_to_rounding_tie_by_id(self):
        assert top_pop_slate({7: 1.5, 5: 1.4999999999999998}, set(), 2).entries == (5, 7)

    def test_tied_group_straddling_k_admitted_in_id_order(self):
        # 9, 6 and 4 tie up to rounding; raw order would admit 9, then 6.
        phi = {1: 3.0, 9: 2.0000000000000004, 6: 2.0, 4: 1.9999999999999998, 2: 1.0}
        assert top_pop_slate(phi, set(), 2).entries == (1, 4)
        assert top_pop_slate(phi, set(), 3).entries == (1, 4, 6)

    def test_insufficient(self):
        # Fewer than k items left: all of them, in ranking order, in a short slate.
        assert top_pop_slate({1: 2.0}, set(), 2).entries == (1,)
        assert top_pop_slate({1: 2.0, 2: 5.0, 3: 1.0}, {2}, 5).entries == (1, 3)
        assert top_pop_slate({1: 2.0}, {1}, 2).entries == ()

    def test_identical_slates_for_identical_exclusions(self):
        phi = {i: float(i) for i in range(1, 30)}
        slates = {top_pop_slate(phi, {3, 4}, 10).entries for _ in range(5)}
        assert len(slates) == 1


_MASK64 = 2**64 - 1


def _splitmix64(state):
    """splitmix64's finalizer of state + gamma, in plain Python integers."""
    z = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _plain_key(*parts):
    """Each part x in turn: the key becomes splitmix64's (x + 1)-th output from the key."""
    key = 0
    for part in parts:
        key = _splitmix64((key + part * 0x9E3779B97F4A7C15) & _MASK64)
    return key


def _floyd_random_slate(pool, exclude, seed, user, k):
    """A random slate by a plain-Python Floyd loop over np.isin's available items.

    Round i draws from the key at index i and orders its pick by the key at
    index k + i, as RandomRecommender.slates documents.
    """
    available = pool[~np.isin(pool, list(exclude))]
    left = len(available)
    count = min(k, left)
    keys = recommenders._stream_keys(
        seed, recommenders._RANDOM_STREAM, np.array(user), np.arange(2 * k)
    ).tolist()
    picks = []
    for i in range(count):
        j = left - count + i
        pick = keys[i] % (j + 1)
        picks.append(j if pick in picks else pick)
    order = sorted(range(count), key=lambda i: keys[k + i])
    return tuple(available[[picks[i] for i in order]].tolist())


def _isin_top_pop_slate(ranking, exclude, k):
    """A top-pop slate by the former np.isin exclusion; short when fewer than k are left."""
    head = ranking[: k + len(exclude)]
    kept = head[~np.isin(head, list(exclude))]
    return tuple(kept[:k].tolist())


# Pools and profile items; profile items reach ids outside the pool.
_IDS = st.tuples(
    st.sets(st.integers(0, 40), max_size=30), st.sets(st.integers(-5, 45), max_size=30)
)


@settings(max_examples=300, deadline=None)
@given(ids=_IDS, k=st.integers(0, 60), seed=st.integers(0, 2**32 - 1))
def test_random_slates_match_the_isin_form(ids, k, seed):
    candidates, exclude = ids
    pool = np.array(sorted(candidates))
    got = random_slate(candidates, exclude, k, seed, user=3).entries
    assert got == _floyd_random_slate(pool, exclude, seed, 3, k)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    user=st.integers(-(2**63), 2**63 - 1),
    index=st.integers(0, 2**20),
)
def test_stream_keys_match_plain_python_splitmix64(seed, user, index):
    got = recommenders._stream_keys(seed, 5, np.array([user]), np.array([index]))
    assert got.tolist() == [_plain_key(seed, 5, user, index)]


def test_stream_keys_start_with_splitmix64s_published_first_output():
    # splitmix64 seeded with 0 first returns 0xE220A8397B1DCDAF.
    assert _splitmix64(0) == 0xE220A8397B1DCDAF


@pytest.mark.parametrize(("pool", "exclude", "k"), [(range(6), {0}, 3), (range(3), set(), 5)])
def test_random_slates_are_uniform_over_ordered_slates(pool, exclude, k):
    # Every ordered slate, and so every (item, position), is equally likely:
    # 5 * 4 * 3 = 60 slates of 3 from 5 items left, or the 3! = 6 orders of
    # a short slate. The chi-squared bound is the 1 - 1e-4 quantile, so a
    # uniform draw exceeds it for one seed in 10,000.
    from scipy.stats import chi2

    users = 12_000
    requests = [watched(user, exclude) for user in range(users)]
    slates = RandomRecommender(pool_of(pool), seed=29).slates(requests, k)
    counts = {}
    for slate in slates:
        counts[slate.entries] = counts.get(slate.entries, 0) + 1
    left = len(pool) - len(exclude)
    cells = math.perm(left, min(k, left))
    assert len(counts) == cells
    assert all(not set(entries) & exclude for entries in counts)
    expected = users / cells
    statistic = sum((count - expected) ** 2 / expected for count in counts.values())
    assert statistic < chi2.ppf(1 - 1e-4, cells - 1)
    by_position = np.zeros((len(pool), min(k, left)))
    for slate in slates:
        by_position[list(slate.entries), np.arange(len(slate.entries))] += 1
    expected = users / left
    kept = by_position[sorted(set(pool) - exclude)]
    statistic = ((kept - expected) ** 2 / expected).sum(axis=0)
    assert np.all(statistic < chi2.ppf(1 - 1e-4, left - 1))


def test_random_slates_are_independent_of_the_split_stream():
    from scipy.stats import chi2

    from popbias.evaluation import split_user_ratings

    # split_user_ratings draws from np.random.default_rng([seed, user]). A
    # slate drawn from that generator's state, as choice(pool, k) without
    # replacement, matches no user's random slate.
    seed, pool = 7, np.arange(1990)
    requests = [watched(user, set()) for user in range(200)]
    for request, slate in zip(requests, RandomRecommender(pool_of(pool), seed).slates(requests, 10)):
        shared = np.random.default_rng([seed, request.user]).choice(pool.size, 10, replace=False)
        assert slate.entries != tuple(pool[shared].tolist())
    # A user with 2 ratings and train_fraction 0.5 trains on one of them and
    # draws one of 2 pool items: the 2 x 2 table of the two passes a
    # chi-squared test of independence at the 1 - 1e-4 quantile.
    users = 4_000
    requests = [watched(user, set()) for user in range(users)]
    rec = RandomRecommender(pool_of([0, 1]), seed)
    picks = [slate.entries[0] for slate in rec.slates(requests, 1)]
    trains = [int(split_user_ratings(user, 2, 0.5, seed)[0][0]) for user in range(users)]
    table = np.zeros((2, 2))
    np.add.at(table, (trains, picks), 1)
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / users
    assert ((table - expected) ** 2 / expected).sum() < chi2.ppf(1 - 1e-4, 1)


@settings(max_examples=300, deadline=None)
@given(
    ids=st.sets(st.integers(-50, 400), max_size=60),
    values=st.lists(st.integers(-(2**40), 2**40) | st.integers(-60, 410), max_size=80),
)
def test_positions_match_the_searchsorted_form(ids, values):
    ids = np.array(sorted(ids), dtype=np.int64)
    values = np.array(values, dtype=np.int64)
    positions, found = metrics.id_positions(ids, values)
    expected = np.searchsorted(ids, values)
    expected_found = expected < ids.size
    expected_found[expected_found] = ids[expected[expected_found]] == values[expected_found]
    np.testing.assert_array_equal(found, expected_found)
    np.testing.assert_array_equal(positions[found], expected[found])
    assert np.all(positions[~found] == -1)


@settings(max_examples=300, deadline=None)
@given(ids=_IDS, k=st.integers(0, 12), data=st.data())
def test_top_pop_slates_match_the_isin_form(ids, k, data):
    candidates, exclude = ids
    phi = {item: data.draw(st.sampled_from([1.0, 2.0, 2.5, 7.0])) for item in sorted(candidates)}
    ranking = TopPopRecommender(PhiArray.of(phi)).ranking
    assert top_pop_slate(phi, exclude, k).entries == _isin_top_pop_slate(ranking, exclude, k)


def _batch_profiles(pool):
    """1-40 profiles: empty, with repeats and ids outside the pool, or covering the whole pool."""
    some = st.lists(st.integers(-5, 45), max_size=30)
    whole = st.lists(st.integers(-5, 45), max_size=5).map(lambda extra: extra + pool + pool[:2])
    return st.lists(st.one_of(st.just([]), some, whole), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=st.integers(0, 60), seed=st.integers(0, 2**32 - 1))
def test_random_batches_match_the_isin_form_per_request(data, k, seed):
    pool = sorted(data.draw(st.sets(st.integers(0, 40), max_size=30)))
    profiles = data.draw(_batch_profiles(pool))
    requests = [request_for(user, [(i, 3.0) for i in p]) for user, p in enumerate(profiles)]
    got = [slate.entries for slate in RandomRecommender(pool_of(pool), seed).slates(requests, k)]
    expected = [
        _floyd_random_slate(np.array(pool, dtype=np.int64), p, seed, user, k)
        for user, p in enumerate(profiles)
    ]
    assert got == expected


def test_random_draws_keys_for_its_slates_not_for_k(monkeypatch):
    # A 5-item pool caps every slate at 5, so a batch needs at most 2 * 5 keys
    # per request, a pick and an order key per round, however large k is.
    stream_keys = recommenders._stream_keys

    def bounded(seed, purpose, user, index):
        assert np.size(index) <= 2 * 5, f"asked for {np.size(index)} keys"
        return stream_keys(seed, purpose, user, index)

    monkeypatch.setattr(recommenders, "_stream_keys", bounded)
    rec = RandomRecommender(pool_of(range(5)), seed=3)
    slates = rec.slates([watched(0, set()), watched(1, {2})], 10**6)
    assert sorted(slates[0].entries) == [0, 1, 2, 3, 4]
    assert sorted(slates[1].entries) == [0, 1, 3, 4]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=st.integers(0, 12))
def test_top_pop_batches_match_the_isin_form_per_request(data, k):
    pool = sorted(data.draw(st.sets(st.integers(0, 40), max_size=30)))
    phi = {item: data.draw(st.sampled_from([1.0, 2.0, 2.5, 7.0])) for item in pool}
    profiles = data.draw(_batch_profiles(pool))
    requests = [request_for(user, [(i, 3.0) for i in p]) for user, p in enumerate(profiles)]
    rec = TopPopRecommender(PhiArray.of(phi))
    got = [slate.entries for slate in rec.slates(requests, k)]
    assert got == [_isin_top_pop_slate(rec.ranking, p, k) for p in profiles]


def _near_snap_boundaries():
    """Scores on 40-bit grid points, quarter steps off them or one ulp beside those, and zeros.

    Mantissas near 2**39 put the grid point at a power of two, below which
    the steps are half as large, so both binades' midpoints are drawn.
    """

    def build(mantissa, exponent, quarter_steps, ulps, sign):
        score = math.ldexp(4 * mantissa + quarter_steps, exponent - SCORE_SNAP_BITS - 2)
        for _ in range(abs(ulps)):
            score = math.nextafter(score, math.copysign(math.inf, ulps))
        return sign * score

    mantissas = st.sampled_from([2**39, 2**39 + 1, 2**39 + 2, 2**40 - 1]) | st.integers(
        2**39, 2**40 - 1
    )
    grid = st.builds(
        build,
        mantissas,
        st.integers(-2, 2),
        st.integers(-4, 4),
        st.integers(-1, 1),
        st.sampled_from([1.0, -1.0]),
    )
    return st.one_of(grid, st.sampled_from([0.0, -0.0]))


# A row of (id, score) entries: scores near snapping boundaries, ids in any order.
_snap_row = st.lists(_near_snap_boundaries(), max_size=8).flatmap(
    lambda scores: st.permutations(range(len(scores))).map(lambda ids: list(zip(ids, scores)))
)


@settings(max_examples=500, deadline=None)
# The second entry is within reach of the k-th snapped score 1.5 but snaps
# one 40-bit step below it, so only the cut to k drops it.
@example(table=[[(1, 1.5 - 1.25 * 2.0**-SCORE_SNAP_BITS), (0, 1.5)]], k=1)
@given(table=st.lists(_snap_row, max_size=5), k=st.integers(0, 10))
def test_first_k_matches_the_oracle_near_snapping_boundaries(table, k):
    rows, cols, scores, expected = [], [], [], []
    for row, entries in enumerate(table):
        rows += [row] * len(entries)
        cols += [i for i, _ in entries]
        scores += [score for _, score in entries]
        expected += [(row, i) for i, _ in oracle_rank(entries, k)]
    rows, cols = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
    picked = recommenders._first_k(rows, cols, np.array(scores, dtype=float), k)
    assert list(zip(rows[picked].tolist(), cols[picked].tolist())) == expected


# ---------------------------------------------------------------------------
# KNN builds
# ---------------------------------------------------------------------------


def matrix_from(ratings):
    rows = [(u, i, r, ts) for ts, ((u, i), r) in enumerate(ratings.items())]
    return RatingMatrix.from_interactions(Ratings.from_columns(*zip(*rows)))


def test_centered_ratings_are_computed_once_and_read_only():
    matrix = matrix_from({(1, 10): 4.0, (1, 11): 2.0, (2, 10): 5.0})
    centered = matrix.centered
    assert matrix.centered is centered
    assert centered.toarray().tolist() == [[1.0, -1.0], [0.0, 0.0]]
    for array in (centered.data, centered.indices, centered.indptr):
        assert not array.flags.writeable


class TestBuildItemKnn:
    def test_identically_rated_items_are_mutual_top_neighbors(self):
        ratings = {
            (1, 10): 5.0, (1, 11): 5.0, (1, 12): 1.0,
            (2, 10): 4.0, (2, 11): 4.0, (2, 12): 2.0,
            (3, 10): 3.0, (3, 11): 3.0, (3, 12): 0.5,
        }
        lists = neighbor_lists(matrix_from(ratings), "item", 30)
        top_of_10 = lists[10][0]
        top_of_11 = lists[11][0]
        assert top_of_10[0] == 11 and top_of_10[1] == pytest.approx(1.0, abs=1e-12)
        assert top_of_11[0] == 10 and top_of_11[1] == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_rater_sets_not_neighbors(self):
        ratings = {
            (1, 10): 5.0, (1, 11): 2.0,
            (2, 20): 4.0, (2, 21): 1.0,
        }
        lists = neighbor_lists(matrix_from(ratings), "item", 30)
        assert all(b not in (20, 21) for b, _ in lists[10])

    def test_matches_all_pairs_oracle_on_toy_matrix(self):
        rng = np.random.default_rng(2)
        ratings = random_ratings(rng, max_users=4, max_items=3)
        lists = neighbor_lists(matrix_from(ratings), "item", 30)
        expected = oracle_item_neighbors(ratings, 30)
        for item, neigh in expected.items():
            got = lists[item]
            assert [b for b, _ in got] == [b for b, _ in neigh]
            for (gb, gs), (eb, es) in zip(got, neigh):
                assert gs == pytest.approx(es, abs=1e-12)

    def test_similarity_symmetric(self):
        rng = np.random.default_rng(3)
        ratings = random_ratings(rng)
        lists = neighbor_lists(matrix_from(ratings), "item", 30)
        sims = {(a, b): s for a, neigh in lists.items() for b, s in neigh}
        for (a, b), s in sims.items():
            assert sims[(b, a)] == pytest.approx(s, abs=1e-12)


class TestRecommendItemKnn:
    def test_forced_single_neighbor(self):
        rec = ItemKnnRecommender(*knn_lists({7: ((3, 0.9),), 3: ((7, 0.9),)}))
        slate = item_knn_slate(rec, [(3, 4.5)], 1)
        assert slate.entries == (7,)

    def test_k_larger_than_scorable(self):
        rec = ItemKnnRecommender(*knn_lists({7: ((3, 0.9),), 3: ((7, 0.9),)}))
        assert item_knn_slate(rec, [(3, 4.0)], 10).entries == (7,)

    def test_scores_differing_in_last_bit_tie_by_id(self):
        # Both candidates score sim * 1.5 / sim, exactly 1.5; item 5's
        # similarity makes the computed score 1.4999999999999998.
        sim5, sim7 = 0.38692217758657976, 0.25877791363493624
        lists = {5: ((2, sim5),), 7: ((2, sim7),), 2: ((5, sim5), (7, sim7))}
        rec = ItemKnnRecommender(*knn_lists(lists))
        assert sim5 * 1.5 / sim5 < sim7 * 1.5 / sim7
        assert item_knn_slate(rec, [(2, 1.5)], 2).entries == (5, 7)


class TestUserKnn:
    def test_identical_users_similarity_one(self):
        ratings = {
            (1, 10): 5.0, (1, 11): 1.0, (1, 12): 3.0,
            (2, 10): 5.0, (2, 11): 1.0, (2, 12): 3.0,
            (3, 10): 1.0, (3, 11): 5.0,
        }
        top = neighbor_lists(matrix_from(ratings), "user", 30)[1][0]
        assert top[0] == 2 and top[1] == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_users_similarity_zero(self):
        ratings = {
            (1, 10): 5.0, (1, 11): 1.0,
            (2, 20): 4.0, (2, 21): 2.0,
        }
        assert all(v != 2 for v, _ in neighbor_lists(matrix_from(ratings), "user", 30)[1])

    def test_clone_user_extra_item_ranks_first(self):
        ratings = {
            (1, 10): 5.0, (1, 11): 2.0, (1, 12): 4.0,
            (2, 10): 5.0, (2, 11): 2.0, (2, 12): 4.0, (2, 99): 5.0,
            (3, 10): 4.0, (3, 11): 2.5, (3, 50): 1.0,
        }
        rec = build_user_knn(matrix_from(ratings), 30)
        assert user_knn_slates(rec, [1], 2)[0].entries[0] == 99

    def test_no_neighbors_empty_slate(self):
        ratings = {
            (1, 10): 5.0,
            (2, 20): 4.0, (2, 21): 2.0,
        }
        rec = build_user_knn(matrix_from(ratings), 30)
        assert user_knn_slates(rec, [1], 5)[0].entries == ()

    def test_slate_leaves_out_the_request_profile_not_the_matrix_row(self):
        ratings = {
            (1, 10): 5.0, (1, 11): 1.0,
            (2, 10): 5.0, (2, 11): 1.0, (2, 12): 5.0, (2, 13): 1.0,
            (3, 10): 1.0, (3, 12): 4.0,
        }
        rec = build_user_knn(matrix_from(ratings), 5)
        # Item 12 is in the profile but not in user 1's matrix row.
        request = watched(1, {10, 11, 12})
        assert rec.slates([request], 3)[0].entries == (13,)

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
        assert neighbor_lists(matrix, "user", 1)[3] == ()
        assert user_knn_slates(build_user_knn(matrix, 1), [3], 2)[0].entries == ()


@pytest.mark.parametrize("trial", range(30))
def test_knn_recommenders_match_oracles_on_random_matrices(trial):
    rng = np.random.default_rng(9_000 + trial)
    ratings = random_ratings(rng)
    k_neighbors = int(rng.choice([1, 2, 3, 30]))
    k = int(rng.integers(1, 6))
    matrix = matrix_from(ratings)

    item_rec = build_item_knn(matrix, k_neighbors)
    item_oracle = oracle_item_neighbors(ratings, k_neighbors)
    user_rec = build_user_knn(matrix, k_neighbors)
    user_oracle = oracle_user_neighbors(ratings, k_neighbors)

    users = sorted({u for u, _ in ratings})
    profiles = {}
    for user in users:
        profile = sorted((i, r) for (u, i), r in ratings.items() if u == user)
        profiles[user] = profile
        got_item = item_knn_slate(item_rec, profile, k)
        assert got_item.entries == oracle_item_slate(item_oracle, profile, k)
        got_user = user_knn_slates(user_rec, [user], k)[0]
        assert got_user.entries == oracle_user_slate(ratings, user_oracle, user, k)

    requests = [request_for(user, profiles[user]) for user in users]
    item_batch = item_rec.recommend_batch(requests, k)
    user_batch = user_rec.recommend_batch(requests, k)
    assert [(i.slate.entries, u.slate.entries) for i, u in zip(item_batch, user_batch)] == [
        (
            oracle_item_slate(item_oracle, profiles[user], k),
            oracle_user_slate(ratings, user_oracle, user, k),
        )
        for user in users
    ]


@pytest.mark.parametrize("block", [1, 2, 3])
def test_knn_builds_match_oracles_across_block_seams(monkeypatch, block):
    # Two workers take block rows each.
    monkeypatch.setattr(recommenders, "_worker_count", lambda: 2)
    monkeypatch.setattr(recommenders, "_BUILD_ROWS", 2 * block)
    for trial in range(40):
        rng = np.random.default_rng(5_000 + trial)
        ratings = random_ratings(rng)
        k_neighbors = int(rng.choice([1, 2, 3, 30]))
        matrix = matrix_from(ratings)
        for mode, oracle in (("item", oracle_item_neighbors), ("user", oracle_user_neighbors)):
            got = neighbor_lists(matrix, mode, k_neighbors)
            expected = oracle(ratings, k_neighbors)
            assert got.keys() == expected.keys()
            for entity, neigh in expected.items():
                assert [b for b, _ in got[entity]] == [b for b, _ in neigh], (trial, entity)
                assert [s for _, s in got[entity]] == pytest.approx(
                    [s for _, s in neigh], abs=1e-12
                )


def _block_matrix(rng, n_users=60, n_items=25):
    """A random matrix in which most users rate an item exactly at their mean.

    Each such user's ratings come in pairs m - d, m + d around a rating m
    that the user also gives, so their mean is exactly m.
    """
    ratings = {}
    for u in range(1, n_users + 1):
        items = rng.permutation(np.arange(1, n_items + 1))[: int(rng.integers(3, 12))]
        if u % 4:
            mean = float(rng.integers(2, 5))
            half = (len(items) - 1) // 2
            steps = rng.integers(1, 3, size=half) / 2.0
            values = [mean, *(mean - steps), *(mean + steps)]
            items = items[: len(values)]
        else:
            values = rng.integers(1, 11, size=len(items)) / 2.0
        ratings.update({(u, int(i)): float(r) for i, r in zip(items, values)})
    return ratings


def _knn_outputs(matrix, requests, k):
    """Both builds' neighbor CSR arrays and both recommenders' slates."""
    item_ids, item_sims = recommenders._build_knn(matrix, "item", 5)
    _, user_sims = recommenders._build_knn(matrix, "user", 5)
    arrays = [
        array.tobytes()
        for sims in (item_sims, user_sims)
        for array in (sims.indptr, sims.indices, sims.data)
    ]
    slates = [
        [r.slate.entries for r in rec.recommend_batch(requests, k)]
        for rec in (ItemKnnRecommender(item_ids, item_sims), UserKnnRecommender(matrix, user_sims))
    ]
    return arrays, slates


@pytest.mark.parametrize("workers, rows", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (8, 1)])
def test_knn_outputs_do_not_depend_on_workers_or_block_size(monkeypatch, workers, rows):
    ratings = _block_matrix(np.random.default_rng(41), n_users=90)
    matrix = matrix_from(ratings)
    requests = [
        request_for(u, sorted((i, r) for (w, i), r in ratings.items() if w == u))
        for u in range(1, 91)
    ]
    monkeypatch.setattr(recommenders, "_worker_count", lambda: 1)
    expected = _knn_outputs(matrix, requests, 4)
    assert any(expected[1][0]) and any(expected[1][1])
    monkeypatch.setattr(recommenders, "_worker_count", lambda: workers)
    monkeypatch.setattr(recommenders, "_BUILD_ROWS", workers * rows)
    monkeypatch.setattr(recommenders, "SCORE_BLOCK", workers * rows)
    # Frequent thread switches, so that workers interleave inside each block.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert _knn_outputs(matrix, requests, 4) == expected
    finally:
        sys.setswitchinterval(interval)


def _bits(matrix):
    return matrix.toarray().view(np.int64)


@pytest.mark.parametrize("trial", range(10))
def test_fused_products_equal_the_two_product_form_bit_for_bit(monkeypatch, trial):
    rng = np.random.default_rng(7_000 + trial)
    ratings = _block_matrix(rng)
    matrix = matrix_from(ratings)
    centered = matrix.centered
    assert (centered.data == 0).any()
    products = []

    def record(product, *args, **kwargs):
        products.append(product)
        return knn_block_slates(product, *args, **kwargs)

    knn_block_slates = recommenders._knn_block_slates
    monkeypatch.setattr(recommenders, "_knn_block_slates", record)
    monkeypatch.setattr(recommenders, "_worker_count", lambda: 1)
    users = sorted({u for u, _ in ratings})
    # Profiles in a shuffled watch order, so that each row sums out of id order.
    requests = []
    for user in users:
        profile = [(i, r) for (u, i), r in ratings.items() if u == user]
        requests.append(request_for(user, [profile[n] for n in rng.permutation(len(profile))]))
    profiles = [request.profile for request in requests]

    item_ids, item_sims = recommenders._build_knn(matrix, "item", int(rng.choice([2, 5, 30])))
    ItemKnnRecommender(item_ids, item_sims).slates(requests, 3)
    cols = np.searchsorted(item_ids, np.concatenate([p.item for p in profiles]))
    indptr = np.cumsum([0] + [len(p) for p in profiles])
    shape = (len(profiles), item_ids.size)
    profile_ratings = np.concatenate([p.rating for p in profiles])
    left = sparse.csr_matrix((profile_ratings, cols, indptr), shape=shape)
    rated = sparse.csr_matrix((np.ones_like(profile_ratings), cols, indptr), shape=shape)
    sims_t = item_sims.T.tocsr()
    (fused,) = products
    assert np.array_equal(fused.toarray().real.view(np.int64), _bits(left @ sims_t))
    assert np.array_equal(fused.toarray().imag.view(np.int64), _bits(rated @ sims_t))

    products.clear()
    _, weights = recommenders._build_knn(matrix, "user", int(rng.choice([2, 5, 30])))
    UserKnnRecommender(matrix, weights).slates(requests, 3)
    rated = matrix.csr.copy()
    rated.data[:] = 1.0
    num = weights @ centered
    (fused,) = products
    assert np.array_equal(fused.toarray().real.view(np.int64), _bits(num))
    assert np.array_equal(fused.toarray().imag.view(np.int64), _bits(weights @ rated))
    # Numerators that sum to exactly 0 are stored, where the real product drops them.
    assert fused.nnz > num.nnz


@pytest.mark.parametrize(
    "bad", [(-0.25, 0.0), (-0.5,), (0.0,), (SIMILARITY_FLOOR,), (math.nan,), (math.inf,)]
)
def test_recommenders_refuse_a_similarity_not_above_the_floor(bad):
    neighbors = {1: ((2, 0.5),), 2: ((1, 0.5),), 3: tuple(zip((1, 2), bad))}
    with pytest.raises(ValueError, match="SIMILARITY_FLOOR"):
        ItemKnnRecommender(*knn_lists(neighbors))
    matrix = matrix_from({(1, 10): 5.0, (2, 10): 3.0, (2, 11): 1.0, (3, 11): 2.0})
    with pytest.raises(ValueError, match="SIMILARITY_FLOOR"):
        UserKnnRecommender(matrix, knn_lists(neighbors)[1])
    good = {1: ((2, 0.5),), 2: ((1, 0.5),), 3: ((1, 0.25),)}
    ItemKnnRecommender(*knn_lists(good))
    UserKnnRecommender(matrix, knn_lists(good)[1])


def test_recommenders_refuse_similarities_of_another_size():
    # User-KNN reads row n of sims as user matrix.users[n]: the sims of
    # another matrix's users would score the wrong neighbors.
    matrix = matrix_from({(1, 10): 5.0, (1, 11): 1.0, (2, 10): 4.0, (2, 11): 2.0})
    ids, sims = knn_lists({1: ((2, 0.5),), 2: ((1, 0.5),), 3: ((1, 0.25),)})
    with pytest.raises(ValueError, match="3 x 3, not 2 x 2"):
        UserKnnRecommender(matrix, sims)
    with pytest.raises(ValueError, match="3 x 3, not 2 x 2"):
        ItemKnnRecommender(ids[:2], sims)


def _wide_sparse_ratings():
    """800 users with 40 ratings each over about 19.7k distinct items."""
    rng = np.random.default_rng(23)
    users = np.repeat(np.arange(800), 40)
    items = np.concatenate([rng.choice(30_000, size=40, replace=False) for _ in range(800)])
    ratings = rng.integers(1, 11, size=users.size) / 2.0
    return Ratings.from_columns(users, items, ratings, np.zeros_like(users))


def test_item_build_over_a_wide_sparse_matrix_stays_small():
    # One dense block of similarities would be 512 x 19.7k doubles, about 80 MB.
    matrix = RatingMatrix.from_interactions(_wide_sparse_ratings())
    assert 19_000 < matrix.items.size < 20_500
    tracemalloc.start()
    try:
        rec = build_item_knn(matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.sims_t.nnz > 0
    assert peak < 64 * 2**20


def test_item_build_over_a_dense_catalog_stays_small():
    # 1000 users with 60 ratings each over 2000 items drawn with Zipf
    # weights (exponent 0.8): popular items co-occur in most profiles, so a
    # block's similarity product is close to dense and its size follows the
    # rows in flight (about 21 MiB at 512 rows, 13 MiB at 256, on two workers).
    rng = np.random.default_rng(29)
    weights = np.arange(1, 2001) ** -0.8
    users = np.repeat(np.arange(1000), 60)
    items = np.concatenate(
        [rng.choice(2000, size=60, replace=False, p=weights / weights.sum()) for _ in range(1000)]
    )
    ratings = rng.integers(1, 11, size=users.size) / 2.0
    matrix = RatingMatrix.from_interactions(
        Ratings.from_columns(users, items, ratings, np.zeros_like(users))
    )
    tracemalloc.start()
    try:
        rec = build_item_knn(matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.sims_t.nnz > 0
    assert peak < 18 * 2**20


def _wide_sparse_requests(table):
    """One request per user of the table, with the user's rows as profile."""
    bounds = np.flatnonzero(np.diff(table.user)) + 1
    requests = [
        RecRequest(int(table.user[start]), table[start:stop])
        for start, stop in zip([0, *bounds], [*bounds, len(table)])
    ]
    assert len(requests) == 800
    return requests


def test_item_scoring_over_a_wide_catalog_stays_small():
    # A dense requests x items array of one 128-request block would be
    # 128 x 19.7k doubles, about 20 MB.
    table = _wide_sparse_ratings()
    rec = build_item_knn(RatingMatrix.from_interactions(table))
    requests = _wide_sparse_requests(table)
    tracemalloc.start()
    try:
        slates = rec.slates(requests, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(len(slate.entries) == 10 for slate in slates)
    assert peak < 16 * 2**20


def test_user_scoring_over_a_wide_catalog_stays_small():
    # The seen mask of a block is rows x 19.7k bytes, 2.5 MB at 128 rows; a
    # dense block of scores would be eight times that. The peak measures
    # about 10.3 MiB with one or two workers.
    table = _wide_sparse_ratings()
    rec = build_user_knn(RatingMatrix.from_interactions(table))
    requests = _wide_sparse_requests(table)
    tracemalloc.start()
    try:
        slates = rec.slates(requests, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(len(slate.entries) == 10 for slate in slates)
    assert peak < 16 * 2**20


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
        RandomRecommender(PhiArray.of(phi), seed=3),
        TopPopRecommender(PhiArray.of(phi)),
        build_item_knn(matrix, 5),
        build_user_knn(matrix, 5),
    ):
        batch = [r.slate.entries for r in rec.recommend_batch(requests, 5)]
        assert batch == [rec.slates([request], 5)[0].entries for request in requests]
        reversed_batch = rec.recommend_batch(requests[::-1], 5)
        assert [r.slate.entries for r in reversed_batch[::-1]] == batch
        assert any(batch), rec.name


class TestSlate:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            Slate(entries=(1, 1))


class TestAdapters:
    def test_adapters_respect_exclusions(self):
        ratings = {(u, i): 3.0 + (u + i) % 3 for u in range(1, 6) for i in range(1, 7)}
        matrix = matrix_from(ratings)
        phi = {i: float(10 - i) for i in range(1, 9)}
        rows = [(1, i, r, 0) for (u, i), r in ratings.items() if u == 1]
        train = Ratings.from_columns(*zip(*rows))
        request = RecRequest(user=1, profile=train)
        for rec in (
            RandomRecommender(PhiArray.of(phi), seed=4),
            TopPopRecommender(PhiArray.of(phi)),
            build_item_knn(matrix, 30),
            build_user_knn(matrix, 30),
        ):
            result = rec.recommend_batch([request], 2)[0]
            assert not set(result.slate.entries) & request.exclude

    def test_random_adapter_user_seed_independent_of_order(self):
        rec = RandomRecommender(pool_of(range(50)), seed=11)
        req_a = RecRequest(user=7, profile=Ratings.from_columns([], [], [], []))
        req_b = RecRequest(user=8, profile=Ratings.from_columns([], [], [], []))
        ab = rec.recommend_batch([req_a, req_b], 5)
        ba = rec.recommend_batch([req_b, req_a], 5)
        assert ab[0].slate.entries == ba[1].slate.entries
        assert ab[1].slate.entries == ba[0].slate.entries


@settings(max_examples=150, deadline=None)
@given(
    cells=st.dictionaries(
        st.tuples(st.integers(1, 6), st.integers(1, 9)),
        st.integers(1, 10).map(lambda twice: twice / 2),
        min_size=1,
        max_size=40,
    ),
    k=st.integers(0, 10),
    k_neighbors=st.sampled_from([1, 2, 30]),
)
def test_every_baseline_keeps_the_slate_contract(cells, k, k_neighbors):
    # A batch of every user plus one empty-profile request for a matrix user:
    # no slate repeats an item, holds one of its profile's items or exceeds k.
    rows = [(u, i, r, t) for t, ((u, i), r) in enumerate(cells.items())]
    table = Ratings.from_columns(*zip(*rows))
    matrix = RatingMatrix.from_interactions(table)
    phi = compute_popularity(table)
    bounds = np.flatnonzero(np.diff(table.user)) + 1
    requests = [
        RecRequest(int(table.user[start]), table[start:stop])
        for start, stop in zip([0, *bounds], [*bounds, len(table)])
    ]
    requests.append(RecRequest(int(table.user[0]), table[:0]))
    pool = set(phi.ids.tolist())
    for rec in (
        RandomRecommender(phi, seed=0),
        TopPopRecommender(phi),
        build_item_knn(matrix, k_neighbors),
        build_user_knn(matrix, k_neighbors),
    ):
        results = rec.recommend_batch(requests, k)
        assert len(results) == len(requests)
        for request, result in zip(requests, results):
            entries = result.slate.entries
            assert len(set(entries)) == len(entries) <= k, rec.name
            assert not request.exclude.intersection(entries), rec.name
            if rec.name in ("random", "top_pop"):
                assert len(entries) == min(k, len(pool - request.exclude)), rec.name

"""Baseline top-k recommenders: random, top-popularity, item-KNN, user-KNN.

Both KNN variants use cosine similarity over mean-centered ratings (each
rating centered by its user's mean) and keep only the top-K neighbors per
entity whose similarity exceeds SIMILARITY_FLOOR (1e-12); a smaller cosine
is rounding noise around zero and counts as no neighbor.

Ranking rule, shared by top-pop slates, KNN slates and the top-K neighbor
cut: a score is compared after snapping it to SCORE_SNAP_BITS (40)
significant bits, a relative precision of about 1e-12, and equal snapped
scores break by ascending id. Two scores that are equal in exact arithmetic
but whose computed floats differ in the last bits therefore tie, and the id
decides. The rule is deterministic, so runs are reproducible, but not
airtight: a tie whose two computed values fall on opposite sides of a
snapping boundary still ranks by the raw values. One kernel, _first_k,
applies it to (row, col, score) entries of any number of rows at once.

Batch scoring: every recommender scores a whole batch of requests; the
single-request functions are batches of one. The KNN recommenders score
SCORE_BLOCK requests at a time with sparse products over a requests x
items matrix R of profile ratings:

- item-KNN: num = R @ S.T and den = 1_R @ |S.T|, where row c of S holds
  item c's neighbor similarities; score = num / den;
- user-KNN: num = W @ C and den = |W| @ B, where row r of W holds the
  requesting user's neighbor similarities, C the mean-centered ratings and
  B the rated indicator; score = mean(u) + num / den.

Seen items and entries with no positive denominator are dropped before
ranking. A CSR product sums each output entry in the storage order of the
left-hand row, and R and W are built with each row in profile order or
neighbor-list order, so every score is summed in the same order as a loop
over the profile or the neighbor list. A sparse product drops entries that
sum to exactly 0, so numerators are read back at the denominator's
entries, a missing one counting as 0. The block bounds the dense
requests x items arrays of one product.

Built models are immutable; recommend calls are thread-safe.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from popbias.catalog import Interaction

__all__ = [
    "SCORE_BLOCK",
    "SCORE_SNAP_BITS",
    "SIMILARITY_FLOOR",
    "RatingMatrix",
    "KnnModel",
    "Slate",
    "RecRequest",
    "RecResult",
    "BaseRecommender",
    "RandomRecommender",
    "TopPopRecommender",
    "ItemKnnRecommender",
    "UserKnnRecommender",
    "recommend_random",
    "recommend_top_pop",
    "build_item_knn",
    "recommend_item_knn",
    "build_user_knn",
    "recommend_user_knn",
]

DEFAULT_K_NEIGHBORS = 30
SCORE_SNAP_BITS = 40
SIMILARITY_FLOOR = 1e-12
_BLOCK = 1024  # rows of one dense similarity block in the KNN builds
SCORE_BLOCK = 128  # requests scored by one pair of sparse products


def _snap(scores: np.ndarray) -> np.ndarray:
    """scores rounded to SCORE_SNAP_BITS significant bits (monotone in score)."""
    mantissa, exponent = np.frexp(scores)
    return np.ldexp(np.rint(np.ldexp(mantissa, SCORE_SNAP_BITS)), exponent - SCORE_SNAP_BITS)


def _first_k(rows: np.ndarray, cols: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of each row's first k entries under the ranking rule.

    rows must be grouped (non-decreasing). Entries are ordered by (row,
    descending snapped score, col), so cols must be ids or positions in
    ascending id order. The result lists the kept positions in that order.
    """
    snapped = _snap(scores)
    row_start = np.ones(rows.size, dtype=bool)
    row_start[1:] = rows[1:] != rows[:-1]
    starts = np.flatnonzero(row_start)
    group = np.cumsum(row_start) - 1
    slots = np.arange(rows.size) - starts[group]
    width = int(slots.max(initial=-1)) + 1
    candidates = np.arange(rows.size)
    if 0 < k < width:
        # Only entries at or above their row's k-th largest snapped score
        # can be kept; a row with fewer than k entries pads its k-th with -inf.
        padded = np.full((starts.size, width), -np.inf)
        padded[group, slots] = snapped
        kth = np.partition(padded, width - k, axis=1)[:, width - k]
        candidates = np.flatnonzero(snapped >= kth[group])
    order = candidates[
        np.lexsort((cols[candidates], -snapped[candidates], rows[candidates]))
    ]
    ranked_rows = rows[order]
    rank = np.arange(order.size) - np.searchsorted(ranked_rows, ranked_rows)
    return order[rank < k]


@dataclass(frozen=True)
class Slate:
    """Ordered top-k recommendation; may be shorter than requested_k."""

    entries: tuple[int, ...]
    requested_k: int

    def __post_init__(self) -> None:
        if len(set(self.entries)) != len(self.entries):
            raise ValueError("slate contains duplicate items")
        if self.requested_k < 0:
            raise ValueError("requested_k must be non-negative")

    def __len__(self) -> int:
        return len(self.entries)


class RatingMatrix:
    """User-item ratings with per-user means.

    Duplicate (user, item) pairs keep the last rating seen.
    """

    def __init__(self, ratings: Mapping[tuple[int, int], float]):
        if not ratings:
            raise ValueError("rating matrix is empty")
        self.users = sorted({u for u, _ in ratings})
        self.items = sorted({i for _, i in ratings})
        self.user_index = {u: n for n, u in enumerate(self.users)}
        self.item_index = {i: n for n, i in enumerate(self.items)}
        rows = np.fromiter((self.user_index[u] for u, _ in ratings), dtype=np.int64)
        cols = np.fromiter((self.item_index[i] for _, i in ratings), dtype=np.int64)
        vals = np.fromiter(ratings.values(), dtype=float)
        self.csr = sparse.csr_matrix(
            (vals, (rows, cols)), shape=(len(self.users), len(self.items))
        )
        counts = np.diff(self.csr.indptr)
        sums = np.asarray(self.csr.sum(axis=1)).ravel()
        self.user_means = np.divide(
            sums, counts, out=np.zeros_like(sums), where=counts > 0
        )

    @classmethod
    def from_interactions(cls, interactions: Iterable[Interaction]) -> "RatingMatrix":
        ratings: dict[tuple[int, int], float] = {}
        for it in interactions:
            ratings[(it.user, it.item)] = it.rating
        return cls(ratings)

    def centered(self) -> sparse.csr_matrix:
        """Ratings with each user's mean subtracted from their entries."""
        centered = self.csr.tocoo(copy=True)
        centered.data = centered.data - self.user_means[centered.row]
        return centered.tocsr()


@dataclass(frozen=True)
class KnnModel:
    """Top-K neighbor lists (similarity above SIMILARITY_FLOOR), best first."""

    mode: str  # "item" or "user"
    k_neighbors: int
    neighbors: dict[int, tuple[tuple[int, float], ...]]


def recommend_random(
    candidates: Iterable[int], exclude: Iterable[int], k: int, seed: int | Sequence[int]
) -> Slate:
    """k distinct items drawn uniformly from candidates minus exclusions."""
    return _random_slates(np.array(sorted(set(candidates))), [exclude], [seed], k)[0]


def _random_slates(
    pool: np.ndarray,
    excludes: Sequence[Iterable[int]],
    seeds: Sequence[int | Sequence[int]],
    k: int,
) -> list[Slate]:
    """Per request, k distinct draws from the sorted pool minus its exclusions.

    Each request draws from np.random.default_rng(its seed), so a slate does
    not depend on the other requests.
    """
    slates = []
    for exclude, seed in zip(excludes, seeds):
        available = pool[~np.isin(pool, list(exclude))]
        if len(available) < k:
            raise ValueError(f"only {len(available)} candidates available for k={k}")
        if k == 0:
            slates.append(Slate(entries=(), requested_k=0))
            continue
        picks = np.random.default_rng(seed).choice(len(available), size=k, replace=False)
        slates.append(Slate(entries=tuple(available[picks].tolist()), requested_k=k))
    return slates


def recommend_top_pop(
    phi: Mapping[int, float], exclude: Iterable[int], k: int
) -> Slate:
    """The k most popular unexcluded items.

    Scores are compared snapped to SCORE_SNAP_BITS significant bits and ties
    break by ascending item id (see the module docstring), so counts that
    are equal up to float rounding rank in id order.
    """
    return TopPopRecommender(phi).slates_for([exclude], k)[0]


def _top_k_neighbors(
    sims: np.ndarray, ids: Sequence[int], self_pos: int, k: int
) -> tuple[tuple[int, float], ...]:
    positive = np.flatnonzero(sims > SIMILARITY_FLOOR)
    positive = positive[positive != self_pos]
    # ids are sorted, so ranking positions ranks ids.
    picked = positive[_first_k(np.zeros_like(positive), positive, sims[positive], k)]
    return tuple(zip([ids[n] for n in picked.tolist()], sims[picked].tolist()))


def build_item_knn(matrix: RatingMatrix, k_neighbors: int = DEFAULT_K_NEIGHBORS) -> KnnModel:
    """Cosine similarity between item columns of the centered matrix."""
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be >= 1")
    centered = matrix.centered()
    norms = np.sqrt(np.asarray(centered.multiply(centered).sum(axis=0)).ravel())
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    normalized = centered @ sparse.diags(inv)
    normalized_t = normalized.T.tocsr()
    n_items = len(matrix.items)
    neighbors: dict[int, tuple[tuple[int, float], ...]] = {}
    for start in range(0, n_items, _BLOCK):
        stop = min(start + _BLOCK, n_items)
        block = (normalized_t[start:stop] @ normalized).toarray()
        for offset in range(stop - start):
            item = matrix.items[start + offset]
            neighbors[item] = _top_k_neighbors(
                block[offset], matrix.items, start + offset, k_neighbors
            )
    return KnnModel(mode="item", k_neighbors=k_neighbors, neighbors=neighbors)


def build_user_knn(matrix: RatingMatrix, k_neighbors: int = DEFAULT_K_NEIGHBORS) -> KnnModel:
    """Cosine similarity between user rows of the centered matrix."""
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be >= 1")
    centered = matrix.centered()
    norms = np.sqrt(np.asarray(centered.multiply(centered).sum(axis=1)).ravel())
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    normalized = sparse.diags(inv) @ centered
    n_users = len(matrix.users)
    neighbors: dict[int, tuple[tuple[int, float], ...]] = {}
    for start in range(0, n_users, _BLOCK):
        stop = min(start + _BLOCK, n_users)
        block = (normalized[start:stop] @ normalized.T).toarray()
        for offset in range(stop - start):
            user = matrix.users[start + offset]
            neighbors[user] = _top_k_neighbors(
                block[offset], matrix.users, start + offset, k_neighbors
            )
    return KnnModel(mode="user", k_neighbors=k_neighbors, neighbors=neighbors)


def _lists_to_csr(
    lists: Sequence[Sequence[tuple[int, float]]], n_cols: int
) -> sparse.csr_matrix:
    """One row per list of (column, value) pairs, stored in list order."""
    indptr = np.zeros(len(lists) + 1, dtype=np.int64)
    np.cumsum([len(entries) for entries in lists], out=indptr[1:])
    cols = np.fromiter((c for entries in lists for c, _ in entries), np.int64, indptr[-1])
    vals = np.fromiter((v for entries in lists for _, v in entries), float, indptr[-1])
    return sparse.csr_matrix((vals, cols, indptr), shape=(len(lists), n_cols))


def _knn_block_slates(
    num: sparse.csr_matrix,
    den: sparse.csr_matrix,
    seen: sparse.csr_matrix,
    ids: np.ndarray,
    k: int,
    base: np.ndarray | None = None,
) -> list[Slate]:
    """Slates of one scored block: score = base + num / den, ranked per row.

    Only entries with den > 0 outside the seen pattern are scored. num is
    read densely at den's entries, because the product drops a num entry
    whose sum is exactly 0.
    """
    den = den.tocoo()
    seen_mask = np.zeros(den.shape, dtype=bool)
    seen_mask[seen.nonzero()] = True
    keep = (den.data > 0) & ~seen_mask[den.row, den.col]
    rows, cols = den.row[keep], den.col[keep]
    scores = num.toarray()[rows, cols] / den.data[keep]
    if base is not None:
        scores = base[rows] + scores
    picked = _first_k(rows, cols, scores, k)
    bounds = np.cumsum(np.bincount(rows[picked], minlength=den.shape[0]))[:-1]
    return [
        Slate(entries=tuple(chunk.tolist()), requested_k=k)
        for chunk in np.split(ids[cols[picked]], bounds)
    ]


def recommend_item_knn(
    model: KnnModel, profile: Sequence[tuple[int, float]], k: int
) -> Slate:
    """Score unseen items by similarity-weighted ratings of profile items.

    score(c) = sum(sim(c, j) * rating(j)) / sum(sim(c, j)) over profile
    items j in c's neighbor list. Candidates with no overlap are unscored,
    so the slate may come back short.
    """
    return ItemKnnRecommender(model).profile_slates([profile], k)[0]


def recommend_user_knn(
    model: KnnModel, matrix: RatingMatrix, user: int, k: int
) -> Slate:
    """Score unseen items from neighbors' mean-centered ratings.

    score(c) = mean(u) + sum(sim(u, v) * (rating_v(c) - mean(v))) /
    sum(|sim(u, v)|) over neighbors v who rated c. A user with no positive
    neighbors gets an empty slate.
    """
    return UserKnnRecommender(model, matrix).user_slates([user], k)[0]


@dataclass(frozen=True)
class RecRequest:
    """One user's recommendation request within an evaluation run."""

    user: int
    train: tuple[Interaction, ...]
    exclude: frozenset[int]


@dataclass(frozen=True)
class RecResult:
    slate: Slate
    unmatched: int = 0


class BaseRecommender:
    """Shared request entry points; subclasses implement batch slates."""

    name: str = "base"

    def slates(self, requests: Sequence[RecRequest], k: int) -> list[Slate]:
        raise NotImplementedError

    def recommend(self, request: RecRequest, k: int) -> RecResult:
        return self.recommend_batch([request], k)[0]

    def recommend_batch(self, requests: Sequence[RecRequest], k: int) -> list[RecResult]:
        return [RecResult(slate=slate) for slate in self.slates(requests, k)]


class RandomRecommender(BaseRecommender):
    name = "random"

    def __init__(self, candidates: Iterable[int], seed: int):
        self.pool = np.array(sorted(set(candidates)))
        self.seed = seed

    def slates(self, requests: Sequence[RecRequest], k: int) -> list[Slate]:
        # Seed derived per user so results are independent of batch order.
        seeds = [(self.seed, request.user) for request in requests]
        return _random_slates(self.pool, [request.exclude for request in requests], seeds, k)


class TopPopRecommender(BaseRecommender):
    """Most popular unexcluded items, by the popularity table it is given.

    The evaluation passes phi counted over all ratings, held-out test
    ratings included, so the popularity ranking sees the test side.
    """

    name = "top_pop"

    def __init__(self, phi: Mapping[int, float]):
        ids = sorted(phi)
        scores = np.fromiter((phi[item] for item in ids), dtype=float, count=len(ids))
        positions = np.arange(len(ids))
        order = _first_k(np.zeros_like(positions), positions, scores, len(ids))
        self.ranking = np.array(ids)[order]

    def slates_for(self, excludes: Sequence[Iterable[int]], k: int) -> list[Slate]:
        """Per exclusion set, the first k items of the ranking outside it."""
        slates = []
        for exclude in excludes:
            exclude = list(exclude)
            # At most len(exclude) of the first k + len(exclude) items are excluded.
            head = self.ranking[: k + len(exclude)]
            kept = head[~np.isin(head, exclude)]
            if len(kept) < k:
                raise ValueError(f"only {len(kept)} items available for k={k}")
            slates.append(Slate(entries=tuple(kept[:k].tolist()), requested_k=k))
        return slates

    def slates(self, requests: Sequence[RecRequest], k: int) -> list[Slate]:
        return self.slates_for([request.exclude for request in requests], k)


class ItemKnnRecommender(BaseRecommender):
    name = "item_knn"

    def __init__(self, model: KnnModel):
        if model.mode != "item":
            raise ValueError("model is not item-based")
        self.model = model
        ids = sorted(
            set(model.neighbors).union(
                *({j for j, _ in neigh} for neigh in model.neighbors.values())
            )
        )
        self.items = np.array(ids, dtype=np.int64)
        self.item_index = {item: n for n, item in enumerate(ids)}
        sims = _lists_to_csr(
            [
                [(self.item_index[j], sim) for j, sim in model.neighbors.get(c, ())]
                for c in ids
            ],
            len(ids),
        )
        # Row j of sims_t holds sim(c, j) for every item c that lists j.
        self.sims_t = sims.T.tocsr()
        self.abs_sims_t = abs(self.sims_t)

    def profile_slates(
        self, profiles: Sequence[Sequence[tuple[int, float]]], k: int
    ) -> list[Slate]:
        """One slate per (item, rating) profile, scored SCORE_BLOCK at a time."""
        if not all(profiles):
            raise ValueError("profile must be non-empty")
        slates: list[Slate] = []
        for start in range(0, len(profiles), SCORE_BLOCK):
            # An item without a neighbor list can be neither scored nor recommended.
            ratings = _lists_to_csr(
                [
                    [(self.item_index[j], r) for j, r in profile if j in self.item_index]
                    for profile in profiles[start : start + SCORE_BLOCK]
                ],
                len(self.items),
            )
            rated = ratings.copy()
            rated.data[:] = 1.0
            num = ratings @ self.sims_t
            den = rated @ self.abs_sims_t
            slates += _knn_block_slates(num, den, rated, self.items, k)
        return slates

    def slates(self, requests: Sequence[RecRequest], k: int) -> list[Slate]:
        profiles = [[(it.item, it.rating) for it in request.train] for request in requests]
        return self.profile_slates(profiles, k)


class UserKnnRecommender(BaseRecommender):
    name = "user_knn"

    def __init__(self, model: KnnModel, matrix: RatingMatrix):
        if model.mode != "user":
            raise ValueError("model is not user-based")
        self.model = model
        self.matrix = matrix
        self.items = np.array(matrix.items, dtype=np.int64)
        self.centered = matrix.centered()
        csr = matrix.csr
        self.rated = sparse.csr_matrix(
            (np.ones_like(csr.data), csr.indices, csr.indptr), shape=csr.shape
        )

    def user_slates(self, users: Sequence[int], k: int) -> list[Slate]:
        """One slate per user of the rating matrix, scored SCORE_BLOCK at a time."""
        for user in users:
            if user not in self.matrix.user_index:
                raise ValueError(f"user {user} not in rating matrix")
        index = self.matrix.user_index
        slates: list[Slate] = []
        for start in range(0, len(users), SCORE_BLOCK):
            block = users[start : start + SCORE_BLOCK]
            rows = np.array([index[u] for u in block], dtype=np.int64)
            weights = _lists_to_csr(
                [
                    [(index[v], sim) for v, sim in self.model.neighbors.get(u, ())]
                    for u in block
                ],
                len(self.matrix.users),
            )
            num = weights @ self.centered
            # abs() of a sparse matrix would sort each row's entries first.
            weights.data = np.abs(weights.data)
            den = weights @ self.rated
            slates += _knn_block_slates(
                num, den, self.rated[rows], self.items, k, self.matrix.user_means[rows]
            )
        return slates

    def slates(self, requests: Sequence[RecRequest], k: int) -> list[Slate]:
        return self.user_slates([request.user for request in requests], k)

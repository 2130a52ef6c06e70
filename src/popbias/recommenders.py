"""Baseline top-k recommenders: random, top-popularity, item-KNN, user-KNN.

Both KNN variants use cosine similarity over mean-centered ratings (each
rating centered by its user's mean) and keep only the top-K neighbors per
entity whose similarity exceeds SIMILARITY_FLOOR (1e-12); a smaller cosine
is rounding noise around zero and counts as no neighbor. One builder,
_build_knn, serves both: it computes the similarities as sparse products of
_BLOCK rows each, keeps the stored entries above the floor off the diagonal,
cuts them with one _first_k call per block and returns a KnnModel whose
n x n CSR row n holds entity n's neighbors, stored best first.

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
left-hand row. R is built with each row in profile order and W is sliced
from the model's similarity rows, stored best first, so every score is
summed in the same order as a loop over the profile or the neighbor list.
Nothing may therefore sort a row's indices: scipy's abs() and
sum_duplicates do, so |W| replaces W's data array instead. A sparse
product drops entries that sum to exactly 0, so numerators are read back
at the denominator's entries, a missing one counting as 0. The block
bounds the dense requests x items arrays of one product.

``scipy.sparse`` (about 0.2 s to import) is imported on first use, by the
three functions that build a sparse matrix, so a run without a KNN
recommender never loads it. ``cli.evaluate`` imports it while checking
the config of a KNN run, so that the cost stays in set-up and out of the
first rating-matrix build.

Built models are immutable; recommend calls are thread-safe.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from popbias.catalog import Interaction, Ratings

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "DEFAULT_K_NEIGHBORS",
    "SCORE_BLOCK",
    "SCORE_SNAP_BITS",
    "SIMILARITY_FLOOR",
    "TooFewCandidatesError",
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
_BLOCK = 1024  # rows of one sparse similarity product in the KNN builds
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

    ``users`` and ``items`` are the sorted ids of the rows and columns; each
    CSR row stores its ratings in ascending item order.
    """

    def __init__(self, users: np.ndarray, items: np.ndarray, csr: sparse.csr_matrix):
        self.users = users
        self.items = items
        self.csr = csr
        counts = np.diff(self.csr.indptr)
        sums = np.asarray(self.csr.sum(axis=1)).ravel()
        self.user_means = np.divide(
            sums, counts, out=np.zeros_like(sums), where=counts > 0
        )

    @classmethod
    def from_interactions(cls, ratings: Ratings) -> "RatingMatrix":
        """The matrix of a ratings table, such as one fold's training side.

        A duplicate (user, item) pair keeps the rating in its later row: in
        a sorted table, the later one in (timestamp, file order).
        """
        if not len(ratings):
            raise ValueError("rating matrix is empty")
        users, rows = np.unique(ratings.user, return_inverse=True)
        items, cols = np.unique(ratings.item, return_inverse=True)
        keys = rows * items.size + cols
        # The first of each key in the reversed table is its last row.
        cells, from_end = np.unique(keys[::-1], return_index=True)
        csr = _csr_of_rows(
            cells // items.size,
            cells % items.size,
            ratings.rating[keys.size - 1 - from_end],
            (users.size, items.size),
        )
        return cls(users, items, csr)

    def centered(self) -> sparse.csr_matrix:
        """Ratings with each user's mean subtracted from their entries."""
        centered = self.csr.tocoo(copy=True)
        centered.data = centered.data - self.user_means[centered.row]
        return centered.tocsr()


def _csr_of_rows(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: tuple[int, int]
) -> sparse.csr_matrix:
    """A CSR matrix of (row, col, value) entries grouped by row, stored in the given order."""
    from scipy import sparse

    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return sparse.csr_matrix((vals, cols, indptr), shape=shape)


def _positions(ids: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's position in the sorted ids, and whether it is there at all."""
    positions = np.searchsorted(ids, values)
    found = positions < ids.size
    found[found] = ids[positions[found]] == values[found]
    return positions, found


def _present(ids: np.ndarray, values: Iterable) -> np.ndarray:
    """Positions in the sorted ids of those values that are ids; others are ignored."""
    values = np.array(list(values))
    if not values.size:
        return np.empty(0, dtype=np.intp)
    positions, found = _positions(ids, values)
    return positions[found]


class TooFewCandidatesError(ValueError):
    """A request's exclusions leave fewer than k items to recommend."""


@dataclass(frozen=True, eq=False)
class KnnModel:
    """Top-K neighbors (similarity above SIMILARITY_FLOOR) of every entity.

    ids are the sorted item or user ids; row n of the n x n CSR sims holds
    ids[n]'s neighbors as positions into ids, stored best first under the
    ranking rule. That storage order is part of the model: user-KNN sums
    each score in it, so nothing may sort a row's indices (scipy's abs()
    and sum_duplicates do).
    """

    mode: str  # "item" or "user"
    ids: np.ndarray
    sims: sparse.csr_matrix


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
    not depend on the other requests. Exclusions are found by sorted position;
    ids outside the pool are ignored.
    """
    slates = []
    for exclude, seed in zip(excludes, seeds):
        available = np.delete(pool, _present(pool, exclude))
        if len(available) < k:
            raise TooFewCandidatesError(f"only {len(available)} candidates available for k={k}")
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


def _build_knn(matrix: RatingMatrix, mode: str, k_neighbors: int) -> KnnModel:
    """Cosine similarity between the item columns or user rows of the centered matrix.

    Similarities are computed _BLOCK rows at a time as a sparse product.
    Its stored entries above SIMILARITY_FLOOR, minus each entity's own, go
    straight to one _first_k call, which cuts them to their rows' top-K
    neighbors; _first_k sorts each row in full, so the product's storage
    order does not matter.
    """
    from scipy import sparse

    if k_neighbors < 1:
        raise ValueError("k_neighbors must be >= 1")
    centered = matrix.centered()
    # Both modes sum the squares over the users x items matrix: summing the
    # rows of its transpose instead rounds differently in the last bit.
    norms = np.sqrt(
        np.asarray(centered.multiply(centered).sum(axis=0 if mode == "item" else 1)).ravel()
    )
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    if mode == "item":
        right = centered @ sparse.diags(inv)
        left = right.T.tocsr()
        ids = matrix.items
    else:
        left = sparse.diags(inv) @ centered
        right = left.T
        ids = matrix.users
    n = len(ids)
    kept: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for start in range(0, n, _BLOCK):
        # A CSR product stores its rows in order, so the entries come grouped by row.
        block = (left[start : start + _BLOCK] @ right).tocoo()
        # No entity is its own neighbor.
        keep = (block.data > SIMILARITY_FLOOR) & (block.col != block.row + start)
        rows, cols, sims = block.row[keep], block.col[keep], block.data[keep]
        del block  # freed before _first_k pads the entries into its own dense array
        # Positions follow ids, which are sorted, so ranking positions ranks ids.
        picked = _first_k(rows, cols, sims, k_neighbors)
        kept.append((rows[picked] + start, cols[picked], sims[picked]))
    rows, cols, sims = (np.concatenate(parts) for parts in zip(*kept))
    return KnnModel(mode=mode, ids=ids, sims=_csr_of_rows(rows, cols, sims, (n, n)))


def build_item_knn(matrix: RatingMatrix, k_neighbors: int = DEFAULT_K_NEIGHBORS) -> KnnModel:
    """Cosine similarity between item columns of the centered matrix."""
    return _build_knn(matrix, "item", k_neighbors)


def build_user_knn(matrix: RatingMatrix, k_neighbors: int = DEFAULT_K_NEIGHBORS) -> KnnModel:
    """Cosine similarity between user rows of the centered matrix."""
    return _build_knn(matrix, "user", k_neighbors)


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
    items = np.array([item for item, _ in profile], dtype=np.int64)
    ratings = np.array([rating for _, rating in profile], dtype=float)
    table = Ratings(np.zeros_like(items), items, ratings, np.arange(items.size))
    return ItemKnnRecommender(model).profile_slates([table], k)[0]


def recommend_user_knn(
    model: KnnModel, matrix: RatingMatrix, user: int, k: int
) -> Slate:
    """Score unseen items from neighbors' mean-centered ratings.

    score(c) = mean(u) + sum(sim(u, v) * (rating_v(c) - mean(v))) /
    sum(|sim(u, v)|) over neighbors v who rated c. A user with no positive
    neighbors gets an empty slate.
    """
    return UserKnnRecommender(model, matrix).user_slates([user], k)[0]


@dataclass(frozen=True, eq=False)
class RecRequest:
    """One user's recommendation request within an evaluation run.

    ``profile`` holds the user's training ratings in watch order and
    ``exclude`` the items no slate may hold.
    """

    user: int
    profile: Ratings
    exclude: frozenset[int]

    @property
    def train(self) -> tuple[Interaction, ...]:
        """The training ratings as Interaction objects, built on demand."""
        return self.profile.interactions()


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
        self.ids = np.array(ids)
        self.ranking = self.ids[order]
        # rank[p] is the place of ids[p] in the ranking.
        self.rank = np.empty_like(order)
        self.rank[order] = positions

    def slates_for(self, excludes: Sequence[Iterable[int]], k: int) -> list[Slate]:
        """Per exclusion set, the first k items of the ranking outside it.

        Exclusion ids outside phi are ignored.
        """
        slates = []
        for exclude in excludes:
            ranks = self.rank[_present(self.ids, exclude)]
            # At most len(ranks) of the first k + len(ranks) items are excluded.
            head = np.ones(min(k + len(ranks), len(self.ranking)), dtype=bool)
            head[ranks[ranks < len(head)]] = False
            kept = self.ranking[: len(head)][head]
            if len(kept) < k:
                raise TooFewCandidatesError(f"only {len(kept)} items available for k={k}")
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
        self.items = model.ids
        # Row j of sims_t holds sim(c, j) for every item c that lists j.
        self.sims_t = model.sims.T.tocsr()
        self.abs_sims_t = abs(self.sims_t)

    def profile_slates(self, profiles: Sequence[Ratings], k: int) -> list[Slate]:
        """One slate per training profile, scored SCORE_BLOCK at a time."""
        if not all(len(profile) for profile in profiles):
            raise ValueError("profile must be non-empty")
        slates: list[Slate] = []
        for start in range(0, len(profiles), SCORE_BLOCK):
            block = profiles[start : start + SCORE_BLOCK]
            items = np.concatenate([profile.item for profile in block])
            rows = np.repeat(np.arange(len(block)), [len(profile) for profile in block])
            # An item without a neighbor list can be neither scored nor recommended.
            cols, known = _positions(self.items, items)
            ratings = _csr_of_rows(
                rows[known],
                cols[known],
                np.concatenate([profile.rating for profile in block])[known],
                (len(block), self.items.size),
            )
            rated = ratings.copy()
            rated.data[:] = 1.0
            num = ratings @ self.sims_t
            den = rated @ self.abs_sims_t
            slates += _knn_block_slates(num, den, rated, self.items, k)
        return slates

    def slates(self, requests: Sequence[RecRequest], k: int) -> list[Slate]:
        return self.profile_slates([request.profile for request in requests], k)


class UserKnnRecommender(BaseRecommender):
    name = "user_knn"

    def __init__(self, model: KnnModel, matrix: RatingMatrix):
        from scipy import sparse

        if model.mode != "user":
            raise ValueError("model is not user-based")
        if not np.array_equal(model.ids, matrix.users):
            raise ValueError("model was built from another rating matrix")
        self.model = model
        self.matrix = matrix
        self.items = matrix.items
        self.centered = matrix.centered()
        csr = matrix.csr
        self.rated = sparse.csr_matrix(
            (np.ones_like(csr.data), csr.indices, csr.indptr), shape=csr.shape
        )

    def user_slates(self, users: Sequence[int], k: int) -> list[Slate]:
        """One slate per user of the rating matrix, scored SCORE_BLOCK at a time."""
        users = np.asarray(users, dtype=np.int64)
        positions, known = _positions(self.matrix.users, users)
        if not known.all():
            raise ValueError(f"user {users[~known][0]} not in rating matrix")
        slates: list[Slate] = []
        for start in range(0, len(users), SCORE_BLOCK):
            rows = positions[start : start + SCORE_BLOCK]
            weights = self.model.sims[rows]
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

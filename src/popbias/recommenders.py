"""Baseline top-k recommenders: random, top-popularity, item-KNN, user-KNN.

Both KNN variants use cosine similarity over mean-centered ratings (each
rating centered by its user's mean) and keep only the top-K neighbors per
entity whose similarity exceeds SIMILARITY_FLOOR (1e-12); a smaller cosine
is rounding noise around zero and counts as no neighbor. One builder,
_build_knn, serves both: it computes the similarities as sparse products
over blocks of rows, keeps the stored entries above the floor off the
diagonal, cuts them with one _first_k call per block and returns the n x n
CSR whose row n holds entity n's neighbors, stored best first.
build_item_knn and build_user_knn hand that CSR straight to the recommender
they return, so a trained neighbor list exists only inside its recommender.

Ranking rule, shared by top-pop slates, KNN slates and the top-K neighbor
cut: a score is compared after snapping it to SCORE_SNAP_BITS (40)
significant bits, a relative precision of about 1e-12, and equal snapped
scores break by ascending id. Two scores that are equal in exact arithmetic
but whose computed floats differ in the last bits therefore tie, and the id
decides. The rule is deterministic, so runs are reproducible, but not
airtight: a tie whose two computed values fall on opposite sides of a
snapping boundary still ranks by the raw values. One kernel, _first_k,
applies it to (row, col, score) entries of any number of rows at once. It
finds each row's k-th largest raw score by a partition and snaps and sorts
only the entries that can reach that score's snap: snapping is monotone and
moves a score by at most half a 40-bit step.

Batch scoring: every recommender answers a batch through one entry point,
slates(requests, k), which BaseRecommender.recommend_batch wraps. A
request's training profile is its exclusion set. Random and top-pop look up
the whole batch's profile items at once (_excluded) and map each pick, the
j-th item of phi's ids or of the ranking outside a profile, to its position
with one search for the whole batch (_nth_outside), so no request copies
the catalog. Random draws the batch's picks at once, by Floyd's algorithm
over keys of (seed, purpose, user, index) from one counter-based stream
(_stream_keys), which is not the one that split the users' ratings. The KNN
recommenders score blocks of requests, each with one sparse product:

- item-KNN: (R + 1j * 1_R) @ S.T, where R is the requests x items matrix of
  profile ratings and row c of S holds item c's neighbor similarities;
  score = num / den;
- user-KNN: W @ (C + 1j * B), where row r of W holds the requesting user's
  neighbor similarities, C the mean-centered ratings and B the rated
  indicator; score = mean(u) + num / den.

The real part of the product is num and the imaginary part den. Both are
exact: every stored similarity is above SIMILARITY_FLOOR, so it is positive
and |s| = s, and each term is (r + 1i)(s + 0i) = (r*s - 0) + (r*0 + s)i or
(w + 0i)(c + 1i) = (w*c - 0) + (w*1 + 0*c)i, so each part adds the same
products in the same order as a real product of its own would. Both
recommenders refuse similarities that break the invariant. den > 0 at every
entry, so the product keeps the entries whose num sums to exactly 0, which a
real product drops.

A CSR product sums each output entry in the storage order of the left-hand
row. R is built with each row in profile order and W is sliced from the
user-KNN similarity rows, stored best first, so every score is summed in the
same order as a loop over the profile or the neighbor list. Nothing may
therefore sort a row's indices (scipy's abs() and sum_duplicates do).

Seen items are dropped through a boolean mask of the block, rows x n_items
bytes (64 x 12k, about 0.8 MB, per task on a 12k-item catalog with two
workers), cleared at the block's profile items (both KNN recommenders find
them with _profile_cells) and read at each product entry's (row, col).
No requests x items array of scores is built.

Blocks on worker threads: the row blocks of the builds and of both scorers
are independent, and the sparse products and sorts that take their time run
in native code that releases the GIL. _map_blocks runs them on a thread pool
with one worker per usable CPU and returns their results in block order, so
nothing depends on the worker count. The rows in flight stay fixed whatever
the worker count: each task takes _BUILD_ROWS (256) similarity rows or
SCORE_BLOCK (128) requests divided by the workers, which bounds the memory
of the blocks being computed at once.

``scipy.sparse`` (about 0.2 s to import) is imported on first use, by the
two functions that build a sparse matrix, so a run without a KNN
recommender never loads it. ``cli.evaluate`` imports it while checking
the config of a KNN run, so that the cost stays in set-up and out of the
first rating-matrix build.

Built recommenders are immutable; recommend calls are thread-safe.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, TypeVar

import numpy as np

from popbias.catalog import Ratings
from popbias.metrics import PhiArray, id_positions

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "DEFAULT_K_NEIGHBORS",
    "SCORE_BLOCK",
    "SCORE_SNAP_BITS",
    "SIMILARITY_FLOOR",
    "RatingMatrix",
    "Slate",
    "RecRequest",
    "RecResult",
    "BaseRecommender",
    "RandomRecommender",
    "TopPopRecommender",
    "ItemKnnRecommender",
    "UserKnnRecommender",
    "build_item_knn",
    "build_user_knn",
]

DEFAULT_K_NEIGHBORS = 30
SCORE_SNAP_BITS = 40
SIMILARITY_FLOOR = 1e-12
# Similarity rows in flight, over all workers, in a KNN build: each block's
# product, its COO copy and _first_k's padded array scale with it.
_BUILD_ROWS = 256
SCORE_BLOCK = 128  # requests in flight, over all workers, in KNN scoring

_T = TypeVar("_T")


def _worker_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _map_blocks(fn: Callable[[int, int], _T], count: int, budget: int) -> list[_T]:
    """fn(start, stop) over consecutive blocks of range(count), results in block order.

    Each block holds budget // workers rows (at least one), so about budget
    rows are in flight whatever the worker count. With one worker or one
    block the blocks run inline, otherwise on a thread pool of the workers.
    """
    workers = _worker_count()
    step = max(1, budget // workers)
    starts = range(0, count, step)
    if workers == 1 or len(starts) <= 1:
        return [fn(start, start + step) for start in starts]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(lambda start: fn(start, start + step), starts))


def _snap(scores: np.ndarray) -> np.ndarray:
    """scores rounded to SCORE_SNAP_BITS significant bits (monotone in score)."""
    mantissa, exponent = np.frexp(scores)
    return np.ldexp(np.rint(np.ldexp(mantissa, SCORE_SNAP_BITS)), exponent - SCORE_SNAP_BITS)


def _first_k(rows: np.ndarray, cols: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of each row's first k entries under the ranking rule.

    rows must be grouped (non-decreasing) and scores finite. Entries are
    ordered by (row, descending snapped score, col), so cols must be ids or
    positions in ascending id order. The result lists the kept positions in
    that order.

    Only the entries that can reach a row's k-th snapped score are snapped
    and sorted. _snap is monotone, so that score is the snap of the row's
    k-th largest raw score, found by partitioning the raw scores. Rounding
    moves a score by at most half a 40-bit step, so an entry more than half
    a step of the kth's binade below it snaps below it too and is passed
    over. A row has at least k entries at or above its k-th snapped score,
    all sorted, so the cut to k drops every sorted entry that snaps below it.
    """
    row_start = np.ones(rows.size, dtype=bool)
    row_start[1:] = rows[1:] != rows[:-1]
    starts = np.flatnonzero(row_start)
    counts = np.diff(starts, append=rows.size)
    width = int(counts.max(initial=0))
    if 0 < k < width:
        # Each row's entries fill one row of a padded array; a row with
        # fewer than k entries pads its k-th with -inf, which keeps them all.
        padded = np.full(starts.size * width, -np.inf)
        offsets = np.repeat(np.arange(starts.size) * width - starts, counts)
        padded[np.arange(rows.size) + offsets] = scores
        padded = padded.reshape(starts.size, width)
        padded.partition(width - k, axis=1)
        kth = _snap(padded[:, width - k])
        # |kth| * 2**-40 is at least half a step of kth's binade; below a
        # power of two the steps are half as large.
        reach = kth - np.abs(kth) * 2.0**-SCORE_SNAP_BITS
        candidates = np.flatnonzero(scores >= np.repeat(reach, counts))
    else:
        candidates = np.arange(rows.size)
    snapped = _snap(scores[candidates])
    order = candidates[np.lexsort((cols[candidates], -snapped, rows[candidates]))]
    ranked_rows = rows[order]
    rank = np.arange(order.size) - np.searchsorted(ranked_rows, ranked_rows)
    return order[rank < k]


@dataclass(frozen=True)
class Slate:
    """Ordered top-k recommendation; may be shorter than the k asked for."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.entries)) != len(self.entries):
            raise ValueError("slate contains duplicate items")


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

    @cached_property
    def centered(self) -> sparse.csr_matrix:
        """Ratings with each user's mean subtracted from their entries, computed once, read-only."""
        centered = self.csr.tocoo(copy=True)
        centered.data = centered.data - self.user_means[centered.row]
        centered = centered.tocsr()
        for array in (centered.data, centered.indices, centered.indptr):
            array.flags.writeable = False
        return centered


def _csr_of_rows(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: tuple[int, int]
) -> sparse.csr_matrix:
    """A CSR matrix of (row, col, value) entries grouped by row, stored in the given order."""
    from scipy import sparse

    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return sparse.csr_matrix((vals, cols, indptr), shape=shape)


def _profile_cells(profiles: Sequence[Ratings], ids: np.ndarray) -> tuple[np.ndarray, ...]:
    """(row, col) of each profile rating whose item is in the sorted ids, and the kept mask.

    row is the profile's index and col the item's position in ids. The mask
    marks the kept ones among all the profiles' ratings, concatenated.
    """
    items = np.concatenate([np.empty(0, np.int64), *(profile.item for profile in profiles)])
    cols, known = id_positions(ids, items)
    rows = np.repeat(np.arange(len(profiles)), [len(profile) for profile in profiles])
    return rows[known], cols[known], known


def _excluded(
    ids: np.ndarray, requests: Sequence[RecRequest], rank: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The requests' profile items as sorted distinct keys request * len(ids) + p.

    p is an item's position in the sorted ids, or rank[position] when rank
    is given. Profile items not in ids are ignored. Also returns each
    request's count of ids outside its profile.
    """
    n = ids.size
    owner, positions, _ = _profile_cells([request.profile for request in requests], ids)
    positions = positions if rank is None else rank[positions]
    keys = np.sort(owner * n + positions)
    distinct = np.ones(keys.size, dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]
    keys = keys[distinct]
    return keys, n - np.diff(np.searchsorted(keys, np.arange(len(requests) + 1) * n))


def _nth_outside(excluded: np.ndarray, n: int, counts: np.ndarray, nth: np.ndarray) -> np.ndarray:
    """Positions of range(n) outside each request's excluded ones, picked by rank.

    excluded holds the sorted distinct keys request * n + position, as
    _excluded returns them. Request r picks counts[r] positions, the next
    counts[r] entries of nth in turn, each below r's count of positions
    outside; entry j of the result is the nth[j]-th position outside.

    An excluded position e that is the i-th of its request has e - i
    positions outside before it, so the nth outside is nth plus the count of
    its request's keys with e - i <= nth. Each key less its index stays
    sorted over all requests, so one search answers every pick once its
    query is shifted by the count of earlier requests' keys.
    """
    request = np.repeat(np.arange(counts.size), counts)
    before = np.searchsorted(excluded, request * n)
    shifted = excluded - np.arange(excluded.size)
    return nth + np.searchsorted(shifted, request * n + nth - before, side="right") - before


_RANDOM_STREAM = 1  # purpose tag of _stream_keys; each purpose takes its own


def _stream_keys(seed: int, purpose: int, user: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Uniform 64-bit keys of (seed, purpose, user, index), the arrays broadcast together.

    Starting from 0, each part x in turn sets the key to splitmix64's (x +
    1)-th output from the key as its state: the finalizer of key + (x + 1) *
    gamma, in wrapping uint64 arithmetic. The finalizer is a bijection, so
    one (seed, purpose, user) gives distinct keys at distinct indices.
    """
    key = np.zeros(1, dtype=np.uint64)
    for part in (seed, purpose, user, index):
        step = np.array(part, np.int64, ndmin=1).astype(np.uint64) + 1
        key = key + step * np.uint64(0x9E3779B97F4A7C15)
        key = (key ^ (key >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
        key = (key ^ (key >> 27)) * np.uint64(0x94D049BB133111EB)
        key ^= key >> 31
    return key


def _split_slates(entries: np.ndarray, counts: np.ndarray) -> list[Slate]:
    """One slate per count, taking that many of entries in turn."""
    items = entries.tolist()
    stops = np.cumsum(counts).tolist()
    return [Slate(entries=tuple(items[a:b])) for a, b in zip([0, *stops], stops)]


def _build_knn(
    matrix: RatingMatrix, mode: str, k_neighbors: int
) -> tuple[np.ndarray, sparse.csr_matrix]:
    """Top-K cosine neighbors between the item columns or user rows of the centered matrix.

    Returns (ids, sims): ids are the sorted item or user ids and row n of
    the n x n CSR sims holds ids[n]'s neighbors whose similarity is above
    SIMILARITY_FLOOR, as positions into ids, stored best first under the
    ranking rule. That storage order is part of the result: user-KNN sums
    each score in it, so nothing may sort a row's indices (scipy's abs()
    and sum_duplicates do).

    Similarities are computed a block of rows at a time as a sparse
    product, the blocks on worker threads (_map_blocks). A block's stored
    entries above SIMILARITY_FLOOR, minus each entity's own, go straight to
    one _first_k call, which cuts them to their rows' top-K neighbors;
    _first_k ranks by score and id alone, so the product's storage order does
    not matter.
    """
    from scipy import sparse

    if k_neighbors < 1:
        raise ValueError("k_neighbors must be >= 1")
    centered = matrix.centered
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
        # Converted once here, not by every block's product.
        right = left.T.tocsr()
        ids = matrix.users
    n = len(ids)

    def block(start: int, stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # A CSR product stores its rows in order, so the entries come grouped by row.
        product = (left[start:stop] @ right).tocoo()
        # No entity is its own neighbor.
        keep = (product.data > SIMILARITY_FLOOR) & (product.col != product.row + start)
        rows, cols, sims = product.row[keep], product.col[keep], product.data[keep]
        del product  # freed before _first_k pads the entries into its own dense array
        # Positions follow ids, which are sorted, so ranking positions ranks ids.
        picked = _first_k(rows, cols, sims, k_neighbors)
        return rows[picked] + start, cols[picked], sims[picked]

    rows, cols, sims = (
        np.concatenate(parts) for parts in zip(*_map_blocks(block, n, _BUILD_ROWS))
    )
    return ids, _csr_of_rows(rows, cols, sims, (n, n))


def _knn_block_slates(
    product: sparse.csr_matrix,
    seen: tuple[np.ndarray, np.ndarray],
    ids: np.ndarray,
    k: int,
    base: np.ndarray | None = None,
) -> list[Slate]:
    """Slates of one scored block: score = base + num / den, ranked per row.

    product is the block's num + 1j * den (see the module docstring); every
    entry it stores has den > 0. seen holds the (row, col) pairs no slate
    may hold. They are cleared in a rows x len(ids) mask of the block, which
    each stored entry reads at its own (row, col).
    """
    unseen = np.ones(product.shape, dtype=bool)
    unseen[seen] = False
    product = product.tocoo()
    keep = np.flatnonzero(unseen[product.row, product.col])
    rows, cols = product.row[keep], product.col[keep]
    scores = (product.data.real / product.data.imag)[keep]
    if base is not None:
        scores = base[rows] + scores
    picked = _first_k(rows, cols, scores, k)
    return _split_slates(ids[cols[picked]], np.bincount(rows[picked], minlength=product.shape[0]))


@dataclass(frozen=True, eq=False)
class RecRequest:
    """One user's recommendation request within an evaluation run.

    ``profile`` holds the user's training ratings in watch order. Its items
    are the ones no slate may hold.
    """

    user: int
    profile: Ratings

    @cached_property
    def exclude(self) -> frozenset[int]:
        """The profile's items as a set, built on first use."""
        return frozenset(self.profile.item.tolist())


@dataclass(frozen=True)
class RecResult:
    slate: Slate


class BaseRecommender:
    """One entry point, ``slates(requests, k)``; ``recommend_batch`` wraps it."""

    name: str = "base"

    def slates(self, requests: Sequence[RecRequest], k: int) -> list[Slate]:
        raise NotImplementedError

    def recommend_batch(self, requests: Sequence[RecRequest], k: int) -> list[RecResult]:
        return [RecResult(slate=slate) for slate in self.slates(requests, k)]


class RandomRecommender(BaseRecommender):
    """Uniform draws from a pool, the item ids of the PhiArray it is given."""

    name = "random"

    def __init__(self, phi: PhiArray, seed: int):
        self.pool = phi.ids
        self.seed = seed

    def slates(self, requests: Sequence[RecRequest], k: int) -> list[Slate]:
        """Per request, k distinct draws from the pool minus its profile items.

        A request with fewer than k items left draws them all, in random
        order, and its slate comes back short. A request draws count =
        min(k, left) of its left pool positions outside its profile by
        Floyd's algorithm, the whole batch at once, from its own keys
        _stream_keys(seed, _RANDOM_STREAM, user, index), so a slate does not
        depend on the other requests. Round i < count draws key i mod (j +
        1), j = left - count + i, and takes j instead when that pick is
        taken: every set of picks is equally likely, up to a modulo bias
        below left / 2**64. Sorting the picks by keys k + i makes every
        order equally likely. The batch runs only as many rounds as its
        longest slate, and draws only those keys, so its cost does not
        grow with k past the pool. A pick j is the j-th pool item outside
        the profile; one search over the batch maps them all (_nth_outside).
        Profile items outside the pool are ignored.
        """
        excluded, available = _excluded(self.pool, requests)
        counts = np.minimum(k, available)
        rounds = int(counts.max(initial=0))
        users = np.fromiter((request.user for request in requests), np.int64, len(requests))
        index = np.concatenate((np.arange(rounds), k + np.arange(rounds)))
        keys = _stream_keys(self.seed, _RANDOM_STREAM, users[:, None], index)
        picks = np.empty((users.size, rounds), dtype=np.int64)
        for i in range(rounds):
            j = available - counts + i
            pick = (keys[:, i] % (j + 1).astype(np.uint64)).astype(np.int64)
            picks[:, i] = np.where((picks[:, :i] == pick[:, None]).any(axis=1), j, pick)
        # Rounds past a request's count take the largest order key, so they sort last.
        live = np.arange(rounds) < counts[:, None]
        order_keys = np.where(live, keys[:, rounds:], np.uint64(2**64 - 1))
        order = np.argsort(order_keys, axis=1, kind="stable")
        nth = np.take_along_axis(picks, order, axis=1)[live]
        picked = _nth_outside(excluded, self.pool.size, counts, nth)
        return _split_slates(self.pool[picked], counts)


class TopPopRecommender(BaseRecommender):
    """Most popular items outside each profile, ranked by the PhiArray it is given.

    The evaluation passes phi counted over all ratings, held-out test
    ratings included, so the popularity ranking sees the test side.
    """

    name = "top_pop"

    def __init__(self, phi: PhiArray):
        positions = np.arange(phi.ids.size)
        order = _first_k(np.zeros_like(positions), positions, phi.scores, phi.ids.size)
        self.ids = phi.ids
        self.ranking = self.ids[order]
        # rank[p] is the place of ids[p] in the ranking.
        self.rank = np.empty_like(order)
        self.rank[order] = positions

    def slates(self, requests: Sequence[RecRequest], k: int) -> list[Slate]:
        """Per request, the first k items of the ranking outside its profile.

        The slate comes back short when fewer than k are left. Profile items
        outside phi are ignored. The whole batch's slates come from one
        search over the profiles' ranks (_nth_outside), with no loop over
        the requests.
        """
        excluded, available = _excluded(self.ids, requests, self.rank)
        counts = np.minimum(k, available)
        nth = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        picked = _nth_outside(excluded, self.ids.size, counts, nth)
        return _split_slates(self.ranking[picked], counts)


def _checked(sims: sparse.csr_matrix, n: int) -> sparse.csr_matrix:
    """sims, once it is n x n and stores only similarities above SIMILARITY_FLOOR.

    The fused score product reads |sim| as sim, so a similarity that is not
    positive and finite would give a wrong denominator.
    """
    if sims.shape != (n, n):
        raise ValueError(f"similarities are {sims.shape[0]} x {sims.shape[1]}, not {n} x {n}")
    if not np.all(np.isfinite(sims.data) & (sims.data > SIMILARITY_FLOOR)):
        raise ValueError("a similarity is not finite or not above SIMILARITY_FLOOR")
    return sims


class ItemKnnRecommender(BaseRecommender):
    """Items scored by their similarity to a profile's items (build_item_knn trains one).

    Row n of sims holds the neighbors of item ids[n] as positions into ids.
    """

    name = "item_knn"

    def __init__(self, ids: np.ndarray, sims: sparse.csr_matrix):
        self.items = ids
        # Row j of sims_t holds sim(c, j) for every item c that lists j,
        # complex already so that no block's product converts it.
        self.sims_t = _checked(sims, ids.size).T.tocsr().astype(complex)

    def slates(self, requests: Sequence[RecRequest], k: int) -> list[Slate]:
        """One slate per training profile, scored in blocks on worker threads.

        A candidate in no neighbor list of a profile item is unscored, so a
        slate may come back short, and an empty profile gets an empty slate.
        """
        profiles = [request.profile for request in requests]
        n = self.items.size

        def block(start: int, stop: int) -> list[Slate]:
            batch = profiles[start:stop]
            # An item without a neighbor list can be neither scored nor recommended.
            rows, cols, known = _profile_cells(batch, self.items)
            ratings = np.concatenate([profile.rating for profile in batch])[known]
            product = _csr_of_rows(rows, cols, ratings + 1j, (len(batch), n)) @ self.sims_t
            return _knn_block_slates(product, (rows, cols), self.items, k)

        return [slate for part in _map_blocks(block, len(profiles), SCORE_BLOCK) for slate in part]


class UserKnnRecommender(BaseRecommender):
    """Items scored by the ratings of a user's neighbors (build_user_knn trains one).

    Row n of sims holds the neighbors of user matrix.users[n] as positions
    into matrix.users; the matrix supplies their ratings and means.
    """

    name = "user_knn"

    def __init__(self, matrix: RatingMatrix, sims: sparse.csr_matrix):
        self.matrix = matrix
        self.sims = _checked(sims, matrix.users.size)
        # C + 1j * B: the centered ratings, with imaginary part 1 at every rating.
        self.scored = matrix.centered.astype(complex)
        self.scored.data += 1j

    def slates(self, requests: Sequence[RecRequest], k: int) -> list[Slate]:
        """One slate per requesting user, scored in blocks on worker threads.

        Each user must be a row of the rating matrix. The slate leaves out
        the request's profile items, as every recommender's does. A user
        without neighbors gets an empty slate.
        """
        users = np.array([request.user for request in requests], dtype=np.int64)
        positions, known = id_positions(self.matrix.users, users)
        if not known.all():
            raise ValueError(f"user {users[~known][0]} not in rating matrix")
        profiles = [request.profile for request in requests]
        items = self.matrix.items

        def block(start: int, stop: int) -> list[Slate]:
            rows = positions[start:stop]
            product = self.sims[rows] @ self.scored
            seen = _profile_cells(profiles[start:stop], items)[:2]
            return _knn_block_slates(product, seen, items, k, self.matrix.user_means[rows])

        return [slate for part in _map_blocks(block, len(users), SCORE_BLOCK) for slate in part]


def build_item_knn(
    matrix: RatingMatrix, k_neighbors: int = DEFAULT_K_NEIGHBORS
) -> ItemKnnRecommender:
    """Item-KNN over the top-K cosine neighbors of the centered matrix's item columns."""
    return ItemKnnRecommender(*_build_knn(matrix, "item", k_neighbors))


def build_user_knn(
    matrix: RatingMatrix, k_neighbors: int = DEFAULT_K_NEIGHBORS
) -> UserKnnRecommender:
    """User-KNN over the top-K cosine neighbors of the centered matrix's user rows."""
    return UserKnnRecommender(matrix, _build_knn(matrix, "user", k_neighbors)[1])

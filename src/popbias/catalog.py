r"""MovieLens-format ingestion, popularity counting, and title resolution.

Flat-file ingestion only: ``movies.dat`` (``MovieID::Title (Year)::Genres``,
the genres unread) and ``ratings.dat`` (``UserID::MovieID::Rating::Timestamp``).
The parsed catalog and title index are immutable after construction and
safe to share across threads; the popularity counts are a ``PhiArray``,
shared read-only.

Line rule: a file is decoded as UTF-8, or as latin-1 where that fails, and
split into lines at ``\n`` only, and every trailing ``\r`` is stripped from
each line, so ``"x\r\r\n"`` is the line ``"x"``. Other Unicode line
boundaries (``\x0b``, ``\x0c``, ``\x1c``-``\x1e``, U+0085, U+2028, U+2029)
stay inside their line, so line numbers count physical lines. Blank lines
are skipped but counted. A number field may have whitespace around it. An
id or timestamp is ASCII digits, which ``int`` reads, so ``1_0``, ``+5``
and a non-ASCII digit are malformed, and so is any value with a minus sign,
``-0`` included. A rating is ASCII without ``_``, which ``float`` reads.
``parse_movies`` and ``parse_ratings`` apply the rule to the lines they are
given, and share one lenient/strict contract: lenient mode records each
malformed line as a :class:`ParseIssue` and goes on, strict mode raises
:class:`ParseError` at the first.

Ratings are read into a :class:`Ratings` table of numpy columns, sorted
by (user, timestamp, item) unless the file is in that order already. Both
read paths, the line parser and the fast path, collect the rows into one
record array and end in :meth:`Ratings.from_columns` of its fields.
``read_ratings_file`` first tries a fast path of two steps. A pre-check
reads the file in pieces of about 256 KiB that each end just after a
``\n``. It accepts only the bytes ``0-9 : . \r \n``, and a ``\r`` only
as the start of a ``\r\n``; it counts the colons, and the pairs of
adjacent colons. Then one ``np.loadtxt`` call, with warnings raised as
errors, splits each line at ``:`` and reads fields 0, 2, 4 and 6 as the
user, item, rating and timestamp; it skips blank lines, as the line
parser does. The table is kept only if there are six colons and three
adjacent pairs per row, and every rating is in [0.5, 5].

A kept table is the line parser's. Reading field 6 needs at least six
colons on a line, so the colon total leaves exactly six on each.
``loadtxt`` refuses an empty field, so fields 0, 2, 4 and 6 hold a byte
and only the colons around fields 1, 3 and 5 can be adjacent: at most
three pairs a line, so the pair total makes all three adjacent on every
line. ``loadtxt`` also refuses a dotted or out-of-range id or timestamp
(the byte check leaves no sign or space to refuse). So every line is
``F::F::F::F``, read to the values ``int`` and ``float`` give. Anything
else (a failed check, an exception) falls back to :func:`parse_ratings`
over the lines of the whole file, read once more, so lenient
``ParseIssue`` records and strict-mode errors are always the line
parser's.
"""

from __future__ import annotations

import re
import unicodedata
import warnings
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from popbias.metrics import PhiArray

__all__ = [
    "CatalogEntry",
    "Interaction",
    "Ratings",
    "ParseIssue",
    "ParseError",
    "TitleIndex",
    "parse_movies",
    "parse_ratings",
    "read_movies_file",
    "read_ratings_file",
    "compute_popularity",
    "normalize_title",
    "levenshtein",
    "MAX_EDIT_DISTANCE",
]

# Title field ends in "(YYYY)"; anything without it keeps year=0.
_YEAR_RE = re.compile(r"^(?P<title>.*?)\s*\((?P<year>\d{4})\)\s*$")
_TRAILING_ARTICLE_RE = re.compile(r"^(?P<body>.+?),\s*(?:the|a|an)$")
_LEADING_ARTICLE_RE = re.compile(r"^(?:the|a|an)\s+(?P<body>.+)$")
_PUNCT_RE = re.compile(r"[^a-z0-9\s]")
_WS_RE = re.compile(r"\s+")

# The dtypes of the user, item, rating and timestamp columns of a Ratings.
_DTYPES = (np.int64, np.int64, float, np.int64)
# A parsed row: the user, item, rating and timestamp fields of one rating line.
_RECORD = np.dtype(list(zip(("user", "item", "rating", "timestamp"), _DTYPES)))
_INT64_MAX = int(np.iinfo(np.int64).max)

# Largest edit distance at which a title still fuzzily matches a catalog title.
MAX_EDIT_DISTANCE = 2


class ParseError(ValueError):
    """Raised in strict mode on the first malformed input line."""


@dataclass(frozen=True)
class ParseIssue:
    """One malformed line recorded during lenient parsing."""

    line_no: int
    line: str
    reason: str

    def __str__(self) -> str:
        return f"line {self.line_no}: {self.reason} ({self.line!r})"


@dataclass(frozen=True)
class CatalogEntry:
    item: int
    title: str
    year: int


@dataclass(frozen=True)
class Interaction:
    """A row of a :class:`Ratings` table, as ``__iter__`` yields it for perfbench's readers."""

    user: int
    item: int
    rating: float
    timestamp: int


@dataclass(frozen=True, eq=False)
class Ratings:
    """Ratings as four aligned numpy columns, one row per rating.

    A table is made by :meth:`from_columns`, which ``parse_ratings`` and
    ``read_ratings_file`` both end in, and is stable-sorted by (user,
    timestamp, item): each user's ratings are one contiguous run in watch
    order, and rows tied on all three keys keep file order. Indexing with a
    slice or with ascending row positions keeps that order, and gives
    another table; iterating yields the rows as :class:`Interaction` objects.
    """

    user: np.ndarray  # int64
    item: np.ndarray  # int64
    rating: np.ndarray  # float64
    timestamp: np.ndarray  # int64

    @classmethod
    def from_columns(cls, user, item, rating, timestamp) -> "Ratings":
        """The table of the given columns' rows, stable-sorted by (user, timestamp, item).

        Rows already in that order, ties included, come back in the arrays
        given, converted to the column dtypes. Otherwise each column is
        replaced by a sorted copy in turn, so a converted column that only
        this call holds is freed before the next is sorted. The arrays
        passed in are never written to.
        """
        given = (user, item, rating, timestamp)
        columns = [np.asarray(column, dtype) for column, dtype in zip(given, _DTYPES)]
        user, item, rating, timestamp = columns
        ordered = item[:-1] <= item[1:]
        for key in (timestamp, user):
            before, after = key[:-1], key[1:]
            ordered = (before < after) | ((before == after) & ordered)
        if not ordered.all():
            order = np.lexsort((item, timestamp, user))
            del given, user, item, rating, timestamp, before, after
            for i in range(len(columns)):
                columns[i] = columns[i][order]
        return cls(*columns)

    def __len__(self) -> int:
        return self.user.size

    def __getitem__(self, rows) -> "Ratings":
        return Ratings(self.user[rows], self.item[rows], self.rating[rows], self.timestamp[rows])

    def __iter__(self) -> Iterator[Interaction]:
        """The rows as :class:`Interaction` objects of Python scalars, in row order."""
        return map(
            Interaction,
            self.user.tolist(),
            self.item.tolist(),
            self.rating.tolist(),
            self.timestamp.tolist(),
        )


class _BadLine(Exception):
    """A field rule's reason for leaving one line out."""


def _parse_lines(
    lines: Iterable[str], strict: bool, kind: str, fields: int, parse: Callable[..., object]
) -> tuple[list, list[ParseIssue]]:
    """``parse(*fields)`` of each non-blank line under the line rule, split at ``::``.

    A line with another field count, or whose fields ``parse`` rejects with
    :class:`_BadLine`, is malformed under the lenient/strict contract.
    """
    values: list = []
    issues: list[ParseIssue] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        parts = line.split("::")
        try:
            if len(parts) != fields:
                raise _BadLine(f"expected {fields} '::'-separated fields")
            values.append(parse(*parts))
        except _BadLine as exc:
            if strict:
                raise ParseError(f"{kind} line {line_no}: {exc}") from None
            issues.append(ParseIssue(line_no, line, str(exc)))
    return values, issues


def _integer(raw: str, field: str) -> int:
    """An id or timestamp field: an integer in [0, 2**63). Not ASCII digits: ValueError."""
    text = raw.strip()
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(raw)
    if text.startswith("-"):
        raise _BadLine(f"{field} has a minus sign")
    value = int(digits)
    if value > _INT64_MAX:
        raise _BadLine(f"{field} outside the 64-bit range")
    return value


def _movie(raw_id: str, raw_title: str, _genres: str) -> CatalogEntry:
    try:
        item = _integer(raw_id, "movie id")
    except ValueError:
        raise _BadLine("movie id is not an integer") from None
    m = _YEAR_RE.match(raw_title.strip())
    if m:
        title = m.group("title").strip()
        year = int(m.group("year"))
    else:
        title = raw_title.strip()
        year = 0
    if not title:
        raise _BadLine("empty title")
    return CatalogEntry(item=item, title=title, year=year)


def parse_movies(
    lines: Iterable[str], strict: bool = False
) -> tuple[list[CatalogEntry], list[ParseIssue]]:
    """Parse ``MovieID::Title (Year)::Genre1|Genre2`` lines, leniently or strictly.

    Titles without a trailing ``(YYYY)`` are kept with ``year=0``. The
    genres field must be there, but its value is not read.
    """
    return _parse_lines(lines, strict, "movies", 3, _movie)


def _interaction(
    raw_user: str, raw_item: str, raw_rating: str, raw_ts: str
) -> tuple[int, int, float, int]:
    try:
        user, item = _integer(raw_user, "user id"), _integer(raw_item, "movie id")
        if "_" in raw_rating or not raw_rating.strip().isascii():
            raise ValueError(raw_rating)
        rating, timestamp = float(raw_rating), _integer(raw_ts, "timestamp")
    except ValueError:
        raise _BadLine("non-numeric field") from None
    if not 0.5 <= rating <= 5.0:
        raise _BadLine(f"rating {rating} outside [0.5, 5.0]")
    return user, item, rating, timestamp


def parse_ratings(
    lines: Iterable[str], strict: bool = False
) -> tuple[Ratings, list[ParseIssue]]:
    """Parse ``UserID::MovieID::Rating::Timestamp`` lines, leniently or strictly.

    Ratings must fall in [0.5, 5.0], and ids and timestamps must be
    integers in [0, 2**63), which the 64-bit columns of :class:`Ratings` hold.
    The valid rows are collected into one record array, and the table is
    :meth:`Ratings.from_columns` of its fields: sorted by (user, timestamp,
    item), ties in line order, the table ``read_ratings_file`` returns.
    """
    rows, issues = _parse_lines(lines, strict, "ratings", 4, _interaction)
    table = np.array(rows, dtype=_RECORD)
    return Ratings.from_columns(*(table[name] for name in _RECORD.names)), issues


def _split_lines(data: bytes) -> list[str]:
    r"""The file's lines, split at ``\n`` only; the line parsers strip their ``\r``."""
    # MovieLens dumps are nominally UTF-8 but old ones contain latin-1 bytes.
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        text = data.decode("latin-1")
    return text.split("\n")


def read_movies_file(
    path: str | Path, strict: bool = False
) -> tuple[list[CatalogEntry], list[ParseIssue]]:
    return parse_movies(_split_lines(Path(path).read_bytes()), strict=strict)


# The fast path's pre-check reads the file in pieces of about this many bytes, one
# piece at a time, so its memory does not grow with the file.
_PIECE_BYTES = 1 << 18


def _pieces(path: str | Path) -> Iterator[bytes]:
    r"""The file's bytes in pieces of about ``_PIECE_BYTES``, each but the last ending in ``\n``.

    A piece is one read plus the unfinished line the reads before it left over.
    """
    with open(path, "rb") as fh:
        rest = b""
        while block := fh.read(_PIECE_BYTES):
            cut = block.rfind(b"\n") + 1
            if cut:
                yield rest + block[:cut]
                rest = block[cut:]
            else:
                rest += block
        if rest:
            yield rest


def _parse_ratings_fast(path: str | Path) -> Ratings | None:
    """The table of a file of plain rating lines, or None to use the line parser.

    The module docstring says why a table it returns is the line parser's.
    Its columns are views of the one record array ``loadtxt`` returns,
    unless :meth:`Ratings.from_columns` replaces them with sorted copies.
    """
    colons = pairs = 0
    for piece in _pieces(path):
        if piece.translate(None, b"0123456789:.\r\n"):
            return None
        if b"\r" in piece and piece.count(b"\r") != piece.count(b"\r\n"):
            return None
        colon = np.frombuffer(piece, np.uint8) == ord(":")
        colons += np.count_nonzero(colon)
        pairs += np.count_nonzero(colon[1:] & colon[:-1])
    # A warning refuses the file too: older numpy only warns when it reads an
    # integer field written as a float.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = np.loadtxt(path, delimiter=":", usecols=(0, 2, 4, 6), dtype=_RECORD, ndmin=1)
    rating = table["rating"]
    rows = table.size
    if colons != 6 * rows or pairs != 3 * rows or not ((rating >= 0.5) & (rating <= 5.0)).all():
        return None
    return Ratings.from_columns(*(table[name] for name in _RECORD.names))


def read_ratings_file(
    path: str | Path, strict: bool = False
) -> tuple[Ratings, list[ParseIssue]]:
    """The file's ratings as one sorted table, plus the lines left out.

    The fast path, a byte pre-check and one ``np.loadtxt`` call, and its
    line-parser fallback are described in the module docstring. A file the
    fast path accepts gives the table the line parser would give, and one
    already in order is not sorted again.
    """
    try:
        ratings = _parse_ratings_fast(path)
    except Exception:
        # The line parser defines the result, so a failed fast path costs only time.
        ratings = None
    if ratings is not None:
        return ratings, []
    return parse_ratings(_split_lines(Path(path).read_bytes()), strict=strict)


def compute_popularity(ratings: Ratings) -> PhiArray:
    """Count ratings per item, as the PhiArray of the rated item ids, ascending, and their counts.

    Every rating counts, duplicates included, so only rated items appear
    and every count is >= 1.
    """
    if not len(ratings):
        raise ValueError("no interactions: popularity table would be empty")
    items, counts = np.unique(ratings.item, return_counts=True)
    return PhiArray(items, counts.astype(float))


def normalize_title(title: str) -> str:
    """The canonical lookup form of a movie title.

    Lowercases, strips diacritics, rotates a trailing ", The"/", A"/", An"
    to the front and drops it together with any leading article, removes
    punctuation, and collapses whitespace. A blank or punctuation-only title
    gives "". The result holds only ``a-z``, ``0-9`` and single spaces between
    words, which ``TitleIndex``'s count table relies on.
    """
    text = title.strip().lower()
    # ASCII text is its own NFKD form and holds no combining mark.
    if not text.isascii():
        text = unicodedata.normalize("NFKD", text)
        text = "".join(ch for ch in text if not unicodedata.combining(ch))
    m = _TRAILING_ARTICLE_RE.match(text)
    if m:
        text = m.group("body")
    text = _PUNCT_RE.sub("", text)
    text = _WS_RE.sub(" ", text).strip()
    # Articles are stripped after punctuation removal (which can expose
    # one), iterating so the result is a fixed point of normalization.
    while True:
        m = _LEADING_ARTICLE_RE.match(text)
        if not m:
            break
        text = m.group("body").strip()
    return text


def levenshtein(a: str, b: str) -> int:
    """Edit distance (unit-cost insert, delete, substitute) between two strings, capped.

    The result is the exact distance when that is at most
    ``MAX_EDIT_DISTANCE``, and exactly ``MAX_EDIT_DISTANCE + 1`` otherwise.
    Characters are code points, compared as they are: no normalization
    happens here.

    The common prefix and suffix are stripped, then the DP table is filled
    only in the band |i - j| <= ``MAX_EDIT_DISTANCE`` that every path within
    the cap stays in (Ukkonen, "Algorithms for approximate string matching",
    1985), with values past the cap held at the cap. The fill stops at the
    first row with no cell within the cap: every path crosses that row.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    cap = MAX_EDIT_DISTANCE + 1
    if len(a) - len(b) >= cap:
        return cap
    n = len(b)
    lo = 0
    while lo < n and a[lo] == b[lo]:
        lo += 1
    hi = 0
    while hi < n - lo and a[-1 - hi] == b[-1 - hi]:
        hi += 1
    a, b = a[lo : len(a) - hi], b[lo : n - hi]
    # prev[j] is D[i - 1][j], the distance from a[:i - 1] to b[:j]; a cell outside the band is cap.
    prev = [min(j, cap) for j in range(len(b) + 1)]
    for i, ch in enumerate(a, 1):
        first, last = max(1, i - MAX_EDIT_DISTANCE), min(len(b), i + MAX_EDIT_DISTANCE)
        row = [min(i, cap)] + [cap] * len(b)
        for j in range(first, last + 1):
            row[j] = min(prev[j] + 1, row[j - 1] + 1, prev[j - 1] + (ch != b[j - 1]), cap)
        if min(row[first - 1 : last + 1]) == cap:
            return cap
        prev = row
    return prev[-1]


@dataclass(frozen=True, eq=False)
class TitleIndex:
    """Lookup from normalized (title, year) keys to catalog items.

    A title resolves to the item of its exact (normalized title, year) key;
    otherwise to the unique closest title within year +/- 1 at edit
    distance <= ``MAX_EDIT_DISTANCE``. Ambiguity resolves to ``None``
    rather than guessing an item, and so does a title whose key is "" (a
    blank or punctuation-only title, see :func:`normalize_title`). A catalog
    entry with such a title is left out of the index, so no query can
    resolve to it.

    ``build`` lays the catalog out once in (year, insertion) order: the
    normalized titles and their items, the title lengths and a small integer
    matrix of character counts (titles × the catalog's alphabet). A year
    window is then one contiguous slice, and a dict maps every query year
    ``y >= 1`` whose window ``[max(y - 1, 1), y + 1]`` holds a title to that
    slice. Normalized titles hold only ``a-z``, ``0-9`` and spaces, so one
    256-byte table maps each ASCII code point to its count column, and every
    other character, through ``?``, to a last, all-zero sentinel column.

    The fuzzy stage bounds every window candidate from below by its bag
    distance to the query (Bartolini, Ciaccia and Patella, SPIRE 2002):
    ``max(len(c), len(q))`` minus the characters the two share as
    multisets, computed for the whole window in one numpy pass. Bag
    distance never exceeds edit distance, so a candidate whose bound is
    past ``MAX_EDIT_DISTANCE`` cannot win or tie and is dropped. The others
    are scored by :func:`levenshtein` (looked up as the module global,
    which caps at ``MAX_EDIT_DISTANCE``) in ascending bound order, ties in
    window order, and the scan stops at the first candidate whose bound
    exceeds the best distance found so far: that candidate and every later
    one score more than the best, so none can win or tie. Results equal
    those of scoring every title in the window.

    The index is never modified after ``build`` (the dataclass is frozen
    and the arrays are read-only), so threads may share it.
    """

    _exact: dict[tuple[str, int], list[int]]
    _titles: tuple[str, ...]
    _items: tuple[int, ...]
    _windows: dict[int, tuple[int, int]]
    _lengths: np.ndarray
    _columns: bytes
    _counts: np.ndarray

    @classmethod
    def build(cls, entries: Iterable[CatalogEntry]) -> "TitleIndex":
        exact: dict[tuple[str, int], list[int]] = {}
        keys: list[tuple[str, int, int]] = []
        for entry in entries:
            title = normalize_title(entry.title)
            if not title:
                continue
            exact.setdefault((title, entry.year), []).append(entry.item)
            keys.append((title, entry.year, entry.item))
        keys.sort(key=lambda key: key[1])
        titles = tuple(title for title, _, _ in keys)
        years = [year for _, year, _ in keys]
        windows = {}
        for year in {y + d for y in years for d in (-1, 0, 1) if y + d >= 1}:
            lo, hi = bisect_left(years, max(year - 1, 1)), bisect_right(years, year + 1)
            if lo < hi:
                windows[year] = (lo, hi)
        lengths = np.array([len(t) for t in titles], dtype=np.int64)
        codes = np.frombuffer("".join(titles).encode("ascii"), dtype=np.uint8)
        present = np.bincount(codes, minlength=256) > 0
        width = int(present.sum()) + 1
        columns = np.where(present, np.cumsum(present) - 1, width - 1).astype(np.uint8)
        rows = np.repeat(np.arange(len(titles)), lengths)
        counts = np.bincount(
            rows * width + columns[codes], minlength=len(titles) * width
        ).reshape(len(titles), width)
        counts = counts.astype(np.min_scalar_type(counts.max(initial=0)))
        for array in (lengths, counts):
            array.flags.writeable = False
        items = tuple(item for _, _, item in keys)
        return cls(exact, titles, items, windows, lengths, columns.tobytes(), counts)

    def resolve(self, title: str, year: int) -> int | None:
        """Resolve a free-text title to an item id, or None when unmatched."""
        title = normalize_title(title)
        if not title:
            return None

        hits = self._exact.get((title, year), [])
        if len(hits) == 1:
            return hits[0]
        if len(hits) > 1:
            return None

        # Year-0 entries carry no usable year and stay out of the fuzzy stage.
        window = self._windows.get(year)
        if window is None:
            return None
        lo, hi = window
        bound = self._bag_bounds(title, lo, hi)
        close = (bound <= MAX_EDIT_DISTANCE).nonzero()[0]
        if not close.size:
            return None
        best_distance = MAX_EDIT_DISTANCE + 1
        best_items: list[int] = []
        for b, i in sorted(zip(bound[close].tolist(), (lo + close).tolist())):
            if b > best_distance:
                break
            d = levenshtein(title, self._titles[i])
            if d < best_distance:
                best_distance = d
                best_items = [self._items[i]]
            elif d == best_distance:
                best_items.append(self._items[i])
        if best_distance <= MAX_EDIT_DISTANCE and len(best_items) == 1:
            return best_items[0]
        return None

    def _bag_bounds(self, title: str, lo: int, hi: int) -> np.ndarray:
        """Bag distance from ``title`` to each layout title in ``[lo, hi)``.

        Characters outside the catalog's alphabet are shared with no title.
        """
        query = title.encode("ascii", "replace").translate(self._columns)
        query_counts = np.bincount(
            np.frombuffer(query, dtype=np.uint8), minlength=self._counts.shape[1]
        )
        shared = np.minimum(self._counts[lo:hi], query_counts).sum(axis=1)
        return np.maximum(self._lengths[lo:hi], len(title)) - shared

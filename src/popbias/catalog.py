r"""MovieLens-format ingestion, popularity counting, and title resolution.

Flat-file ingestion only: ``movies.dat`` (``MovieID::Title (Year)::Genres``)
and ``ratings.dat`` (``UserID::MovieID::Rating::Timestamp``). The parsed
catalog and title index are immutable after construction and safe to share
across threads; the popularity counts are a plain dict, shared read-only.

Line rule: a file is decoded as UTF-8, or as latin-1 where that fails, and
split into lines at ``\n`` only, and every trailing ``\r`` is stripped from
each line, so ``"x\r\r\n"`` is the line ``"x"``. Other Unicode line
boundaries (``\x0b``, ``\x0c``, ``\x1c``-``\x1e``, U+0085, U+2028, U+2029)
stay inside their line, so line numbers count physical lines. Blank lines
are skipped but counted. ``parse_movies`` and ``parse_ratings`` apply the
rule to the lines they are given, and share one lenient/strict contract:
lenient mode records each malformed line as a :class:`ParseIssue` and goes
on, strict mode raises :class:`ParseError` at the first.

Ratings are read into a :class:`Ratings` table of numpy columns, sorted
by (user, timestamp, item) unless the file is in that order already.
``read_ratings_file`` first tries a fast path. It accepts a file only when
every line is blank or plain ``digits::digits::decimal::digits`` with at
most one ``.`` in the rating, a rating in [0.5, 5], ids and timestamps of
at most 16 digits, and a rating of at most 8 digits on either side of its
``.`` and 15 in all; then every line is one the line parser accepts, with
the same values, and there is nothing to report. It reads the file twice,
in pieces of about 256 KiB that each end just after a ``\n``: once to check
the bytes and count the lines, which sizes the four columns, and once to
parse each piece on its raw bytes, straight into the columns. That parse
finds the piece's newlines, colons and dots in one numpy pass each, and
reads each field from the overlapping little-endian 8-byte word that ends
at its last byte, eight digits at a time, with a second word for a field
of 9 to 16 digits. On anything else (another byte, a malformed line or a
longer field in any piece, an out-of-range rating, an exception) it falls
back to :func:`parse_ratings` over the lines of the whole file, read once
more, so lenient ``ParseIssue`` records and strict-mode errors are always
the line parser's.
"""

from __future__ import annotations

import re
import unicodedata
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)

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
    genres: tuple[str, ...] = ()


@dataclass(frozen=True)
class Interaction:
    user: int
    item: int
    rating: float
    timestamp: int


@dataclass(frozen=True, eq=False)
class Ratings:
    """Ratings as four aligned numpy columns, one row per rating.

    A table made by :meth:`from_columns` or returned by ``read_ratings_file``
    is stable-sorted by (user, timestamp, item): each user's
    ratings are one contiguous run in watch order, and rows tied on all
    three keys keep file order. Indexing with a slice or with ascending row
    positions keeps that order, and gives another table; iterating yields
    the rows as :class:`Interaction` objects.
    """

    user: np.ndarray  # int64
    item: np.ndarray  # int64
    rating: np.ndarray  # float64
    timestamp: np.ndarray  # int64

    @classmethod
    def from_columns(cls, user, item, rating, timestamp) -> "Ratings":
        """The rows stable-sorted by (user, timestamp, item), as ``_sort_rows`` sorts them.

        Rows already in that order come back in the arrays given. The
        arrays passed in are never written to.
        """
        given = (user, item, rating, timestamp)
        columns = [np.asarray(column, dtype) for column, dtype in zip(given, _DTYPES)]
        _sort_rows(columns)
        return cls(*columns)

    @classmethod
    def of(cls, interactions: Iterable[Interaction]) -> "Ratings":
        rows = list(interactions)
        return cls.from_columns(
            np.fromiter((it.user for it in rows), np.int64, len(rows)),
            np.fromiter((it.item for it in rows), np.int64, len(rows)),
            np.fromiter((it.rating for it in rows), float, len(rows)),
            np.fromiter((it.timestamp for it in rows), np.int64, len(rows)),
        )

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


def _sort_rows(columns: list[np.ndarray]) -> None:
    """Stable-sort the list's user, item, rating and timestamp columns by (user, timestamp, item).

    Rows already in that order stay as they are, ties included, as a stable
    sort would leave them. Otherwise each column is replaced by a sorted
    copy in turn, so one that only the list holds is freed before the next.
    """
    user, item, _, timestamp = columns
    ordered = item[:-1] <= item[1:]
    for key in (timestamp, user):
        before, after = key[:-1], key[1:]
        ordered = (before < after) | ((before == after) & ordered)
    if ordered.all():
        return
    order = np.lexsort((item, timestamp, user))
    del user, item, timestamp, before, after
    for i in range(len(columns)):
        columns[i] = columns[i][order]


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


def _movie(raw_id: str, raw_title: str, raw_genres: str) -> CatalogEntry:
    try:
        item = int(raw_id)
    except ValueError:
        raise _BadLine("movie id is not an integer") from None
    if item < 0:
        raise _BadLine("movie id is negative")
    m = _YEAR_RE.match(raw_title.strip())
    if m:
        title = m.group("title").strip()
        year = int(m.group("year"))
    else:
        title = raw_title.strip()
        year = 0
    if not title:
        raise _BadLine("empty title")
    genres = tuple(g for g in (t.strip() for t in raw_genres.split("|")) if g)
    return CatalogEntry(item=item, title=title, year=year, genres=genres)


def parse_movies(
    lines: Iterable[str], strict: bool = False
) -> tuple[list[CatalogEntry], list[ParseIssue]]:
    """Parse ``MovieID::Title (Year)::Genre1|Genre2`` lines, leniently or strictly.

    Titles without a trailing ``(YYYY)`` are kept with ``year=0``.
    """
    return _parse_lines(lines, strict, "movies", 3, _movie)


def _interaction(raw_user: str, raw_item: str, raw_rating: str, raw_ts: str) -> Interaction:
    try:
        user = int(raw_user)
        item = int(raw_item)
        rating = float(raw_rating)
        timestamp = int(raw_ts)
    except ValueError:
        raise _BadLine("non-numeric field") from None
    if not 0.5 <= rating <= 5.0:
        raise _BadLine(f"rating {rating} outside [0.5, 5.0]")
    if timestamp < 0:
        raise _BadLine("negative timestamp")
    if not all(_INT64_MIN <= v <= _INT64_MAX for v in (user, item, timestamp)):
        raise _BadLine("integer field outside the 64-bit range")
    return Interaction(user=user, item=item, rating=rating, timestamp=timestamp)


def parse_ratings(
    lines: Iterable[str], strict: bool = False
) -> tuple[list[Interaction], list[ParseIssue]]:
    """Parse ``UserID::MovieID::Rating::Timestamp`` lines, leniently or strictly.

    Ratings must fall in [0.5, 5.0], timestamps must be non-negative, and ids
    and timestamps must fit the 64-bit columns of :class:`Ratings`.
    """
    return _parse_lines(lines, strict, "ratings", 4, _interaction)


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


# Longest fields the fast path converts: an integer of two 8-byte words,
# and a rating of one word on each side of its '.' whose at most 15 digits,
# divided by a power of ten, give a correctly rounded float.
_MAX_DIGITS = 16
_MAX_RATING_DIGITS = 15
_UINT_POWERS = np.array([10**e for e in range(9)], dtype=np.uint64)
_FLOAT_POWERS = np.array([float(10**e) for e in range(9)])
# Entry n keeps the low four bits of a word's top n bytes: the values of n digits.
_DIGIT_MASKS = np.array([0x0F0F0F0F0F0F0F0F >> 8 * b << 8 * b for b in range(8, -1, -1)], np.uint64)
# The fast path reads the file in pieces of about this many bytes; a piece's
# temporaries take about ten times its size.
_PIECE_BYTES = 1 << 18


def _eight_digits(words: np.ndarray, end: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The value of each field's ``length`` (0 to 8) digits, which end just before byte ``end``.

    ``words[p]`` holds bytes ``p`` to ``p + 7``, the first one lowest, so the
    digits are the top bytes of ``words[end - 8]``. Masking keeps their
    values and clears the bytes below, which read as leading zeros; three
    multiply-shift-mask steps join digit pairs, then pairs and quads (the
    SWAR conversion used by Langdale and Lemire, VLDB J. 2019).
    """
    value = words[end - 8] & _DIGIT_MASKS[length]
    for width, mask in ((1, 0x00FF00FF00FF00FF), (2, 0x0000FFFF0000FFFF), (4, 0xFFFFFFFF)):
        value = value * np.uint64(10**width) + (value >> np.uint64(8 * width))
        value &= np.uint64(mask)
    return value


def _integers(words: np.ndarray, end: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Each field of 1 to 16 digits ending just before ``end``, as int64."""
    value = _eight_digits(words, end, np.minimum(length, 8))
    if (length > 8).any():
        value += _eight_digits(words, end - 8, np.maximum(length - 8, 0)) * _UINT_POWERS[8]
    return value.view(np.int64)


def _piece_columns(piece: bytes) -> tuple[np.ndarray, ...] | None:
    """The user, item, rating and timestamp columns of a piece's lines.

    None when a line is neither blank nor plain ``digits::digits::decimal::digits``,
    a field is longer than the fast path converts, or a rating is outside [0.5, 5].
    """
    if b"\r" in piece:
        if piece.count(b"\r") != piece.count(b"\r\n"):
            return None
        piece = piece.replace(b"\r\n", b"\n")
    # Padding in front keeps both words of every field inside the text.
    text = b"\n" * 16 + piece + (b"" if piece.endswith(b"\n") else b"\n")
    chars = np.frombuffer(text, dtype=np.uint8)
    words = np.ndarray((chars.size - 7,), dtype="<u8", buffer=text, strides=(1,))
    newlines = np.flatnonzero(chars == ord("\n"))
    colons = np.flatnonzero(chars == ord(":"))
    dots = np.flatnonzero(chars == ord("."))
    # An empty span between two newlines is a blank line.
    filled = np.flatnonzero(np.diff(newlines) > 1)
    if colons.size != 6 * filled.size:
        return None
    # k[j][i] is colon j of line i, if every line holds six.
    k = colons.reshape(-1, 6).T
    if any((k[j + 1] - k[j] != 1).any() for j in (0, 2, 4)):
        return None
    # A field lies between the newline before its line or a '::', and a '::'
    # or its line's newline. With every field at least one byte long, each
    # line holds its own six colons, in three '::' pairs.
    ends = newlines[filled + 1]
    spans = ((newlines[filled], k[0]), (k[1], k[2]), (k[3], k[4]), (k[5], ends))
    length = [end - before - 1 for before, end in spans]
    if any(((n < 1) | (n > _MAX_DIGITS)).any() for n in length):
        return None
    # Only a rating may hold a '.', and at most one.
    line = np.searchsorted(ends, dots)
    if not ((k[3][line] < dots) & (dots < k[4][line])).all() or (np.diff(line) == 0).any():
        return None
    point = k[4].copy()  # a rating without a '.' ends where one would be
    point[line] = dots
    before = point - k[3] - 1
    after = np.maximum(k[4] - point - 1, 0)
    digits = before + after
    if ((np.maximum(before, after) > 8) | (digits < 1) | (digits > _MAX_RATING_DIGITS)).any():
        return None

    user, item, timestamp = (_integers(words, spans[f][1], length[f]) for f in (0, 1, 3))
    mantissa = _eight_digits(words, point, before) * _UINT_POWERS[after]
    mantissa += _eight_digits(words, k[4], after)
    rating = mantissa / _FLOAT_POWERS[after]
    if not ((rating >= 0.5) & (rating <= 5.0)).all():
        return None
    return user, item, rating, timestamp


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

    Its lines, counted in a first pass, bound the rows and size the columns.
    """
    lines = 0
    for piece in _pieces(path):
        if piece.translate(None, b"0123456789:.\r\n"):
            return None
        lines += piece.count(b"\n") + (not piece.endswith(b"\n"))
    columns = [np.empty(lines, dtype) for dtype in _DTYPES]
    rows = 0
    for piece in _pieces(path):
        values = _piece_columns(piece)
        if values is None:
            return None
        for i, value in enumerate(values):
            columns[i][rows : rows + value.size] = value
        rows += values[0].size
    if not rows:
        return None
    # Blank lines hold no rating. Only the list holds the columns, so the
    # sort frees each one as soon as its sorted copy exists.
    columns = [column[:rows] for column in columns]
    _sort_rows(columns)
    return Ratings(*columns)


def read_ratings_file(
    path: str | Path, strict: bool = False
) -> tuple[Ratings, list[ParseIssue]]:
    """The file's ratings as one sorted table, plus the lines left out.

    The fast path parses the file piece by piece on its raw bytes, eight
    digits per word read, and does not sort a file already in order; it and
    its line-parser fallback are described in the module docstring. A file
    the fast path accepts gives the table the line parser would give.
    """
    try:
        ratings = _parse_ratings_fast(path)
    except Exception:
        # The line parser defines the result, so a failed fast path costs only time.
        ratings = None
    if ratings is not None:
        return ratings, []
    interactions, issues = parse_ratings(_split_lines(Path(path).read_bytes()), strict=strict)
    return Ratings.of(interactions), issues


def compute_popularity(ratings: Ratings) -> dict[int, int]:
    """Count ratings per item; the keys are in ascending item id order.

    Every rating counts, duplicates included, so only rated items appear
    and every count is >= 1.
    """
    if not len(ratings):
        raise ValueError("no interactions: popularity table would be empty")
    items, counts = np.unique(ratings.item, return_counts=True)
    return dict(zip(items.tolist(), counts.tolist()))


def normalize_title(title: str) -> str:
    """The canonical lookup form of a movie title.

    Lowercases, strips diacritics, rotates a trailing ", The"/", A"/", An"
    to the front and drops it together with any leading article, removes
    punctuation, and collapses whitespace.
    """
    if not title or not title.strip():
        raise ValueError("title must be non-empty")
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


def _lookup_title(title: str) -> str:
    """``normalize_title`` of the title, or "" for a blank title, which it rejects."""
    return normalize_title(title) if title.strip() else ""


def levenshtein(a: str, b: str, cap: int | None = None) -> int:
    """Edit distance (unit-cost insert, delete, substitute) between two strings.

    Without ``cap`` the result is the exact distance. With ``cap`` it is the
    exact distance when that is at most ``cap`` and exactly ``cap + 1``
    otherwise. Characters are code points, compared as they are: no
    normalization happens here.

    The common prefix and suffix are stripped, then Myers' bit-vector
    algorithm (J. ACM 1999, in Hyyrö's formulation) runs over Python ints
    of one bit per character of the longer string, so each character of
    the shorter string costs a fixed handful of integer operations instead
    of a row of the DP table, at any length. It stops as soon as the
    distance cannot come back within ``cap``.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if cap is not None and len(a) - len(b) > cap:
        return cap + 1
    n = len(b)
    lo = 0
    while lo < n and a[lo] == b[lo]:
        lo += 1
    hi = 0
    while hi < n - lo and a[-1 - hi] == b[-1 - hi]:
        hi += 1
    a = a[lo : len(a) - hi]
    b = b[lo : n - hi]
    if not b:
        return len(a)  # within cap: stripping kept the length difference

    # Bit i of the vectors is the vertical delta D[i+1][j] - D[i][j] of the
    # DP column for prefix b[:j] against a (pv: +1, mv: -1); score is the
    # bottom cell D[len(a)][j].
    peq: dict[str, int] = {}
    bit = 1
    for ch in a:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv, mv, score = mask, 0, len(a)
    # D[len(a)][j] moves by at most 1 per remaining column, so once
    # score - remaining > cap the final distance is past cap.
    slack = len(b) if cap is None else len(b) + cap
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = (ph << 1) | 1
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
        slack -= 1
        if cap is not None and score > slack:
            return cap + 1
    return score


@dataclass(frozen=True, eq=False)
class TitleIndex:
    """Lookup from normalized (title, year) keys to catalog items.

    Resolution order: exact key, then year +/- 1, then unique fuzzy match
    with edit distance <= ``MAX_EDIT_DISTANCE`` over the year-window
    candidates. Ambiguity at any stage resolves to ``None`` rather than
    guessing an item, and so does a title that is blank or normalizes to
    nothing (punctuation only). A catalog entry with such a title is left
    out of the index, so no query can resolve to it.

    ``build`` lays the catalog out once in (year, insertion) order: the
    normalized titles and their items, an ``int64`` year array, the title
    lengths and a small integer matrix of character counts (titles × the
    catalog's alphabet). A year window is then one contiguous slice.

    The fuzzy stage bounds every window candidate from below by its bag
    distance to the query (Bartolini, Ciaccia and Patella, SPIRE 2002):
    ``max(len(c), len(q))`` minus the characters the two share as
    multisets, computed for the whole window in one numpy pass. Bag
    distance never exceeds edit distance, so a candidate whose bound is
    past ``MAX_EDIT_DISTANCE`` cannot win or tie and is dropped. The others
    are scored by :func:`levenshtein` (looked up as the module global,
    capped at ``MAX_EDIT_DISTANCE``) in ascending bound order, ties in
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
    _years: np.ndarray
    _lengths: np.ndarray
    _alphabet: np.ndarray
    _counts: np.ndarray

    @classmethod
    def build(cls, entries: Iterable[CatalogEntry]) -> "TitleIndex":
        exact: dict[tuple[str, int], list[int]] = {}
        keys: list[tuple[str, int, int]] = []
        for entry in entries:
            title = _lookup_title(entry.title)
            if not title:
                continue
            exact.setdefault((title, entry.year), []).append(entry.item)
            keys.append((title, entry.year, entry.item))
        years = np.array([year for _, year, _ in keys], dtype=np.int64)
        order = np.argsort(years, kind="stable").tolist()
        titles = tuple(keys[i][0] for i in order)
        lengths = np.array([len(t) for t in titles], dtype=np.int64)
        codes = np.frombuffer("".join(titles).encode("utf-32-le"), dtype="<u4")
        present = np.zeros(int(codes.max(initial=0)) + 1, dtype=bool)
        present[codes] = True
        alphabet = np.flatnonzero(present).astype(np.uint32)
        columns = (np.cumsum(present, dtype=np.int32) - 1)[codes]
        rows = np.repeat(np.arange(len(titles)), lengths)
        counts = np.bincount(
            rows * len(alphabet) + columns, minlength=len(titles) * len(alphabet)
        ).reshape(len(titles), len(alphabet))
        counts = counts.astype(np.min_scalar_type(counts.max(initial=0)))
        arrays = (years[order], lengths, alphabet, counts)
        for array in arrays:
            array.flags.writeable = False
        return cls(exact, titles, tuple(keys[i][2] for i in order), *arrays)

    def resolve(self, title: str, year: int) -> int | None:
        """Resolve a free-text title to an item id, or None when unmatched."""
        title = _lookup_title(title)
        if not title:
            return None

        hits = self._exact.get((title, year), [])
        if len(hits) == 1:
            return hits[0]
        if len(hits) > 1:
            return None

        # Year-0 entries carry no usable year and stay out of tolerant stages.
        if year <= 0:
            return None
        near = [
            item
            for y in (year - 1, year + 1)
            if y > 0
            for item in self._exact.get((title, y), [])
        ]
        if len(near) == 1:
            return near[0]
        if len(near) > 1:
            return None

        lo = int(np.searchsorted(self._years, max(year - 1, 1), "left"))
        hi = int(np.searchsorted(self._years, year + 1, "right"))
        bound = self._bag_bounds(title, lo, hi)
        candidates = np.flatnonzero(bound <= MAX_EDIT_DISTANCE)
        candidates = candidates[np.argsort(bound[candidates], kind="stable")]
        best_distance = MAX_EDIT_DISTANCE + 1
        best_items: list[int] = []
        for b, i in zip(bound[candidates].tolist(), (lo + candidates).tolist()):
            if b > best_distance:
                break
            d = levenshtein(title, self._titles[i], cap=MAX_EDIT_DISTANCE)
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
        query = np.frombuffer(title.encode("utf-32-le"), dtype="<u4")
        columns = np.searchsorted(self._alphabet, query)
        known = columns < len(self._alphabet)
        known[known] = self._alphabet[columns[known]] == query[known]
        query_counts = np.bincount(columns[known], minlength=len(self._alphabet))
        shared = np.minimum(self._counts[lo:hi], query_counts).sum(axis=1)
        return np.maximum(self._lengths[lo:hi], len(title)) - shared

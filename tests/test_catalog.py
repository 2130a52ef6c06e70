import dataclasses
import math
import random
import re
import sys
import tracemalloc
import unicodedata
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from popbias import catalog
from popbias.catalog import (
    MAX_EDIT_DISTANCE,
    CatalogEntry,
    Interaction,
    ParseError,
    ParseIssue,
    Ratings,
    TitleIndex,
    compute_popularity,
    levenshtein,
    normalize_title,
    parse_movies,
    parse_ratings,
    read_movies_file,
    read_ratings_file,
)
from popbias.evaluation import FoldSpec, UserSplit, make_folds
from popbias.metrics import PhiArray
from popbias.recommenders import RatingMatrix


def counts_of(phi):
    """A PhiArray as a dict from item id to score, in id order."""
    return dict(zip(phi.ids.tolist(), phi.scores.tolist()))


def assert_same_table(got, want):
    """The two Ratings tables hold the same columns: dtypes and bytes."""
    for name in ("user", "item", "rating", "timestamp"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestParseMovies:
    def test_basic_line(self):
        entries, issues = parse_movies(["1::Toy Story (1995)::Animation|Children"])
        assert not issues
        assert entries == [CatalogEntry(item=1, title="Toy Story", year=1995)]

    def test_malformed_line_recorded_with_number(self):
        entries, issues = parse_movies(["1::Heat (1995)::Action", "", "3::BadLine"])
        assert len(entries) == 1
        assert len(issues) == 1
        assert issues[0].line_no == 3
        assert "::" in issues[0].reason

    def test_strict_mode_raises(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_movies(["3::BadLine"], strict=True)

    def test_yearless_title_kept_with_year_zero(self):
        entries, issues = parse_movies(["9::Mystery Short::Drama"])
        assert not issues
        assert entries[0].year == 0
        assert entries[0].title == "Mystery Short"

    def test_non_integer_id(self):
        _, issues = parse_movies(["x::Heat (1995)::Action"])
        assert issues and "integer" in issues[0].reason

    @pytest.mark.parametrize(
        ("raw_id", "reason"),
        [
            ("-1", "movie id has a minus sign"),
            ("-0", "movie id has a minus sign"),
            (str(2**63), "movie id outside the 64-bit range"),
            # int() reads these Python spellings; an id is ASCII digits only.
            ("1_0", "movie id is not an integer"),
            ("+5", "movie id is not an integer"),
            ("\u0663", "movie id is not an integer"),
        ],
    )
    def test_movie_id_is_an_integer_in_the_64_bit_range(self, raw_id, reason):
        line = f"{raw_id}::Heat (1995)::Action"
        assert parse_movies([line]) == ([], [ParseIssue(1, line, reason)])


class TestParseRatings:
    def test_integer_rating(self):
        table, issues = parse_ratings(["1::122::5::838985046"])
        assert not issues
        assert list(table) == [Interaction(user=1, item=122, rating=5.0, timestamp=838985046)]

    def test_half_star_rating(self):
        table, _ = parse_ratings(["1::185::3.5::838983525"])
        assert table.rating.tolist() == [3.5]

    def test_malformed(self):
        _, issues = parse_ratings(["x::y::z"])
        assert len(issues) == 1

    def test_rating_out_of_range(self):
        _, issues = parse_ratings(["1::2::5.5::100", "1::3::0::100"])
        assert len(issues) == 2

    def test_strict_mode(self):
        with pytest.raises(ParseError):
            parse_ratings(["x::y::z"], strict=True)

    @pytest.mark.parametrize(
        ("line", "reason"),
        [
            ("-3::2::4::100", "user id has a minus sign"),
            ("3::-2::4::100", "movie id has a minus sign"),
            ("3::2::4::-100", "timestamp has a minus sign"),
            ("-0::2::4::100", "user id has a minus sign"),
            ("3::-0::4::100", "movie id has a minus sign"),
            ("3::2::4::-0", "timestamp has a minus sign"),
            ("9223372036854775808::2::4::100", "user id outside the 64-bit range"),
            ("3::2::4::9223372036854775808", "timestamp outside the 64-bit range"),
            # int() and float() read these Python spellings; a field is ASCII without '_'.
            ("1_0::2::4::100", "non-numeric field"),
            ("+3::2::4::100", "non-numeric field"),
            ("3::\u0663::4::100", "non-numeric field"),
            ("3::2::4::1_00", "non-numeric field"),
            ("3::2::4::\uff11", "non-numeric field"),
            ("3::2::0_4::100", "non-numeric field"),
            ("3::2::\u0664::100", "non-numeric field"),
        ],
    )
    def test_ids_and_timestamps_are_integers_in_the_64_bit_range(self, line, reason):
        table, issues = parse_ratings(["1::2::3::4", line])
        assert list(table) == [Interaction(1, 2, 3.0, 4)]
        assert issues == [ParseIssue(2, line, reason)]
        with pytest.raises(ParseError, match=f"^ratings line 2: {reason}$"):
            parse_ratings(["1::2::3::4", line], strict=True)

    def test_negative_user_ids_stay_out_of_the_folds(self, tmp_path):
        # Each user from -3 to 29 rates 12 items; the three negative users'
        # lines are malformed, so the folds draw from users 0 to 29 only.
        path = tmp_path / "ratings.dat"
        path.write_text(
            "".join(f"{u}::{i}::4::{i}\n" for u in range(-3, 30) for i in range(1, 13)),
            encoding="utf-8",
        )
        table, issues = read_ratings_file(path)
        assert len(issues) == 36
        assert {issue.reason for issue in issues} == {"user id has a minus sign"}
        plan = make_folds(table, FoldSpec(fold_count=2, users_per_fold=15))
        assert sorted(s.user for fold in plan.folds for s in fold) == list(range(30))


def test_latin1_fallback(tmp_path):
    path = tmp_path / "movies.dat"
    path.write_bytes("7::Am\xe9lie (2001)::Romance".encode("latin-1"))
    entries, issues = read_movies_file(path)
    assert not issues
    assert entries[0].title == "Amélie"


def test_unicode_line_boundary_inside_a_movie_title_stays_in_its_line(tmp_path):
    # Byte 0x85 is cp1252's ellipsis; decoded as latin-1 it is U+0085, which
    # str.splitlines() treats as a line boundary.
    path = tmp_path / "movies.dat"
    path.write_bytes(b"1::Wait\x85 What (1999)::Drama\n2::Heat (1995)::Action\nbad line\n")
    entries, issues = read_movies_file(path)
    assert [(e.item, e.title, e.year) for e in entries] == [
        (1, "Wait\x85 What", 1999),
        (2, "Heat", 1995),
    ]
    assert [(i.line_no, i.line) for i in issues] == [(3, "bad line")]


def test_iterating_a_table_yields_its_rows_as_interactions(tmp_path):
    path = tmp_path / "ratings.dat"
    path.write_text("2::7::3.5::20\n1::9::4::30\n1::5::2::10\n", encoding="utf-8")
    table, _ = read_ratings_file(path)
    parsed, _ = parse_ratings(path.read_text(encoding="utf-8").splitlines())
    rows = list(table)
    assert rows == sorted(parsed, key=lambda it: (it.user, it.timestamp, it.item))
    assert all(list(map(type, dataclasses.astuple(row))) == [int, int, float, int] for row in rows)
    assert list(table[1:]) == rows[1:]


def test_form_feed_inside_a_ratings_line_stays_in_its_line(tmp_path):
    path = tmp_path / "ratings.dat"
    path.write_bytes(b"1::2::3\x0c::100\nx::y\n2::3::4::200\n")
    ratings, issues = read_ratings_file(path)
    assert tuple(ratings) == (Interaction(1, 2, 3.0, 100), Interaction(2, 3, 4.0, 200))
    assert issues == [ParseIssue(2, "x::y", "expected 4 '::'-separated fields")]
    with pytest.raises(ParseError, match="ratings line 2:"):
        read_ratings_file(path, strict=True)


def test_a_line_loses_every_trailing_carriage_return(tmp_path):
    movies = tmp_path / "movies.dat"
    movies.write_bytes(b"1::Heat (1995)::Action\r\r\nbad line\r\r\n")
    entries, issues = read_movies_file(movies)
    assert [(e.item, e.title) for e in entries] == [(1, "Heat")]
    assert issues == [ParseIssue(2, "bad line", "expected 3 '::'-separated fields")]
    ratings = tmp_path / "ratings.dat"
    ratings.write_bytes(b"1::2::3::4\r\r\nx::y\r\r\n")
    table, issues = read_ratings_file(ratings)
    assert tuple(table) == (Interaction(1, 2, 3.0, 4),)
    assert issues == [ParseIssue(2, "x::y", "expected 4 '::'-separated fields")]


# A valid rating row (user, item, rating, timestamp) from few keys, so rows tie
# on (user, timestamp, item) and their ratings tell them apart.
_ROW = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(1, 10).map(lambda r: r / 2), st.integers(0, 2)
)


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(
        _ROW
        | st.sampled_from(["x::y::z", "1::2::3", "1::2::5.5::4", "-1::2::3::4", "1::2::x::4"])
        | st.just(""),
        max_size=40,
    )
)
def test_parse_ratings_returns_the_valid_rows_as_one_sorted_table(lines):
    text = ["{}::{}::{}::{}".format(*line) if isinstance(line, tuple) else line for line in lines]
    rows = [line for line in lines if isinstance(line, tuple)]
    malformed = [n for n, line in enumerate(lines, 1) if isinstance(line, str) and line]

    table, issues = parse_ratings(text)
    assert_same_table(table, Ratings.from_columns(*([row[c] for row in rows] for c in range(4))))
    # sorted() is stable, so rows tied on all three keys stay in line order.
    by_key = sorted(rows, key=lambda row: (row[0], row[3], row[1]))
    assert list(table) == [Interaction(*row) for row in by_key]
    assert [(issue.line_no, issue.line) for issue in issues] == [
        (n, text[n - 1]) for n in malformed
    ]

    if malformed:
        with pytest.raises(ParseError, match=f"^ratings line {malformed[0]}: "):
            parse_ratings(text, strict=True)
    else:
        strict, strict_issues = parse_ratings(text, strict=True)
        assert_same_table(strict, table)
        assert not strict_issues


def _lines_by_the_line_rule(data: bytes) -> list[str]:
    """Decode as UTF-8, else latin-1; split at LF only; strip one trailing CR."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        text = data.decode("latin-1")
    return [line[:-1] if line.endswith("\r") else line for line in text.split("\n")]


_RATING_TEXT = st.sampled_from(
    [
        "1",
        "5",
        "0.5",
        "3.5",
        "4.",
        ".5",
        "05.50",
        "2.25",
        "5.000",
        # Up to and past 8 digits on either side of the '.' and 15 in all.
        "00000004.5000000",
        "0000004.50000000",
        "00000004.50000000",
        "000000004.5",
        "4.500000000",
        "4.999999999999999999",
    ]
)
# Ids and timestamps of up to 8 digits, of 9 to 16, and of 17 or 18.
_INTEGER_TEXT = st.integers(0, 10**6).map(str) | st.sampled_from([8, 9, 16, 17, 18]).flatmap(
    lambda width: st.integers(0, 10**width - 1).map(lambda value: str(value).zfill(width))
)
_VALID_LINE = st.builds(
    "{}::{}::{}::{}".format,
    _INTEGER_TEXT,
    _INTEGER_TEXT,
    _RATING_TEXT,
    _INTEGER_TEXT | st.integers(0, 2**40).map(str),
)
_MALFORMED_LINE = st.sampled_from(
    [
        "1::2::3",
        "1::2::3::4::5",
        "1::2::3::4::",
        "1:::2::3::4",
        "a::2::3::4",
        "1::2::x::4",
        "1::2::3::4.0",
        "1_000::2::3::4",
        "+1::2::3::4",
        " 1::2::3::4",
        "1::2::4#x::4",
        "1::2::nan::4",
        "1::2::inf::4",
        "1::2::5.5::4",
        "1::2::0::4",
        "1::2::0.49::4",
        "1::2::3::-4",
        "-1::2::3::4",
        "1::2::3::4\r",
        "1::2::3\x0c::4",
        "1::2::3::4\xe9",
        "\u0661::2::3::4",
        "1234567890123456789::2::3::4",
        "12345678901234567890::2::3::4",
        "::2::3::4",
        "1::2::::4",
        "1::2::1.2.3::4",
        "1::2::.1.2::4",
        "1::2::.::4",
        "",
        "   ",
        "\t",
    ]
)


@settings(max_examples=300, deadline=None)
@example(lines=[("1::2::3::4\r", True)], clean=True, final_newline=True, latin1=False)
@example(lines=[("1::2::.1.2::4", False)], clean=True, final_newline=True, latin1=False)
@example(lines=[("::2::3::4", False)], clean=True, final_newline=True, latin1=False)
# Lines that np.loadtxt alone, splitting at ':' and keeping fields 0, 2, 4
# and 6, would read otherwise than the line parser.
@example(lines=[("1:5:2::3::4", False)], clean=True, final_newline=True, latin1=False)
@example(lines=[("1::2::3::4::5", False)], clean=True, final_newline=True, latin1=False)
@example(lines=[("1::::2::3::4", False)], clean=True, final_newline=True, latin1=False)
@example(lines=[("1.0::2::3::4", False)], clean=True, final_newline=True, latin1=False)
@example(lines=[("1::2::3::4.0", False)], clean=True, final_newline=True, latin1=False)
@example(
    lines=[("9223372036854775807::2::3::4", False)], clean=True, final_newline=True, latin1=False
)
@example(
    lines=[("9223372036854775808::2::3::4", False)], clean=True, final_newline=True, latin1=False
)
# A line of four pairs makes up for one of two, so only the colon count refuses them.
@example(
    lines=[("1:5:2::3::4", False), ("1::2::3::4::5", False)],
    clean=True,
    final_newline=True,
    latin1=False,
)
# np.loadtxt ends a line at a bare '\r'; the line rule does not.
@example(lines=[("1::2::3::4\r5::6::4.5::7", False)], clean=True, final_newline=True, latin1=False)
@given(
    lines=st.lists(st.tuples(_VALID_LINE | _MALFORMED_LINE, st.booleans()), max_size=25),
    clean=st.booleans(),
    final_newline=st.booleans(),
    latin1=st.booleans(),
)
def test_read_ratings_file_equals_the_line_parser(
    tmp_path_factory, lines, clean, final_newline, latin1
):
    if clean:
        lines = [(line, crlf) for line, crlf in lines if re.fullmatch(r"[\d:.\r]*", line)]
    text = "".join(line + ("\r\n" if crlf else "\n") for line, crlf in lines)
    if not final_newline:
        text = text.rstrip("\r\n")
    data = text.encode("latin-1" if latin1 and max(text, default="a") <= "\xff" else "utf-8")
    path = tmp_path_factory.mktemp("ratings") / "ratings.dat"
    path.write_bytes(data)

    expected, expected_issues = parse_ratings(_lines_by_the_line_rule(data))
    ratings, issues = read_ratings_file(path)
    assert_same_table(ratings, expected)
    assert issues == expected_issues

    try:
        parse_ratings(_lines_by_the_line_rule(data), strict=True)
        strict_error = None
    except ParseError as exc:
        strict_error = str(exc)
    if strict_error is None:
        assert_same_table(read_ratings_file(path, strict=True)[0], expected)
    else:
        with pytest.raises(ParseError) as raised:
            read_ratings_file(path, strict=True)
        assert str(raised.value) == strict_error


@settings(max_examples=200, deadline=None)
# A malformed line in a later piece.
@example(
    lines=[("1::2::3::4", False)] * 3 + [("1::2::x::4", False)],
    final_newline=True,
    piece_bytes=11,
)
# A piece of blank lines only, between two pieces of ratings.
@example(
    lines=[("1::2::3::4", False)] + [("", False)] * 12 + [("5::6::4.5::7", True)],
    final_newline=True,
    piece_bytes=8,
)
# A CRLF at the end of every piece, and no final newline.
@example(lines=[("1::2::3::4", True)] * 4, final_newline=False, piece_bytes=1)
@given(
    lines=st.lists(st.tuples(_VALID_LINE | _MALFORMED_LINE, st.booleans()), max_size=40),
    final_newline=st.booleans(),
    piece_bytes=st.integers(1, 48),
)
def test_read_ratings_file_in_small_pieces_equals_the_line_parser(
    tmp_path_factory, lines, final_newline, piece_bytes
):
    text = "".join(line + ("\r\n" if crlf else "\n") for line, crlf in lines)
    if not final_newline:
        text = text.rstrip("\r\n")
    data = text.encode("utf-8")
    path = tmp_path_factory.mktemp("ratings") / "ratings.dat"
    path.write_bytes(data)

    expected, expected_issues = parse_ratings(_lines_by_the_line_rule(data))
    with mock.patch.object(catalog, "_PIECE_BYTES", piece_bytes):
        ratings, issues = read_ratings_file(path)
    assert_same_table(ratings, expected)
    assert issues == expected_issues


@pytest.mark.parametrize("piece_bytes", [1, 6, 13, 1 << 20])
def test_plain_ratings_file_in_pieces_is_read_without_the_line_parser(
    tmp_path, monkeypatch, piece_bytes
):
    def line_parser(*args, **kwargs):
        raise AssertionError("the fast path fell back")

    monkeypatch.setattr(catalog, "parse_ratings", line_parser)
    monkeypatch.setattr(catalog, "_PIECE_BYTES", piece_bytes)
    path = tmp_path / "ratings.dat"
    path.write_bytes(b"2::7::.5::30\r\n\n\n\n\n\n\n1::9::5.::20\r\n1::8::04.50::20\n1::3::2::10")
    ratings, issues = read_ratings_file(path)
    assert not issues
    assert tuple(ratings) == (
        Interaction(1, 3, 2.0, 10),
        Interaction(1, 8, 4.5, 20),
        Interaction(1, 9, 5.0, 20),
        Interaction(2, 7, 0.5, 30),
    )


def _refuse_the_line_parser(*args, **kwargs):
    raise AssertionError("the fast path fell back")


def test_a_crlf_split_between_two_reads_ends_its_line(tmp_path, monkeypatch):
    monkeypatch.setattr(catalog, "parse_ratings", _refuse_the_line_parser)
    monkeypatch.setattr(catalog, "_PIECE_BYTES", 11)
    data = b"1::2::3::4\r\n5::6::4.5::7\r\n"
    assert data[catalog._PIECE_BYTES - 1 : catalog._PIECE_BYTES + 1] == b"\r\n"
    path = tmp_path / "ratings.dat"
    path.write_bytes(data)
    ratings, issues = read_ratings_file(path)
    assert not issues
    assert tuple(ratings) == (Interaction(1, 2, 3.0, 4), Interaction(5, 6, 4.5, 7))


@pytest.mark.parametrize("piece_bytes", [50, 1 << 18])
@pytest.mark.parametrize("layout", ["sorted", "unsorted", "ties_out_of_order"])
def test_read_columns_equal_a_stable_lexsort_of_the_file(
    tmp_path, monkeypatch, layout, piece_bytes
):
    monkeypatch.setattr(catalog, "parse_ratings", _refuse_the_line_parser)
    monkeypatch.setattr(catalog, "_PIECE_BYTES", piece_bytes)
    rng = np.random.default_rng(7)
    n = 2000
    # Few distinct keys, so many rows tie on (user, timestamp, item); their
    # ratings tell them apart.
    user, item, timestamp = rng.integers(1, 20, n), rng.integers(1, 8, n), rng.integers(0, 4, n)
    rating = rng.integers(1, 11, n) / 2
    if layout == "unsorted":
        rows = rng.permutation(n)
    else:
        rows = np.lexsort((item, timestamp, user))
    if layout == "ties_out_of_order":
        # Swap the first and last rows, whose users differ; every tied run
        # between them stays in file order.
        rows[[0, -1]] = rows[[-1, 0]]
        assert user[rows[0]] != user[rows[-1]]
    columns = [user[rows], item[rows], rating[rows], timestamp[rows]]
    path = tmp_path / "ratings.dat"
    path.write_text("".join(f"{u}::{i}::{r}::{t}\n" for u, i, r, t in zip(*columns)))

    ratings, issues = read_ratings_file(path)
    order = np.lexsort((columns[1], columns[3], columns[0]))
    assert (layout == "sorted") == (order == np.arange(n)).all()
    assert not issues
    for got, column in zip((ratings.user, ratings.item, ratings.rating, ratings.timestamp), columns):
        assert got.dtype == column.dtype and got.tobytes() == column[order].tobytes()


def test_from_columns_leaves_the_arrays_it_was_given_unchanged():
    user, item = np.array([2, 1, 1, 1]), np.array([5, 9, 8, 8])
    rating, timestamp = np.array([1.0, 2.0, 3.0, 4.0]), np.array([0, 7, 7, 7])
    given = [user, item, rating, timestamp]
    before = [column.copy() for column in given]
    ratings = Ratings.from_columns(*given)
    assert all(np.array_equal(a, b) for a, b in zip(given, before))
    assert ratings.item.tolist() == [8, 8, 9, 5] and ratings.rating.tolist() == [3.0, 4.0, 2.0, 1.0]
    # Rows already in order come back in the arrays given.
    again = Ratings.from_columns(ratings.user, ratings.item, ratings.rating, ratings.timestamp)
    assert again.user is ratings.user and again.rating is ratings.rating


def _write_plain_ratings(path, layout, tail=""):
    """100k plain rating lines, in random or table order, then tail; returns the row count."""
    rng = np.random.default_rng(0)
    n = 100_000
    columns = [
        rng.integers(1, 10**5, n),
        rng.integers(1, 10**4, n),
        rng.choice(["1", "2.5", "3", "4.5", "5"], n),
        rng.integers(10**9, 2 * 10**9, n),
    ]
    if layout == "sorted":
        order = np.lexsort((columns[1], columns[3], columns[0]))
        columns = [column[order] for column in columns]
    lines = zip(*(column.tolist() for column in columns))
    text = "".join(f"{u}::{i}::{r}::{t}\n" for u, i, r, t in lines)
    path.write_text(text + tail, encoding="utf-8")
    assert path.stat().st_size >= 2_000_000
    return n


def _read_with_peak(path):
    """read_ratings_file(path) and its tracemalloc peak as a multiple of the file size."""
    tracemalloc.start()
    try:
        ratings, issues = read_ratings_file(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return ratings, issues, peak / path.stat().st_size


@pytest.mark.parametrize("layout", ["unsorted", "sorted"])
def test_fast_path_peak_memory_stays_within_three_times_the_file(tmp_path, layout):
    path = tmp_path / "ratings.dat"
    n = _write_plain_ratings(path, layout)
    ratings, issues, peak = _read_with_peak(path)
    assert len(ratings) == n and not issues
    assert peak < 3, f"peak {peak:.1f}x the file size"


def test_line_parser_fallback_keeps_no_python_row_per_line(tmp_path):
    # One out-of-range rating sends the whole file to the line parser, which
    # fills the record array as it parses instead of holding a tuple per row.
    path = tmp_path / "ratings.dat"
    n = _write_plain_ratings(path, "unsorted", tail="1::2::9::100\n")
    ratings, issues, peak = _read_with_peak(path)
    assert len(ratings) == n
    assert [(issue.line_no, issue.reason) for issue in issues] == [
        (n + 1, "rating 9.0 outside [0.5, 5.0]")
    ]
    assert peak < 8, f"peak {peak:.1f}x the file size"


def test_plain_ratings_file_is_read_without_the_line_parser(tmp_path, monkeypatch):
    def line_parser(*args, **kwargs):
        raise AssertionError("the fast path fell back")

    monkeypatch.setattr(catalog, "parse_ratings", line_parser)
    path = tmp_path / "ratings.dat"
    path.write_bytes(
        b"\n2::7::.5::30\r\n\n1::9::5.::20\n1::8::04.50::20\n"
        # Sixteen-digit fields, and a rating of eight digits on each side of its '.'.
        b"9999999999999999::0000000000000001::0000004.50000000::1234567890123456\n"
        b"12345678::123456789::00000005::99999999\n1::3::2::10"
    )
    ratings, issues = read_ratings_file(path, strict=True)
    assert not issues
    assert tuple(ratings) == (
        Interaction(1, 3, 2.0, 10),
        Interaction(1, 8, 4.5, 20),
        Interaction(1, 9, 5.0, 20),
        Interaction(2, 7, 0.5, 30),
        Interaction(12345678, 123456789, 5.0, 99999999),
        Interaction(9999999999999999, 1, 4.5, 1234567890123456),
    )


@pytest.mark.parametrize(
    "line",
    [
        b"12345678901234567::2::3::4",
        b"1::2::3::123456789012345678",
        b"1::2::000000003::4",
        b"1::2::3.000000000::4",
        b"1::2::00000003.00000000::4",
    ],
)
def test_longer_fields_give_the_line_parsers_table(tmp_path, line):
    data = b"5::6::4.5::7\n" + line + b"\n"
    path = tmp_path / "ratings.dat"
    path.write_bytes(data)
    expected, expected_issues = parse_ratings(_lines_by_the_line_rule(data))
    ratings, issues = read_ratings_file(path)
    assert not expected_issues
    assert issues == expected_issues
    assert_same_table(ratings, expected)


def test_an_id_past_64_bits_falls_back_to_the_line_parser(tmp_path, monkeypatch):
    calls = []

    def line_parser(*args, **kwargs):
        calls.append(args)
        return parse_ratings(*args, **kwargs)

    monkeypatch.setattr(catalog, "parse_ratings", line_parser)
    path = tmp_path / "ratings.dat"
    path.write_bytes(b"5::6::4.5::7\n9223372036854775808::2::3::4\n")
    ratings, issues = read_ratings_file(path)
    assert calls
    assert issues == [
        ParseIssue(2, "9223372036854775808::2::3::4", "user id outside the 64-bit range")
    ]
    assert tuple(ratings) == (Interaction(5, 6, 4.5, 7),)


def test_the_synthetic_corpus_is_read_without_the_line_parser(small_corpus, monkeypatch):
    _, path = small_corpus
    expected, _ = parse_ratings(_lines_by_the_line_rule(path.read_bytes()))
    monkeypatch.setattr(catalog, "parse_ratings", _refuse_the_line_parser)
    ratings, issues = read_ratings_file(path)
    assert not issues
    assert_same_table(ratings, expected)


def test_duplicate_ratings_are_counted_and_the_later_one_is_kept(tmp_path):
    # (1, 5) is rated twice, the later rating first in the file; (1, 6) twice
    # at one timestamp; user 1's ratings at timestamp 30 come in descending item order.
    path = tmp_path / "ratings.dat"
    path.write_text(
        "1::5::4::20\n1::5::2::10\n1::9::3::30\n1::6::3::30\n1::6::5::30\n"
        "1::4::1::30\n2::5::3::5\n2::6::2::6\n",
        encoding="utf-8",
    )
    ratings, _ = read_ratings_file(path)
    assert counts_of(compute_popularity(ratings)) == {4: 1, 5: 3, 6: 3, 9: 1}
    matrix = RatingMatrix.from_interactions(ratings)
    dense = dict(zip(matrix.items.tolist(), matrix.csr.toarray()[0].tolist()))
    assert dense == {4: 1.0, 5: 4.0, 6: 5.0, 9: 3.0}

    plan = make_folds(ratings, FoldSpec(fold_count=1, users_per_fold=2, min_ratings=1))
    for split in plan.folds[0]:
        order = [(it.timestamp, it.item) for it in split.train]
        assert order == sorted(order)
    everything = UserSplit(1, ratings, np.arange(6), np.arange(0))
    assert [(it.timestamp, it.item, it.rating) for it in everything.train] == [
        (10, 5, 2.0),
        (20, 5, 4.0),
        (30, 4, 1.0),
        (30, 6, 3.0),
        (30, 6, 5.0),
        (30, 9, 3.0),
    ]


class TestComputePopularity:
    def test_counts(self):
        table, _ = parse_ratings([f"{u}::7::4::1" for u in range(3)] + ["9::9::3::1"])
        phi = compute_popularity(table)
        assert counts_of(phi) == {7: 3, 9: 1}

    def test_single_interaction(self):
        phi = compute_popularity(Ratings.from_columns([1], [5], [4.0], [0]))
        assert counts_of(phi) == {5: 1}

    def test_duplicate_user_item_pairs_both_counted(self):
        # Oracle: brute-force group-by over the raw lines.
        lines = ["1::5::4::10", "1::5::3::20", "2::5::5::30", "2::6::1::40"]
        table, _ = parse_ratings(lines)
        expected: dict[int, int] = {}
        for line in lines:
            item = int(line.split("::")[1])
            expected[item] = expected.get(item, 0) + 1
        assert counts_of(compute_popularity(table)) == expected

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="no interactions"):
            compute_popularity(Ratings.from_columns([], [], [], []))

    @given(
        st.lists(
            st.tuples(st.integers(1, 20), st.integers(1, 50)), min_size=1, max_size=200
        )
    )
    def test_total_equals_interaction_count(self, pairs):
        users, items = zip(*pairs)
        table = Ratings.from_columns(users, items, [3.0] * len(pairs), [0] * len(pairs))
        assert sum(compute_popularity(table).scores) == len(pairs)

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 60)), min_size=1, max_size=80
        ),
        probes=st.lists(st.integers(-5, 70), max_size=20),
    )
    def test_equals_a_counter_of_the_items_in_id_order(self, pairs, probes):
        # Repeated (user, item) pairs and items in no sorted order.
        users, items = zip(*pairs)
        phi = compute_popularity(
            Ratings.from_columns(users, items, [3.0] * len(pairs), range(len(pairs)))
        )
        counter = Counter(item for _, item in pairs)
        assert phi.ids.tolist() == sorted(counter)
        assert phi.scores.tolist() == [counter[item] for item in sorted(counter)]
        built = PhiArray.of(counter)
        np.testing.assert_array_equal(built.ids, phi.ids)
        np.testing.assert_array_equal(built.scores, phi.scores)
        # Probes fall below, between and above the rated ids.
        items = np.array(probes + sorted(counter), dtype=np.int64)
        expected = [float(counter[item]) if item in counter else math.nan for item in items]
        np.testing.assert_array_equal(phi.lookup(items), expected)
        np.testing.assert_array_equal(built.lookup(items), expected)
        empty = PhiArray.of({}).lookup(items)
        assert empty.shape == items.shape and np.isnan(empty).all()


class TestNormalizeTitle:
    def test_article_rotation(self):
        assert normalize_title("Matrix, The") == "matrix"

    def test_leading_article(self):
        assert normalize_title("The Matrix") == "matrix"

    def test_diacritics(self):
        assert normalize_title("Amélie") == "amelie"

    def test_whitespace_and_digits(self):
        assert normalize_title("Se7en ") == "se7en"

    def test_punctuation(self):
        assert normalize_title("Ocean's 11!") == "oceans 11"

    def test_blank_normalizes_to_empty(self):
        assert normalize_title("") == normalize_title("   ") == normalize_title("?!") == ""

    @given(st.text(alphabet=st.characters(codec="latin-1"), min_size=1))
    @settings(max_examples=200)
    def test_idempotent(self, title):
        key = normalize_title(title)
        assert normalize_title(key) == key


# Unicode spaces, the ASCII separators \x1c-\x1f that str.split treats as
# whitespace, combining marks and letters outside Latin.
_ODD_TEXT = " \t\n\x1c\x1d\x1e\x1f\x85\xa0\u2003\u3000e\u0301\u0308Ab9,\u00df\u0130\u65e5\u0416"


@settings(max_examples=500)
@given(st.one_of(st.text(), st.text(alphabet=_ODD_TEXT)))
@example("\x1cThe\u2003Matrix\x1f, The\u3000")
@example("A \u65e5 An")
def test_normalize_title_keeps_only_ascii_letters_digits_and_single_spaces(title):
    # TitleIndex counts characters in a table indexed by ASCII code point.
    assert re.fullmatch(r"(?:[a-z0-9]+(?: [a-z0-9]+)*)?", normalize_title(title))


def _nfkd_normalize_title(title: str) -> str:
    """normalize_title with the NFKD pass run on every title, ASCII or not."""
    text = unicodedata.normalize("NFKD", title.strip().lower())
    text = "".join(ch for ch in text if not unicodedata.combining(ch))
    m = catalog._TRAILING_ARTICLE_RE.match(text)
    if m:
        text = m.group("body")
    text = catalog._WS_RE.sub(" ", catalog._PUNCT_RE.sub("", text)).strip()
    while m := catalog._LEADING_ARTICLE_RE.match(text):
        text = m.group("body").strip()
    return text


@settings(max_examples=500)
@given(st.one_of(st.text(alphabet=st.characters(max_codepoint=127)), st.text()))
@example("Matrix, The (1999)")
@example("Amélie")
@example("Crème Brûlée, A")
def test_normalize_title_equals_the_full_nfkd_path(title):
    assert normalize_title(title) == _nfkd_normalize_title(title)


def _reference_levenshtein(a: str, b: str) -> int:
    rows = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        new = [i]
        for j, cb in enumerate(b, 1):
            new.append(min(rows[j] + 1, new[j - 1] + 1, rows[j - 1] + (ca != cb)))
        rows = new
    return rows[-1]


# A small alphabet makes short distances and cap exits common; "e\u0301" and
# "u\u0308" are combining marks, compared as separate code points.
_EDIT_ALPHABET = "ab e\u0301\u00e9u\u0308\u00df\u65e5"
# Short strings, and long ones that put the band of cells within the cap far
# from the table's corner.
_edit_text = st.one_of(
    st.text(alphabet=_EDIT_ALPHABET, max_size=8),
    st.text(alphabet=_EDIT_ALPHABET, min_size=60, max_size=150),
)


def _assert_levenshtein_contract(a: str, b: str) -> None:
    expected = min(_reference_levenshtein(a, b), MAX_EDIT_DISTANCE + 1)
    assert levenshtein(a, b) == expected
    assert levenshtein(b, a) == expected


@given(_edit_text, _edit_text)
@example("bbaab", "aabba")
# Edits at both ends, which the prefix and suffix strip cannot remove.
@example("xabcdefgy", "abcdefgz")  # 2
@example("b" + "a" * 70 + "c", "a" * 70 + "d")  # 2
@example("ab" * 40, "ba" * 40)  # 2
@example("xy" + "a" * 70, "a" * 70 + "xy")  # 3, the cap exit
@settings(deadline=None)
def test_levenshtein_matches_reference(a, b):
    _assert_levenshtein_contract(a, b)


@given(
    st.text(alphabet=_EDIT_ALPHABET, max_size=150),
    st.lists(
        st.tuples(
            st.sampled_from(("insert", "delete", "substitute")),
            st.integers(0, 150),
            st.sampled_from(_EDIT_ALPHABET),
        ),
        max_size=4,
    ),
)
@settings(deadline=None)
def test_levenshtein_few_edits_match_reference(a, edits):
    # A few edits keep the distance near the cap at every length.
    b = list(a)
    for op, pos, ch in edits:
        pos = min(pos, len(b))
        if op == "insert":
            b.insert(pos, ch)
        elif pos < len(b):
            if op == "delete":
                del b[pos]
            else:
                b[pos] = ch
    _assert_levenshtein_contract(a, "".join(b))


def _brute_force_resolve(entries, title, year):
    """The documented resolution order, scanning every entry."""
    keys = [(normalize_title(e.title), e.year, e.item) for e in entries]
    query = normalize_title(title)
    if not query:
        return None
    exact = [item for key, key_year, item in keys if (key, key_year) == (query, year)]
    if exact:
        return exact[0] if len(exact) == 1 else None
    if year <= 0:
        return None
    # Year-0 entries stay out of the tolerant stages.
    near = [
        item
        for key, key_year, item in keys
        if key == query and key_year > 0 and abs(key_year - year) == 1
    ]
    if near:
        return near[0] if len(near) == 1 else None
    scored = [
        (_reference_levenshtein(query, key), item)
        for key, key_year, item in keys
        if key_year > 0 and abs(key_year - year) <= 1
    ]
    best = min((d for d, _ in scored), default=MAX_EDIT_DISTANCE + 1)
    winners = [item for d, item in scored if d == best]
    return winners[0] if best <= MAX_EDIT_DISTANCE and len(winners) == 1 else None


def _typo(title: str, rng: random.Random, edits: int) -> str:
    chars = list(title)
    for _ in range(edits):
        pos = rng.randrange(len(chars))
        op = rng.choice(("insert", "delete", "substitute"))
        if op == "insert":
            chars.insert(pos, rng.choice("aeiourst"))
        elif op == "delete" and len(chars) > 1:
            del chars[pos]
        else:
            chars[pos] = rng.choice("aeiourst")
    return "".join(chars)


@pytest.mark.parametrize("seed", range(4))
def test_resolve_matches_brute_force(seed):
    rng = random.Random(seed)
    words = ["red", "blue", "stone", "river", "night", "garden", "seven", "last", "amélie"]
    entries = []
    for item in range(1, 61):
        title = " ".join(rng.choice(words) for _ in range(rng.randint(1, 3)))
        entries.append(CatalogEntry(item, title.title(), rng.choice([0, 1990, 1991, 1992, 1993])))
    # Two titles one edit either side of the query "Planted Tie": tied at distance 1.
    entries += [CatalogEntry(61, "Planted Tiea", 1991), CatalogEntry(62, "Planted Tieb", 1992)]
    queries = [("Planted Tie", 1991), ("Planted Tie", 1992)]
    for e in entries:
        queries.append((e.title, e.year))
        queries.append((e.title, e.year + rng.choice((-1, 1))))
        queries.append((_typo(e.title, rng, rng.randint(1, 3)), e.year + rng.choice((-1, 0, 1))))
    queries.append(("Completely Invented Film", 1991))

    index = TitleIndex.build(entries)
    results = [index.resolve(t, y) for t, y in queries]
    assert results == [_brute_force_resolve(entries, t, y) for t, y in queries]
    assert results[:2] == [None, None]
    catalogued = {normalize_title(e.title) for e in entries}
    fuzzy_hits = [
        r
        for (t, y), r in zip(queries, results)
        if r is not None and normalize_title(t) not in catalogued
    ]
    assert len(fuzzy_hits) >= 5


# Catalog titles come from a small alphabet; queries add letters, digits and
# characters normalization drops ("ß", "ø"), so some query characters are in
# no catalog title and some queries normalize to nothing.
_catalog_title = st.text(alphabet="abcd e", min_size=1, max_size=7).filter(str.strip)
_query_title = st.text(alphabet="abcdexyz19 ß\u00f8", min_size=1, max_size=9).filter(str.strip)
_years = st.sampled_from((0, 1, 2, 1990, 1991, 1992))


@st.composite
def _catalog_with_queries(draw):
    titles = draw(st.lists(_catalog_title, min_size=1, max_size=5))
    # An anagram has the same character bag, so its bound is 0 at any distance.
    titles += ["".join(draw(st.permutations(t))) for t in titles]
    entries = [
        CatalogEntry(item, draw(st.sampled_from(titles)), draw(_years))
        for item in range(1, draw(st.integers(1, 12)) + 1)
    ]
    # A planted tie: two titles one insertion away from the query `base`.
    base = draw(_catalog_title)
    tie_year = draw(st.sampled_from((1, 1991)))
    entries += [
        CatalogEntry(len(entries) + 1, base + "a", tie_year),
        CatalogEntry(len(entries) + 2, base + "b", tie_year + draw(st.sampled_from((-1, 0, 1)))),
    ]
    queries = [(base, tie_year)]
    queries += [(e.title, e.year + draw(st.sampled_from((-1, 0, 1)))) for e in entries]
    queries += draw(
        st.lists(
            st.tuples(st.one_of(_query_title, st.sampled_from(titles)), _years),
            max_size=8,
        )
    )
    return entries, queries


@given(_catalog_with_queries())
# Punctuation-only queries normalize to "", within two edits of any short title.
@example(
    ([CatalogEntry(1, "Pi", 1998), CatalogEntry(2, "M", 1931)], [("...", 1998), ("--", 1931)])
)
# A title exact one year off is the window's distance-0 title: exact at
# year - 1 only; at both year - 1 and year + 1 (a tie, so None); at year - 1
# with a title one edit away at year + 1; at the year and at year + 1.
@example(([CatalogEntry(1, "Heat", 1994)], [("Heat", 1995)]))
@example(([CatalogEntry(1, "Heat", 1994), CatalogEntry(2, "Heat", 1996)], [("Heat", 1995)]))
@example(([CatalogEntry(1, "Heat", 1994), CatalogEntry(2, "Heats", 1996)], [("Heat", 1995)]))
@example(([CatalogEntry(1, "Heat", 1995), CatalogEntry(2, "Heat", 1996)], [("Heat", 1995)]))
@settings(deadline=None)
def test_bag_filter_keeps_resolve_exact(case):
    entries, queries = case
    index = TitleIndex.build(entries)
    for title, year in queries:
        assert index.resolve(title, year) == _brute_force_resolve(entries, title, year)


@given(
    st.lists(_edit_text, min_size=1, max_size=6),
    st.text(alphabet=_EDIT_ALPHABET + "19\u00f8", max_size=150),
)
@settings(deadline=None)
def test_bag_bound_never_exceeds_edit_distance(titles, query):
    # Titles from one alphabet, a query partly outside it: every bound is the
    # bag distance to the title's normalized key, at most their edit distance.
    index = TitleIndex.build(
        CatalogEntry(item, title, 1990) for item, title in enumerate(titles, 1) if title.strip()
    )
    bounds = index._bag_bounds(query, 0, len(index._titles))
    assert len(bounds) == len(index._titles)
    for key, bound in zip(index._titles, bounds.tolist()):
        shared = sum((Counter(query) & Counter(key)).values())
        assert bound == max(len(query), len(key)) - shared
        assert bound <= _reference_levenshtein(query, key)


@given(st.lists(st.sampled_from((0, 1, 2, 3, 1990, 1992, 1995)), min_size=1, max_size=8))
def test_window_map_holds_every_year_whose_window_holds_a_title(years):
    index = TitleIndex.build(CatalogEntry(item, "Up", year) for item, year in enumerate(years, 1))
    layout = sorted(years)
    for year in [*range(-1, 6), *range(1988, 1998)]:
        window = [i for i, y in enumerate(layout) if max(year - 1, 1) <= y <= year + 1]
        expected = (window[0], window[-1] + 1) if year >= 1 and window else None
        assert index._windows.get(year) == expected


def _count_levenshtein(monkeypatch) -> list[tuple[str, str]]:
    """Record the (query, title) pairs resolve scores through catalog.levenshtein."""
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return min(_reference_levenshtein(a, b), MAX_EDIT_DISTANCE + 1)

    monkeypatch.setattr(catalog, "levenshtein", counting)
    return calls


def test_resolve_looks_up_levenshtein_as_the_module_global(monkeypatch):
    # Call counters wrap catalog.levenshtein by name; a local alias would
    # hide every call from them.
    calls = _count_levenshtein(monkeypatch)
    index = TitleIndex.build([CatalogEntry(1, "Amélie", 2001), CatalogEntry(2, "Heat", 1995)])
    assert index.resolve("Amelie", 2001) == 1
    assert calls == []
    assert index.resolve("Amelei", 2001) == 1
    assert calls == [("amelei", "amelie")]


def test_fuzzy_scan_stops_once_the_bound_passes_the_best_distance(monkeypatch):
    # Both decoys share all but two characters with the query (bag bound 2)
    # and are three edits away, so the match at distance 1 ends the scan.
    calls = _count_levenshtein(monkeypatch)
    index = TitleIndex.build(
        CatalogEntry(item, f"Synthetic Feature No {number}", 1995)
        for item, number in ((1, 1171), (2, 1717), (3, 7117))
    )
    query = "synyhetic feature no 1171"
    assert index._bag_bounds(query, 0, 3).tolist() == [1, 2, 2]
    assert [_reference_levenshtein(query, title) for title in index._titles] == [1, 3, 3]
    assert index.resolve("Synyhetic Feature No 1171", 1995) == 1
    assert calls == [(query, "synthetic feature no 1171")]


def test_fuzzy_tie_is_scored_in_full_and_stays_unmatched(monkeypatch):
    # "abxyz" (bag bound 2) cannot tie the two titles at distance 1.
    calls = _count_levenshtein(monkeypatch)
    index = TitleIndex.build(
        CatalogEntry(item, title, 1990) for item, title in enumerate(("Abxyz", "Abcde", "Abcdf"), 1)
    )
    assert index.resolve("Abcdx", 1990) is None
    assert calls == [("abcdx", "abcde"), ("abcdx", "abcdf")]


@st.composite
def _near_miss_catalog(draw):
    # Typos and anagrams of one title: bag bounds at or below the edit
    # distances that matter, so the scan order and its stop rule decide.
    base = draw(st.text(alphabet="ab 17", min_size=3, max_size=9).filter(str.strip))
    rng = draw(st.randoms(use_true_random=False))
    titles = [base]
    titles += [_typo(base, rng, rng.randint(1, 3)) for _ in range(draw(st.integers(1, 6)))]
    titles += ["".join(draw(st.permutations(base))) for _ in range(draw(st.integers(0, 3)))]
    years = st.sampled_from((1994, 1995, 1996))
    entries = [
        CatalogEntry(item, title, draw(years))
        for item, title in enumerate(titles, 1)
        if title.strip()
    ]
    queries = [(_typo(base, rng, rng.randint(1, 2)), draw(years)) for _ in range(6)]
    return entries, [(title, year) for title, year in queries if title.strip()]


@given(_near_miss_catalog())
@settings(deadline=None)
def test_bound_ordered_scan_matches_brute_force_on_near_misses(case):
    entries, queries = case
    index = TitleIndex.build(entries)
    for title, year in queries:
        assert index.resolve(title, year) == _brute_force_resolve(entries, title, year)


def test_catalog_title_that_normalizes_to_nothing_is_never_resolved():
    assert TitleIndex.build([CatalogEntry(1, "...", 1990)]).resolve("Up", 1991) is None
    assert TitleIndex.build([CatalogEntry(1, "?!", 1990)]).resolve("ab", 1990) is None
    index = TitleIndex.build([CatalogEntry(1, "?!", 1990), CatalogEntry(2, "Up", 1990)])
    assert index.resolve("Up", 1990) == 2
    assert index._titles == ("up",)


def test_blank_title_is_never_resolved_and_a_blank_catalog_title_is_left_out():
    index = TitleIndex.build([CatalogEntry(1, "Heat", 1995)])
    for title in ("", "   ", "\t\n"):
        assert index.resolve(title, 1995) is None
    index = TitleIndex.build([CatalogEntry(1, "   ", 1995), CatalogEntry(2, "Up", 1995)])
    assert index._titles == ("up",)
    assert index.resolve("Up", 1995) == 2
    assert index.resolve("   ", 1995) is None


def test_index_is_read_only_and_shared_by_threads():
    rng = random.Random(7)
    entries = [
        CatalogEntry(item, _typo("Garden Of Stone", rng, 3), rng.choice([1990, 1991]))
        for item in range(1, 41)
    ]
    index = TitleIndex.build(entries)
    for array in (index._lengths, index._counts):
        assert not array.flags.writeable
    assert isinstance(index._columns, bytes)
    with pytest.raises(dataclasses.FrozenInstanceError):
        index._titles = ()
    queries = [(_typo(e.title, rng, 2), e.year) for e in entries] * 5
    expected = [index.resolve(t, y) for t, y in queries]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            runs = [pool.submit(lambda: [index.resolve(t, y) for t, y in queries]) for _ in range(8)]
            results = [run.result(timeout=60) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 8


class TestResolveTitle:
    @pytest.fixture()
    def index(self):
        entries = [
            CatalogEntry(1, "Matrix, The", 1999),
            CatalogEntry(2, "Heat", 1995),
            CatalogEntry(3, "Heat", 1972),
            CatalogEntry(4, "Amélie", 2001),
            CatalogEntry(5, "Untitled Short", 0),
        ]
        return TitleIndex.build(entries)

    def test_normalization_round_trip(self, index):
        assert index.resolve("The Matrix", 1999) == 1

    def test_year_tolerance(self, index):
        assert index.resolve("Matrix", 2000) == 1

    def test_unmatched(self, index):
        assert index.resolve("Completely Invented Film", 1990) is None

    def test_fuzzy_within_two_edits(self, index):
        assert index.resolve("Amelei", 2001) == 4

    def test_fuzzy_ambiguity_unmatched(self):
        entries = [CatalogEntry(1, "Abcde", 1990), CatalogEntry(2, "Abcdf", 1990)]
        index = TitleIndex.build(entries)
        assert index.resolve("Abcdx", 1990) is None

    def test_exact_year_beats_fuzzy(self, index):
        assert index.resolve("Heat", 1972) == 3
        assert index.resolve("Heat", 1995) == 2

    def test_blank_title_is_neither_indexed_nor_resolved(self):
        index = TitleIndex.build([CatalogEntry(1, "  ", 1990), CatalogEntry(2, "Pi", 1990)])
        assert index._titles == ("pi",)
        # "" is two edits from "pi": only the blank-key exit keeps these unmatched.
        for blank in ("", "   ", "\t"):
            assert index.resolve(blank, 1990) is None

    def test_yearless_entries_not_fuzzily_matched(self, index):
        assert index.resolve("Untitled Short", 0) == 5
        assert index.resolve("Untitled Shorx", 1) is None

    @given(st.data())
    @settings(max_examples=50)
    def test_round_trip_identity(self, data):
        words = st.sampled_from(
            ["red", "blue", "stone", "river", "night", "garden", "seven", "last"]
        )
        n = data.draw(st.integers(2, 8))
        entries = []
        seen = set()
        for i in range(n):
            title = " ".join(data.draw(words) for _ in range(3))
            year = data.draw(st.integers(1950, 2008))
            key = (normalize_title(title), year)
            if key in seen:
                continue
            seen.add(key)
            entries.append(CatalogEntry(i + 1, title, year))
        # Same title in adjacent years is ambiguous by design; drop those.
        by_title = {}
        for e in entries:
            by_title.setdefault(normalize_title(e.title), []).append(e)
        entries = [
            e
            for e in entries
            if all(
                abs(other.year - e.year) > 1 or other is e
                for other in by_title[normalize_title(e.title)]
            )
        ]
        index = TitleIndex.build(entries)
        for e in entries:
            assert index.resolve(e.title, e.year) == e.item


def test_popularity_scores_at_least_one(toy_files):
    _, ratings_path = toy_files
    interactions, _ = read_ratings_file(ratings_path)
    phi = compute_popularity(interactions)
    assert all(v >= 1 for v in phi.scores)
    assert math.isclose(sum(phi.scores), len(interactions))

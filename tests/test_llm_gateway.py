import re
import threading
from concurrent.futures import ThreadPoolExecutor

import requests as requests_lib
import numpy as np
import pytest

from popbias import llm_gateway
from popbias.catalog import CatalogEntry, Ratings, TitleIndex
from popbias.llm_gateway import (
    MAX_HISTORY_TITLES,
    MAX_RELEASE_YEAR,
    MITIGATE_INSTRUCTION,
    MINIMIZE_INSTRUCTION,
    ParsedCompletion,
    ParsedRec,
    PromptVariant,
    ProviderConfig,
    ProviderError,
    SlotTag,
    TransportError,
    ValidityTag,
    WokRecommender,
    build_watch_history,
    complete_chat,
    parse_recommendations,
    prompt_fingerprint,
    render_prompt,
    validate_and_resolve,
)
from popbias.evaluation import FoldInputs, UserSplit, evaluate_recommender
from popbias.metrics import PhiArray
from popbias.recommenders import RecRequest, RecResult, Slate


class TestRenderPrompt:
    def test_contains_count_and_history(self):
        prompt = render_prompt([("Heat", 1995)], 10)
        assert "Provide a list of 10 movies" in prompt
        assert "Heat (1995)" in prompt

    def test_base_prompt_names_the_release_year_cutoff(self, monkeypatch):
        cutoff = f"- Do not recommend movies that are newer than {MAX_RELEASE_YEAR}.\n"
        assert cutoff in render_prompt([("Heat", 1995)], 10)
        monkeypatch.setattr(llm_gateway, "MAX_RELEASE_YEAR", 1999)
        assert "- Do not recommend movies that are newer than 1999.\n" in render_prompt(
            [("Heat", 1995)], 10
        )

    def test_minimize_ends_with_instruction(self):
        prompt = render_prompt([("Heat", 1995)], 10, PromptVariant.MINIMIZE)
        assert prompt.endswith(MINIMIZE_INSTRUCTION)

    def test_mitigate_appends_paragraph(self):
        prompt = render_prompt([("Heat", 1995)], 5, PromptVariant.MITIGATE)
        assert prompt.endswith(MITIGATE_INSTRUCTION)
        base = render_prompt([("Heat", 1995)], 5)
        assert prompt.startswith(base)

    def test_history_truncated_to_most_recent(self):
        history = [(f"Movie {i}", 1990) for i in range(60)]
        prompt = render_prompt(history, 10)
        assert "Movie 59 (1990)" in prompt
        assert "Movie 10 (1990)" in prompt
        assert "Movie 9 (1990)" not in prompt
        assert prompt.count("Movie") == MAX_HISTORY_TITLES

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            render_prompt([], 10)

    def test_injective_on_inputs(self):
        variants = {
            render_prompt([("A", 2000)], 10),
            render_prompt([("A", 2001)], 10),
            render_prompt([("A", 2000)], 9),
            render_prompt([("A", 2000)], 10, PromptVariant.MITIGATE),
            render_prompt([("A", 2000)], 10, PromptVariant.MINIMIZE),
        }
        assert len(variants) == 5


class TestParseRecommendations:
    def test_basic_lines(self):
        parsed = parse_recommendations("1. The Matrix (1999)\n2. Heat (1995)")
        assert parsed.recs == (
            ParsedRec(1, "The Matrix", 1999),
            ParsedRec(2, "Heat", 1995),
        )
        assert parsed.malformed == ()

    def test_preamble_ignored(self):
        parsed = parse_recommendations("Here are my picks:\n1. Heat (1995)")
        assert len(parsed.recs) == 1
        assert parsed.malformed == ()

    def test_missing_year_is_malformed(self):
        parsed = parse_recommendations("1. Heat")
        assert parsed.recs == ()
        assert parsed.malformed == ("1. Heat",)

    def test_paren_number_format_and_trailing_text(self):
        parsed = parse_recommendations("1) Heat (1995) - a classic heist film")
        assert parsed.recs == (ParsedRec(1, "Heat", 1995),)

    def test_non_increasing_positions_malformed(self):
        parsed = parse_recommendations("1. Heat (1995)\n1. Fargo (1996)")
        assert len(parsed.recs) == 1
        assert len(parsed.malformed) == 1

    def test_trailing_chatter_malformed(self):
        parsed = parse_recommendations("1. Heat (1995)\nEnjoy the movies!")
        assert parsed.malformed == ("Enjoy the movies!",)

    def test_blank_lines_skipped(self):
        parsed = parse_recommendations("\n1. Heat (1995)\n\n2. Fargo (1996)\n")
        assert len(parsed.recs) == 2

    def test_blank_title_is_malformed(self):
        parsed = parse_recommendations("1.  (1999)\n2. Heat (1995)")
        assert parsed.recs == (ParsedRec(2, "Heat", 1995),)
        assert parsed.malformed == ("1.  (1999)",)

    def test_round_trip_synthetic_completion(self):
        lines = [f"{i}. Film Number {i} (19{50 + i:02d})" for i in range(1, 11)]
        parsed = parse_recommendations("\n".join(lines))
        assert len(parsed.recs) == 10
        assert parsed.malformed == ()


@pytest.fixture()
def catalog_index():
    entries = [
        CatalogEntry(1, "Matrix, The", 1999),
        CatalogEntry(2, "Heat", 1995),
        CatalogEntry(3, "Fargo", 1996),
        CatalogEntry(4, "Alien", 1979),
    ]
    return TitleIndex.build(entries), {e.item: e for e in entries}


class TestValidateAndResolve:
    def test_all_five_tags(self, catalog_index):
        index, _ = catalog_index
        parsed = parse_recommendations(
            "1. The Matrix (1999)\n"      # valid
            "2. Heat (1995)\n"            # already watched
            "3. Avatar (2009)\n"          # too new
            "4. Undiscovered Gem (1990)\n"  # unmatched
            "5. Broken Line\n"            # malformed
        )
        result = validate_and_resolve(parsed, {2}, index, requested_k=5)
        tags = [t.tag for t in result.tags]
        assert tags == [
            ValidityTag.VALID,
            ValidityTag.ALREADY_WATCHED,
            ValidityTag.TOO_NEW,
            ValidityTag.UNMATCHED,
            ValidityTag.MALFORMED,
        ]
        assert result.slate.entries == (1,)
        assert 5 - len(result.slate.entries) == 4  # unfilled slots

    def test_too_new_beats_unmatched(self, catalog_index):
        index, _ = catalog_index
        parsed = ParsedCompletion(recs=(ParsedRec(1, "Avatar", 2009),), malformed=())
        result = validate_and_resolve(parsed, set(), index, requested_k=1)
        assert result.tags[0].tag is ValidityTag.TOO_NEW

    def test_missing_slots_count_as_invalid(self, catalog_index):
        index, _ = catalog_index
        lines = "\n".join(
            f"{i}. {t} ({y})"
            for i, (t, y) in enumerate(
                [("The Matrix", 1999), ("Heat", 1995), ("Fargo", 1996), ("Alien", 1979)],
                start=1,
            )
        )
        parsed = parse_recommendations(lines)
        result = validate_and_resolve(parsed, set(), index, requested_k=10)
        assert 10 - len(result.slate.entries) == 6  # unfilled slots

    def test_duplicate_valid_title_tagged_malformed(self, catalog_index):
        index, _ = catalog_index
        parsed = parse_recommendations("1. Heat (1995)\n2. Heat (1995)")
        result = validate_and_resolve(parsed, set(), index, requested_k=2)
        assert [t.tag for t in result.tags] == [ValidityTag.VALID, ValidityTag.MALFORMED]
        assert result.slate.entries == (2,)

    def test_blank_title_tagged_malformed(self, catalog_index):
        index, _ = catalog_index
        parsed = parse_recommendations("1. (1999)\n2.   (1995)\n3. Heat (1995)")
        result = validate_and_resolve(parsed, set(), index, requested_k=3)
        assert [t.tag for t in result.tags] == [
            ValidityTag.VALID,
            ValidityTag.MALFORMED,
            ValidityTag.MALFORMED,
        ]
        assert result.slate.entries == (2,)
        assert 3 - len(result.slate.entries) == 2  # unfilled slots

    @pytest.mark.parametrize(
        ("title", "line"),
        [("Pi", "1. ... (1998)\n"), ("M", "1. -- (1931)\n")],
        ids=["ellipsis", "dashes"],
    )
    def test_punctuation_only_title_is_unmatched(self, title, line):
        # It normalizes to "", which is within two edits of any short title.
        year = int(line[-6:-2])
        index = TitleIndex.build([CatalogEntry(1, title, year)])
        result = validate_and_resolve(parse_recommendations(line), frozenset(), index, 10)
        assert result.tags == (SlotTag(ValidityTag.UNMATCHED),)
        assert result.slate.entries == ()

    def test_unmatched_bounded_by_k(self, catalog_index):
        index, _ = catalog_index
        parsed = parse_recommendations("")
        result = validate_and_resolve(parsed, set(), index, requested_k=10)
        assert 10 - len(result.slate.entries) == 10  # unfilled slots

    def test_slate_truncated_to_k(self, catalog_index):
        index, _ = catalog_index
        parsed = parse_recommendations(
            "1. The Matrix (1999)\n2. Heat (1995)\n3. Fargo (1996)"
        )
        result = validate_and_resolve(parsed, set(), index, requested_k=2)
        assert len(result.slate.entries) == 2


class TestStubProvider:
    def test_returns_fixture_exactly(self, tmp_path):
        cfg = ProviderConfig(dialect="stub", fixtures_dir=str(tmp_path))
        prompt = "hello prompt"
        fixture_text = "1. Heat (1995)\n"
        (tmp_path / f"{prompt_fingerprint(prompt)}.txt").write_text(fixture_text)
        assert complete_chat(prompt, cfg) == fixture_text

    def test_missing_fixture_is_error(self, tmp_path):
        cfg = ProviderConfig(dialect="stub", fixtures_dir=str(tmp_path))
        with pytest.raises(ProviderError, match="no stub fixture"):
            complete_chat("nobody wrote this", cfg)

    def test_unreadable_fixture_is_error_naming_its_fingerprint(self, tmp_path):
        cfg = ProviderConfig(dialect="stub", fixtures_dir=str(tmp_path))
        fixture = tmp_path / f"{prompt_fingerprint('a prompt')}.txt"
        fixture.write_bytes("1. Café (1995)\n".encode("latin-1"))  # not UTF-8
        with pytest.raises(ProviderError, match=f"unreadable stub fixture {fixture.stem}"):
            complete_chat("a prompt", cfg)
        fixture.unlink()
        fixture.mkdir()  # an OSError other than a missing file
        with pytest.raises(ProviderError, match=f"unreadable stub fixture {fixture.stem}"):
            complete_chat("a prompt", cfg)


class _FakeResponse:
    def __init__(self, status_code, body=None, text=""):
        self.status_code = status_code
        self._body = body or {}
        self.text = text or "body"

    def json(self):
        return self._body


class TestHttpProviders:
    def test_timeout_with_no_retries_is_transport_error(self, monkeypatch):
        def raise_timeout(*args, **kwargs):
            raise requests_lib.Timeout("too slow")

        monkeypatch.setenv("FAKE_KEY", "k")
        monkeypatch.setattr("requests.post", raise_timeout)
        cfg = ProviderConfig(
            dialect="openai", endpoint="http://x", api_key_env="FAKE_KEY", retries=0
        )
        with pytest.raises(TransportError, match="1 attempts"):
            complete_chat("p", cfg)

    def test_401_names_authentication(self, monkeypatch):
        monkeypatch.setenv("FAKE_KEY", "k")
        monkeypatch.setattr(
            "requests.post",
            lambda *a, **kw: _FakeResponse(401, text="bad key"),
        )
        cfg = ProviderConfig(
            dialect="openai", endpoint="http://x", api_key_env="FAKE_KEY", retries=3
        )
        with pytest.raises(ProviderError, match="authentication"):
            complete_chat("p", cfg)

    def test_retry_then_success(self, monkeypatch):
        calls = []

        def flaky(*args, **kwargs):
            calls.append(kwargs)
            if len(calls) == 1:
                return _FakeResponse(503, text="busy")
            return _FakeResponse(
                200, body={"choices": [{"message": {"content": "1. Heat (1995)"}}]}
            )

        monkeypatch.setenv("FAKE_KEY", "k")
        monkeypatch.setattr("requests.post", flaky)
        monkeypatch.setattr("popbias.llm_gateway.time.sleep", lambda s: None)
        cfg = ProviderConfig(
            dialect="openai", endpoint="http://x", api_key_env="FAKE_KEY", retries=2
        )
        assert complete_chat("p", cfg) == "1. Heat (1995)"
        assert len(calls) == 2

    @pytest.mark.parametrize(
        ("dialect", "content", "message"),
        [
            ("openai", b"<html>gateway says hi</html>", "not JSON"),
            ("anthropic", b"", "not JSON"),
            ("openai", b'{"choices":[{"message":{"content":null}}]}', "NoneType"),
            ("anthropic", b'{"content":[{"text":["1. Heat (1995)"]}]}', "list"),
            ("openai", b'{"choices":[]}', "missing"),
        ],
        ids=["html", "empty", "null_content", "list_content", "no_choices"],
    )
    def test_malformed_200_body_is_provider_error(self, monkeypatch, dialect, content, message):
        def canned(*args, **kwargs):
            response = requests_lib.Response()
            response.status_code = 200
            response._content = content
            response.encoding = "utf-8"
            return response

        monkeypatch.setenv("FAKE_KEY", "k")
        monkeypatch.setattr("requests.post", canned)
        cfg = ProviderConfig(dialect=dialect, endpoint="http://x", api_key_env="FAKE_KEY")
        with pytest.raises(ProviderError, match=message):
            complete_chat("p", cfg)

    def test_openai_payload_shape(self, monkeypatch):
        seen = {}

        def capture(url, json=None, headers=None, timeout=None):
            seen.update(url=url, json=json, headers=headers)
            return _FakeResponse(200, body={"choices": [{"message": {"content": "ok"}}]})

        monkeypatch.setenv("FAKE_KEY", "secret")
        monkeypatch.setattr("requests.post", capture)
        cfg = ProviderConfig(
            dialect="openai",
            endpoint="http://api/chat",
            model_name="m1",
            api_key_env="FAKE_KEY",
        )
        complete_chat("the prompt", cfg)
        assert seen["json"]["model"] == "m1"
        assert seen["json"]["messages"] == [{"role": "user", "content": "the prompt"}]
        assert seen["json"]["temperature"] == 0.0
        assert seen["json"]["top_p"] == 1.0
        assert "top_k" not in seen["json"]
        assert seen["headers"]["Authorization"] == "Bearer secret"

    def test_anthropic_payload_shape(self, monkeypatch):
        seen = {}

        def capture(url, json=None, headers=None, timeout=None):
            seen.update(json=json, headers=headers)
            return _FakeResponse(200, body={"content": [{"text": "ok"}]})

        monkeypatch.setenv("FAKE_KEY", "secret")
        monkeypatch.setattr("requests.post", capture)
        cfg = ProviderConfig(
            dialect="anthropic",
            endpoint="http://api/messages",
            model_name="m2",
            api_key_env="FAKE_KEY",
        )
        complete_chat("p", cfg)
        assert seen["json"]["top_k"] == 250
        assert seen["headers"]["x-api-key"] == "secret"

    def test_missing_key_is_error(self, monkeypatch):
        monkeypatch.delenv("NOPE_KEY", raising=False)
        cfg = ProviderConfig(dialect="openai", endpoint="http://x", api_key_env="NOPE_KEY")
        with pytest.raises(ProviderError, match="NOPE_KEY"):
            complete_chat("p", cfg)

    def test_unknown_dialect(self):
        # Refused when the config is built, before any request can be sent.
        with pytest.raises(ValueError, match="dialect must be one of: stub, openai, anthropic"):
            ProviderConfig(dialect="telnet")

    @pytest.mark.parametrize("max_in_flight", [0, -1, "4", 2.0, True])
    def test_max_in_flight_must_be_a_positive_integer(self, max_in_flight):
        with pytest.raises(ValueError, match="max_in_flight must be an integer >= 1"):
            ProviderConfig(dialect="openai", max_in_flight=max_in_flight)

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("retries", -1, "retries must be an integer >= 0"),
            ("retries", "2", "retries must be an integer >= 0"),
            ("retries", 2.0, "retries must be an integer >= 0"),
            ("retries", True, "retries must be an integer >= 0"),
            ("backoff", -1, "backoff must be a number >= 0"),
            ("backoff", "0.5", "backoff must be a number >= 0"),
            ("backoff", False, "backoff must be a number >= 0"),
            ("backoff", float("nan"), "backoff must be a number >= 0"),
            ("backoff", float("inf"), "backoff must be a number >= 0"),
            ("timeout", 0, "timeout must be a number > 0"),
            ("timeout", -5.0, "timeout must be a number > 0"),
            ("timeout", "60", "timeout must be a number > 0"),
            ("timeout", True, "timeout must be a number > 0"),
            ("timeout", float("nan"), "timeout must be a number > 0"),
        ],
    )
    def test_retry_settings_are_checked_at_construction(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ProviderConfig(dialect="openai", **{field: value})

    def test_retry_settings_accept_their_bounds(self):
        cfg = ProviderConfig(dialect="openai", retries=0, backoff=0, timeout=0.5)
        assert (cfg.retries, cfg.backoff, cfg.timeout) == (0, 0, 0.5)
        assert ProviderConfig(dialect="openai", backoff=1.5, timeout=30).timeout == 30

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("temperature", "hot", "temperature must be a number >= 0"),
            ("temperature", -0.1, "temperature must be a number >= 0"),
            ("temperature", True, "temperature must be a number >= 0"),
            ("temperature", float("nan"), "temperature must be a number >= 0"),
            ("temperature", float("inf"), "temperature must be a number >= 0"),
            ("top_p", None, r"top_p must be a number in \(0, 1\]"),
            ("top_p", 0, r"top_p must be a number in \(0, 1\]"),
            ("top_p", 1.5, r"top_p must be a number in \(0, 1\]"),
            ("top_p", True, r"top_p must be a number in \(0, 1\]"),
            ("top_p", float("nan"), r"top_p must be a number in \(0, 1\]"),
            ("top_k", "x", "top_k must be null or an integer >= 1"),
            ("top_k", 0, "top_k must be null or an integer >= 1"),
            ("top_k", 5.0, "top_k must be null or an integer >= 1"),
            ("top_k", True, "top_k must be null or an integer >= 1"),
            ("max_tokens", -5, "max_tokens must be an integer >= 1"),
            ("max_tokens", 0, "max_tokens must be an integer >= 1"),
            ("max_tokens", "1024", "max_tokens must be an integer >= 1"),
            ("max_tokens", 1024.0, "max_tokens must be an integer >= 1"),
            ("max_tokens", None, "max_tokens must be an integer >= 1"),
            ("max_tokens", True, "max_tokens must be an integer >= 1"),
        ],
    )
    def test_decoding_settings_are_checked_at_construction(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ProviderConfig(dialect="openai", **{field: value})

    def test_decoding_settings_accept_their_bounds(self):
        cfg = ProviderConfig(dialect="anthropic", temperature=0, top_p=1, top_k=None, max_tokens=1)
        assert (cfg.temperature, cfg.top_p, cfg.top_k, cfg.max_tokens) == (0, 1, None, 1)
        cfg = ProviderConfig(dialect="anthropic", temperature=1.5, top_p=0.01, top_k=1)
        assert (cfg.temperature, cfg.top_p, cfg.top_k) == (1.5, 0.01, 1)

    def test_a_bad_endpoint_is_a_provider_error_without_retries(self, monkeypatch):
        calls = []

        def invalid(url, **kwargs):
            calls.append(url)
            raise requests_lib.exceptions.InvalidURL(f"Invalid URL {url!r}: no host")

        monkeypatch.setenv("FAKE_KEY", "k")
        monkeypatch.setattr("requests.post", invalid)
        cfg = ProviderConfig(
            dialect="openai", endpoint="http://", api_key_env="FAKE_KEY", retries=3
        )
        with pytest.raises(ProviderError, match="request to endpoint 'http://' failed") as info:
            complete_chat("p", cfg)
        assert not isinstance(info.value, TransportError)
        assert "no host" in str(info.value)
        assert calls == ["http://"]


def test_build_watch_history_orders_by_timestamp():
    # Profile tables built from the same rows in any order give one history.
    entries = {i: CatalogEntry(i, f"Film {i}", 1990 + i) for i in (2, 5, 7)}
    rows = [
        (3, 5, 4.0, 100),
        (3, 2, 3.0, 100),  # ties item 5 on timestamp, so it comes first
        (3, 7, 5.0, 50),
        (3, 7, 5.0, 50),  # a duplicate row is watched twice
        (3, 99, 2.0, 70),  # missing from the catalog, so skipped
    ]
    expected = [("Film 7", 1997), ("Film 7", 1997), ("Film 2", 1992), ("Film 5", 1995)]
    assert build_watch_history(Ratings.from_columns(*zip(*rows)), entries) == expected
    rng = np.random.default_rng(0)
    for _ in range(5):
        shuffled = zip(*(rows[i] for i in rng.permutation(len(rows))))
        assert build_watch_history(Ratings.from_columns(*shuffled), entries) == expected


class TestWokRecommender:
    def _setup(self, tmp_path, catalog_index):
        index, entries = catalog_index
        train = Ratings.from_columns([5, 5], [2, 4], [4.0, 5.0], [100, 200])
        request = RecRequest(user=5, profile=train)
        history = build_watch_history(train, entries)
        prompt = render_prompt(history, 3)
        completion = "1. The Matrix (1999)\n2. Heat (1995)\n3. Fargo (1996)\n"
        (tmp_path / f"{prompt_fingerprint(prompt)}.txt").write_text(completion)
        cfg = ProviderConfig(dialect="stub", fixtures_dir=str(tmp_path))
        return WokRecommender(cfg, index, entries), request

    def test_pipeline_deterministic_and_filters_watched(self, tmp_path, catalog_index):
        rec, request = self._setup(tmp_path, catalog_index)
        first = rec.recommend(request, 3)
        second = rec.recommend(request, 3)
        assert first == second
        assert first.slate.entries == (1, 3)  # Heat is already watched

    def test_batch_preserves_order(self, tmp_path, catalog_index):
        rec, request = self._setup(tmp_path, catalog_index)
        results = rec.recommend_batch([request, request, request], 3)
        assert all(r == results[0] for r in results)

    def test_user_without_catalogued_history_gets_empty_slate(self, tmp_path, catalog_index):
        rec, request = self._setup(tmp_path, catalog_index)
        uncatalogued = RecRequest(user=6, profile=Ratings.from_columns([6], [99], [3.0], [100]))
        results = rec.recommend_batch([request, uncatalogued], 3)
        assert results == [
            rec.recommend(request, 3),
            RecResult(slate=Slate(entries=())),
        ]
        # Rows 0-1 and 3 are the two users' training ratings, 2 and 4 their test items.
        table = Ratings.from_columns(
            [5, 5, 5, 6, 6], [2, 4, 3, 99, 1], [4.0, 5.0, 4.0, 3.0, 4.0], [100, 200, 300, 100, 300]
        )
        fold = [
            UserSplit(5, table, train_rows=np.array([0, 1]), test_rows=np.array([2])),
            UserSplit(6, table, train_rows=np.array([3]), test_rows=np.array([4])),
        ]
        phi = {1: 5.0, 2: 3.0, 3: 2.0, 4: 1.0, 99: 1.0}
        table = evaluate_recommender(
            rec, FoldInputs.of(fold, PhiArray.of(phi), ["log_pop_diff"]), 3
        )
        # User 6's empty slate leaves only log_pop_diff undefined, and hits nothing.
        assert {column: np.isnan(values).tolist() for column, values in table.items()} == {
            "hr5": [False, False],
            "hr10": [False, False],
            "log_pop_diff": [False, True],
            "unmatched": [False, False],
        }
        assert table["hr5"][1] == table["hr10"][1] == 0.0
        np.testing.assert_array_equal(table["unmatched"], [1, 3])

    def test_name_carries_variant(self, catalog_index):
        index, entries = catalog_index
        cfg = ProviderConfig(dialect="stub", model_name="m", fixtures_dir="/tmp")
        assert WokRecommender(cfg, index, entries).name == "wok-m"
        assert (
            WokRecommender(cfg, index, entries, PromptVariant.MINIMIZE).name
            == "wok-m-minimize"
        )


class TestBatchConcurrency:
    """A stub batch is one task on one pool thread; network batches overlap calls."""

    @staticmethod
    def _setup(n):
        # User i watched Film i; the reply to that user names Film i + n.
        entries = {i: CatalogEntry(i, f"Film {i}", 1990) for i in range(1, 2 * n + 1)}
        requests = [
            RecRequest(i, Ratings.from_columns([i], [i], [4.0], [0])) for i in range(1, n + 1)
        ]
        return TitleIndex.build(list(entries.values())), entries, requests

    @staticmethod
    def _write_stub_fixtures(fixtures, requests, entries, n):
        """One stub reply per request, naming Film user + n; returns the fingerprints."""
        fingerprints = []
        for request in requests:
            prompt = render_prompt(build_watch_history(request.profile, entries), 3)
            fingerprints.append(prompt_fingerprint(prompt))
            reply = f"1. Film {request.user + n} (1990)\n"
            (fixtures / f"{fingerprints[-1]}.txt").write_text(reply)
        return fingerprints

    @staticmethod
    def _record_stub_reads(monkeypatch):
        """(fingerprint, thread id) of every completion the recommender asks for."""
        reads = []
        complete = llm_gateway.complete_chat

        def recording(prompt, cfg):
            reads.append((prompt_fingerprint(prompt), threading.get_ident()))
            return complete(prompt, cfg)

        monkeypatch.setattr(llm_gateway, "complete_chat", recording)
        return reads

    def test_stub_batch_runs_on_one_worker_thread(self, tmp_path):
        n = 8
        index, entries, requests = self._setup(n)
        self._write_stub_fixtures(tmp_path, requests, entries, n)
        threads = []

        class Recording(WokRecommender):
            def recommend(self, request, k):
                threads.append(threading.get_ident())
                return super().recommend(request, k)

        cfg = ProviderConfig(dialect="stub", fixtures_dir=str(tmp_path), max_in_flight=4)
        results = Recording(cfg, index, entries).recommend_batch(requests, 3)
        assert [r.slate.entries for r in results] == [(user + n,) for user in range(1, n + 1)]
        assert len(threads) == n
        assert len(set(threads)) == 1
        assert threads[0] != threading.get_ident()

    def test_stub_batch_is_one_worker_task_in_request_order(self, tmp_path, monkeypatch):
        n = 6
        index, entries, requests = self._setup(n)
        fingerprints = self._write_stub_fixtures(tmp_path, requests, entries, n)
        reads = self._record_stub_reads(monkeypatch)
        tasks = []

        class Recording(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                tasks.append(fn)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(llm_gateway, "ThreadPoolExecutor", Recording)
        cfg = ProviderConfig(dialect="stub", fixtures_dir=str(tmp_path), max_in_flight=4)
        results = WokRecommender(cfg, index, entries).recommend_batch(requests, 3)
        assert [r.slate.entries for r in results] == [(user + n,) for user in range(1, n + 1)]
        assert len(tasks) == 1
        assert [fingerprint for fingerprint, _ in reads] == fingerprints
        assert len({thread for _, thread in reads}) == 1
        assert reads[0][1] != threading.get_ident()

    def test_stub_batch_stops_at_the_first_provider_error(self, tmp_path, monkeypatch):
        n = 6
        index, entries, requests = self._setup(n)
        fingerprints = self._write_stub_fixtures(tmp_path, requests, entries, n)
        (tmp_path / f"{fingerprints[2]}.txt").unlink()
        reads = self._record_stub_reads(monkeypatch)
        cfg = ProviderConfig(dialect="stub", fixtures_dir=str(tmp_path))
        with pytest.raises(ProviderError, match=f"no stub fixture for prompt {fingerprints[2]}"):
            WokRecommender(cfg, index, entries).recommend_batch(requests, 3)
        assert [fingerprint for fingerprint, _ in reads] == fingerprints[:3]

    @pytest.mark.parametrize("max_in_flight, n", [(4, 4), (8, 3), (2, 6)])
    def test_network_batch_overlaps_up_to_max_in_flight_calls(self, monkeypatch, max_in_flight, n):
        index, entries, requests = self._setup(n)
        width = min(max_in_flight, n)
        # Calls meet in waves of `width`; each wave finishes in reverse request order.
        barrier = threading.Barrier(width, timeout=10)
        done = [threading.Event() for _ in range(n)]
        lock = threading.Lock()
        in_flight = [0, 0]  # now, peak

        def post(url, json=None, **kwargs):
            i = int(re.search(r"Film (\d+)", json["messages"][0]["content"]).group(1)) - 1
            with lock:
                in_flight[0] += 1
                in_flight[1] = max(in_flight)
            barrier.wait()
            if (i + 1) % width and i + 1 < n:
                assert done[i + 1].wait(10)
            with lock:
                in_flight[0] -= 1
            done[i].set()
            reply = f"1. Film {i + 1 + n} (1990)\n"
            return _FakeResponse(200, {"choices": [{"message": {"content": reply}}]})

        monkeypatch.setenv("FAKE_KEY", "k")
        monkeypatch.setattr(requests_lib, "post", post)
        cfg = ProviderConfig(
            dialect="openai",
            endpoint="http://provider",
            api_key_env="FAKE_KEY",
            max_in_flight=max_in_flight,
        )
        results = WokRecommender(cfg, index, entries).recommend_batch(requests, 3)
        assert [r.slate.entries for r in results] == [(user + n,) for user in range(1, n + 1)]
        assert in_flight == [0, width]


def test_slot_tag_carries_item():
    tag = SlotTag(ValidityTag.VALID, item=9)
    assert tag.item == 9

import requests as requests_lib
import pytest

from popbias.catalog import CatalogEntry, Interaction, TitleIndex
from popbias.llm_gateway import (
    MAX_HISTORY_TITLES,
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
        assert result.unmatched_count == 4

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
        assert len(result.slate.entries) == 4
        assert result.unmatched_count == 6

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
        assert result.unmatched_count == 2

    def test_unmatched_bounded_by_k(self, catalog_index):
        index, _ = catalog_index
        parsed = parse_recommendations("")
        result = validate_and_resolve(parsed, set(), index, requested_k=10)
        assert result.unmatched_count == 10

    def test_slate_truncated_to_k(self, catalog_index):
        index, _ = catalog_index
        parsed = parse_recommendations(
            "1. The Matrix (1999)\n2. Heat (1995)\n3. Fargo (1996)"
        )
        result = validate_and_resolve(parsed, set(), index, requested_k=2)
        assert len(result.slate.entries) == 2
        assert result.unmatched_count == 0


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
        monkeypatch.setattr("popbias.llm_gateway.requests.post", raise_timeout)
        cfg = ProviderConfig(
            dialect="openai", endpoint="http://x", api_key_env="FAKE_KEY", retries=0
        )
        with pytest.raises(TransportError, match="1 attempts"):
            complete_chat("p", cfg)

    def test_401_names_authentication(self, monkeypatch):
        monkeypatch.setenv("FAKE_KEY", "k")
        monkeypatch.setattr(
            "popbias.llm_gateway.requests.post",
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
        monkeypatch.setattr("popbias.llm_gateway.requests.post", flaky)
        monkeypatch.setattr("popbias.llm_gateway.time.sleep", lambda s: None)
        cfg = ProviderConfig(
            dialect="openai", endpoint="http://x", api_key_env="FAKE_KEY", retries=2
        )
        assert complete_chat("p", cfg) == "1. Heat (1995)"
        assert len(calls) == 2

    def test_openai_payload_shape(self, monkeypatch):
        seen = {}

        def capture(url, json=None, headers=None, timeout=None):
            seen.update(url=url, json=json, headers=headers)
            return _FakeResponse(200, body={"choices": [{"message": {"content": "ok"}}]})

        monkeypatch.setenv("FAKE_KEY", "secret")
        monkeypatch.setattr("popbias.llm_gateway.requests.post", capture)
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
        monkeypatch.setattr("popbias.llm_gateway.requests.post", capture)
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
        with pytest.raises(ProviderError, match="dialect"):
            complete_chat("p", ProviderConfig(dialect="telnet"))


def test_build_watch_history_orders_by_timestamp():
    entries = {
        1: CatalogEntry(1, "First", 1990),
        2: CatalogEntry(2, "Second", 1991),
    }
    train = (Interaction(9, 2, 4.0, 200), Interaction(9, 1, 3.0, 100))
    assert build_watch_history(train, entries) == [("First", 1990), ("Second", 1991)]


class TestWokRecommender:
    def _setup(self, tmp_path, catalog_index):
        index, entries = catalog_index
        train = (Interaction(5, 2, 4.0, 100), Interaction(5, 4, 5.0, 200))
        request = RecRequest(user=5, train=train, exclude=frozenset({2, 4}))
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
        assert first.unmatched == 1

    def test_batch_preserves_order(self, tmp_path, catalog_index):
        rec, request = self._setup(tmp_path, catalog_index)
        results = rec.recommend_batch([request, request, request], 3)
        assert all(r == results[0] for r in results)

    def test_user_without_catalogued_history_gets_empty_slate(self, tmp_path, catalog_index):
        rec, request = self._setup(tmp_path, catalog_index)
        uncatalogued = RecRequest(
            user=6, train=(Interaction(6, 99, 3.0, 100),), exclude=frozenset({99})
        )
        results = rec.recommend_batch([request, uncatalogued], 3)
        assert results == [
            rec.recommend(request, 3),
            RecResult(slate=Slate(entries=(), requested_k=3), unmatched=3),
        ]
        fold = [
            UserSplit(user=5, train=request.train, test_items=frozenset({3})),
            UserSplit(user=6, train=uncatalogued.train, test_items=frozenset({1})),
        ]
        phi = {1: 5.0, 2: 3.0, 3: 2.0, 4: 1.0, 99: 1.0}
        stats = evaluate_recommender(
            rec, FoldInputs.of(fold), PhiArray.of(phi), ["log_pop_diff"], k=3
        )
        assert stats.empty_slates == 1
        assert stats.bias_excluded == {"log_pop_diff": 1}
        assert stats.unmatched == (1 + 3) / 2

    def test_name_carries_variant(self, catalog_index):
        index, entries = catalog_index
        cfg = ProviderConfig(dialect="stub", model_name="m", fixtures_dir="/tmp")
        assert WokRecommender(cfg, index, entries).name == "wok-m"
        assert (
            WokRecommender(cfg, index, entries, PromptVariant.MINIMIZE).name
            == "wok-m-minimize"
        )


def test_slot_tag_carries_item():
    tag = SlotTag(ValidityTag.VALID, item=9)
    assert tag.item == 9

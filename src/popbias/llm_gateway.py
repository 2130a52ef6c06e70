"""Prompt-driven movie recommender backed by a chat-completion provider.

The pipeline: render a watch-history prompt, call the provider, parse the
free-text numbered list, then resolve and validate every line against the
catalog. Two HTTPS dialects are supported plus a filesystem stub that
replays canned completions keyed by a prompt hash, which keeps the whole
pipeline deterministic in tests and offline runs. ``requests`` is imported
on the first call of a real dialect only, so stub runs never load it. A batch
overlaps network round trips on up to ``max_in_flight`` threads, one task per
request; the stub, whose requests hold the GIL throughout, hands the whole
batch to one worker thread as a single task, which replays the requests in
order and stops at the first ``ProviderError``.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import time
from collections.abc import Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING

from popbias.catalog import CatalogEntry, Ratings, TitleIndex
from popbias.recommenders import BaseRecommender, RecRequest, RecResult, Slate

if TYPE_CHECKING:
    import requests

__all__ = [
    "DIALECTS",
    "PromptVariant",
    "ProviderConfig",
    "ProviderError",
    "TransportError",
    "ParsedRec",
    "ParsedCompletion",
    "ValidityTag",
    "SlotTag",
    "ValidationResult",
    "render_prompt",
    "prompt_fingerprint",
    "complete_chat",
    "parse_recommendations",
    "validate_and_resolve",
    "build_watch_history",
    "WokRecommender",
]

DIALECTS = ("stub", "openai", "anthropic")
MAX_HISTORY_TITLES = 50
MAX_RELEASE_YEAR = 2008

BASE_TEMPLATE = """\
You are a helpful movie-expert AI tasked with recommending a collection of movies based on a user's watch history. The user has watched the following movies in the past:
{watch_history}

# Output instructions
- Immediately start with the movies. Do not provide an introduction.
- Provide a list of {nr_items} movies.
- For each movie, start a new line, indicate the position in the movie list (that is, 1., 2., ...).
- Name the title of the movie (without quotation marks!) and then in parentheses the release year.
- Do not recommend movies that the user has already watched. Those are the ones listed above.
- Do not recommend movies that are newer than {max_release_year}.

Now create the movie list!"""

MITIGATE_INSTRUCTION = (
    "Recommend movies that match the average popularity level of the movies "
    "the user watched in the past. For instance, if the user mostly watched "
    "blockbusters, you should recommend movies that are also blockbusters. "
    "If, on the other hand, the user watched less well-known movies, you "
    "should recommend niche movies."
)

MINIMIZE_INSTRUCTION = (
    "Recommend indie, niche, or less well-known movies, avoiding mainstream "
    "blockbusters."
)


class PromptVariant(Enum):
    BASE = "base"
    MITIGATE = "mitigate"
    MINIMIZE = "minimize"


class ProviderError(RuntimeError):
    """Provider returned a non-success response."""


class TransportError(ProviderError):
    """Request never produced a response (timeouts, connection failures)."""


@dataclass(frozen=True)
class ProviderConfig:
    """Connection and decoding settings for one chat-completion backend.

    The API key is read from the environment variable named by
    ``api_key_env`` at call time and never stored or logged. ``top_k`` is
    only sent on dialects that accept it. ``max_in_flight`` bounds the
    provider calls one batch has open at once on a network dialect; the stub
    replays a batch as one task on one worker whatever its value, and stops
    at the first ``ProviderError``.
    """

    dialect: str = "stub"  # one of DIALECTS
    endpoint: str = ""
    model_name: str = "stub-model"
    api_key_env: str = ""
    temperature: float = 0.0
    top_p: float = 1.0
    top_k: int | None = 250
    max_tokens: int = 1024
    max_in_flight: int = 4
    timeout: float = 60.0
    retries: int = 2
    backoff: float = 0.5
    fixtures_dir: str = ""

    def __post_init__(self) -> None:
        if self.dialect not in DIALECTS:
            raise ValueError(f"dialect must be one of: {', '.join(DIALECTS)}")
        if type(self.max_in_flight) is not int or self.max_in_flight < 1:
            raise ValueError("max_in_flight must be an integer >= 1")
        if type(self.retries) is not int or self.retries < 0:
            raise ValueError("retries must be an integer >= 0")
        if type(self.backoff) not in (int, float) or not 0 <= self.backoff < math.inf:
            raise ValueError("backoff must be a number >= 0")
        if type(self.timeout) not in (int, float) or not 0 < self.timeout < math.inf:
            raise ValueError("timeout must be a number > 0")
        if type(self.temperature) not in (int, float) or not 0 <= self.temperature < math.inf:
            raise ValueError("temperature must be a number >= 0")
        if type(self.top_p) not in (int, float) or not 0 < self.top_p <= 1:
            raise ValueError("top_p must be a number in (0, 1]")
        if self.top_k is not None and (type(self.top_k) is not int or self.top_k < 1):
            raise ValueError("top_k must be null or an integer >= 1")
        if type(self.max_tokens) is not int or self.max_tokens < 1:
            raise ValueError("max_tokens must be an integer >= 1")


def render_prompt(
    history: Sequence[tuple[str, int]], k: int, variant: PromptVariant = PromptVariant.BASE
) -> str:
    """Fill the recommendation prompt with a watch history and list size.

    Only the most recent ``MAX_HISTORY_TITLES`` history entries are kept.
    The mitigate/minimize variants append their extra instruction at the
    end of the prompt.
    """
    if not history:
        raise ValueError("watch history must be non-empty")
    if k < 1:
        raise ValueError("k must be >= 1")
    recent = list(history)[-MAX_HISTORY_TITLES:]
    watch_history = "\n".join(f"{title} ({year})" for title, year in recent)
    prompt = BASE_TEMPLATE.format(
        watch_history=watch_history, nr_items=k, max_release_year=MAX_RELEASE_YEAR
    )
    if variant is PromptVariant.MITIGATE:
        prompt = f"{prompt}\n\n{MITIGATE_INSTRUCTION}"
    elif variant is PromptVariant.MINIMIZE:
        prompt = f"{prompt}\n\n{MINIMIZE_INSTRUCTION}"
    return prompt


def prompt_fingerprint(prompt: str) -> str:
    """Stable hash used as the stub fixture filename for a prompt."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:16]


def _api_key(cfg: ProviderConfig) -> str:
    if not cfg.api_key_env:
        raise ProviderError(f"no api_key_env configured for dialect {cfg.dialect!r}")
    key = os.environ.get(cfg.api_key_env, "")
    if not key:
        raise ProviderError(f"environment variable {cfg.api_key_env} is not set")
    return key


def _request_payload(prompt: str, cfg: ProviderConfig) -> tuple[dict, dict]:
    if cfg.dialect == "openai":
        headers = {"Authorization": f"Bearer {_api_key(cfg)}"}
        payload = {
            "model": cfg.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": cfg.temperature,
            "top_p": cfg.top_p,
        }
        return headers, payload
    headers = {"x-api-key": _api_key(cfg), "anthropic-version": "2023-06-01"}
    payload = {
        "model": cfg.model_name,
        "max_tokens": cfg.max_tokens,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": cfg.temperature,
        "top_p": cfg.top_p,
    }
    if cfg.top_k is not None:
        payload["top_k"] = cfg.top_k
    return headers, payload


def _extract_text(cfg: ProviderConfig, response: requests.Response) -> str:
    """The reply text of a 200 response; ``ProviderError`` when the body has none."""
    try:
        body = response.json()
    except ValueError:
        raise ProviderError("malformed provider response: body is not JSON") from None
    try:
        if cfg.dialect == "openai":
            text = body["choices"][0]["message"]["content"]
        else:
            text = body["content"][0]["text"]
    except (KeyError, IndexError, TypeError) as exc:
        raise ProviderError(f"malformed provider response: missing {exc}") from None
    if not isinstance(text, str):
        raise ProviderError(
            f"malformed provider response: content is {type(text).__name__}, not text"
        )
    return text


_RETRYABLE_STATUS = {429, 500, 502, 503, 504}


def complete_chat(prompt: str, cfg: ProviderConfig) -> str:
    """Send one single-turn completion request and return the reply text.

    Transient failures (connection errors, timeouts, retryable statuses)
    are retried with exponential backoff up to ``cfg.retries`` times. Any
    other failure to send the request, such as a malformed endpoint, is a
    ``ProviderError`` at once.
    """
    if cfg.dialect == "stub":
        fingerprint = prompt_fingerprint(prompt)
        try:
            return (Path(cfg.fixtures_dir) / f"{fingerprint}.txt").read_text(encoding="utf-8")
        except FileNotFoundError:
            raise ProviderError(f"no stub fixture for prompt {fingerprint}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise ProviderError(f"unreadable stub fixture {fingerprint}: {exc}") from None

    import requests

    headers, payload = _request_payload(prompt, cfg)
    last_error: Exception | None = None
    for attempt in range(cfg.retries + 1):
        if attempt:
            time.sleep(cfg.backoff * 2 ** (attempt - 1))
        try:
            response = requests.post(
                cfg.endpoint, json=payload, headers=headers, timeout=cfg.timeout
            )
        except (requests.ConnectionError, requests.Timeout) as exc:
            last_error = exc
            continue
        except requests.RequestException as exc:  # a bad URL or request: retrying cannot help
            raise ProviderError(f"request to endpoint {cfg.endpoint!r} failed: {exc}") from None
        if response.status_code == 200:
            return _extract_text(cfg, response)
        excerpt = response.text[:200]
        if response.status_code in _RETRYABLE_STATUS:
            last_error = ProviderError(
                f"status {response.status_code} from provider: {excerpt}"
            )
            continue
        detail = "authentication failed" if response.status_code in (401, 403) else "request rejected"
        raise ProviderError(
            f"{detail}: status {response.status_code} from provider: {excerpt}"
        )
    if isinstance(last_error, ProviderError):
        raise last_error
    raise TransportError(f"provider unreachable after {cfg.retries + 1} attempts: {last_error}")


@dataclass(frozen=True)
class ParsedRec:
    position: int
    title: str
    year: int


@dataclass(frozen=True)
class ParsedCompletion:
    recs: tuple[ParsedRec, ...]
    malformed: tuple[str, ...]


# "N. Title (YYYY)" or "N) Title (YYYY)", tolerating trailing commentary.
# The title starts with a non-space, so "N.  (YYYY)" is malformed.
_REC_LINE_RE = re.compile(r"^\s*(?P<pos>\d+)[.)]\s*(?P<title>\S.*?)\s*\((?P<year>\d{4})\)")
_NUMBERED_PREFIX_RE = re.compile(r"^\s*\d+[.)]")


def parse_recommendations(text: str) -> ParsedCompletion:
    """Extract ``N. Title (Year)`` lines from a completion.

    Unnumbered preamble lines are skipped silently; anything else that
    fails to parse (missing year, broken numbering, post-list chatter) is
    recorded as malformed.
    """
    recs: list[ParsedRec] = []
    malformed: list[str] = []
    last_position = 0
    for line in text.splitlines():
        if not line.strip():
            continue
        m = _REC_LINE_RE.match(line)
        if m:
            position = int(m.group("pos"))
            if position <= last_position:
                malformed.append(line)
                continue
            last_position = position
            recs.append(
                ParsedRec(position=position, title=m.group("title"), year=int(m.group("year")))
            )
        elif _NUMBERED_PREFIX_RE.match(line):
            malformed.append(line)
        elif recs or malformed:
            malformed.append(line)
        # else: preamble before the first numbered line, ignored
    return ParsedCompletion(recs=tuple(recs), malformed=tuple(malformed))


class ValidityTag(Enum):
    VALID = "valid"
    ALREADY_WATCHED = "already_watched"
    TOO_NEW = "too_new"
    UNMATCHED = "unmatched"
    MALFORMED = "malformed"


@dataclass(frozen=True)
class SlotTag:
    tag: ValidityTag
    item: int | None = None


@dataclass(frozen=True)
class ValidationResult:
    slate: Slate
    tags: tuple[SlotTag, ...]


def validate_and_resolve(
    parsed: ParsedCompletion,
    watched: frozenset[int] | set[int],
    index: TitleIndex,
    requested_k: int,
) -> ValidationResult:
    """Resolve parsed recommendations against the catalog and tag each slot.

    Tag priority per slot: malformed, then too-new (year past the allowed
    range), unmatched, already watched, valid. Duplicate valid titles keep
    the first occurrence; later copies are tagged malformed.
    """
    tags: list[SlotTag] = []
    valid_items: list[int] = []
    seen: set[int] = set()
    for rec in parsed.recs:
        if rec.year > MAX_RELEASE_YEAR:
            tags.append(SlotTag(ValidityTag.TOO_NEW))
            continue
        item = index.resolve(rec.title, rec.year)
        if item is None:
            tags.append(SlotTag(ValidityTag.UNMATCHED))
        elif item in watched:
            tags.append(SlotTag(ValidityTag.ALREADY_WATCHED, item=item))
        elif item in seen:
            tags.append(SlotTag(ValidityTag.MALFORMED, item=item))
        else:
            seen.add(item)
            valid_items.append(item)
            tags.append(SlotTag(ValidityTag.VALID, item=item))
    tags.extend(SlotTag(ValidityTag.MALFORMED) for _ in parsed.malformed)
    slate = Slate(entries=tuple(valid_items[:requested_k]))
    return ValidationResult(slate=slate, tags=tuple(tags))


def build_watch_history(
    profile: Ratings, entries: Mapping[int, CatalogEntry]
) -> list[tuple[str, int]]:
    """Chronological (title, year) history of one user's catalogued training items.

    The profile is read in row order, the (timestamp, item) order of every
    table ``Ratings.from_columns`` makes.
    """
    found = map(entries.get, profile.item.tolist())
    return [(entry.title, entry.year) for entry in found if entry is not None]


class WokRecommender(BaseRecommender):
    """World-knowledge recommender: prompt, complete, parse, resolve.

    A batch runs off the caller's thread. On a network dialect each request
    is its own task on up to ``cfg.max_in_flight`` workers, and results are
    joined back to their requests by position regardless of completion
    order. On the stub the whole batch is one task on one worker, which
    replays the requests in order and stops at the first ``ProviderError``;
    the caller wakes once per batch.
    """

    def __init__(
        self,
        cfg: ProviderConfig,
        index: TitleIndex,
        entries: Mapping[int, CatalogEntry],
        variant: PromptVariant = PromptVariant.BASE,
    ):
        self.cfg = cfg
        self.index = index
        self.entries = entries
        self.variant = variant
        suffix = "" if variant is PromptVariant.BASE else f"-{variant.value}"
        self.name = f"wok-{cfg.model_name}{suffix}"

    def recommend(self, request: RecRequest, k: int) -> RecResult:
        """One user's slate of at most ``k`` valid items. The evaluation counts
        each slot no valid item fills as unmatched, so short completions are
        penalized too. A user with no catalogued training item has no prompt
        and gets an empty slate."""
        slate = Slate(entries=())
        history = build_watch_history(request.profile, self.entries)
        if history:
            text = complete_chat(render_prompt(history, k, self.variant), self.cfg)
            parsed = parse_recommendations(text)
            # Validation tags every watched (profile) item and keeps it off the slate.
            slate = validate_and_resolve(parsed, request.exclude, self.index, k).slate
        return RecResult(slate=slate)

    def recommend_batch(self, requests: Sequence[RecRequest], k: int) -> list[RecResult]:
        if not requests:
            return []
        if self.cfg.dialect == "stub":
            with ThreadPoolExecutor(max_workers=1) as pool:
                return pool.submit(lambda: [self.recommend(r, k) for r in requests]).result()
        workers = min(self.cfg.max_in_flight, len(requests))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda r: self.recommend(r, k), requests))

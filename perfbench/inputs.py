"""Workload inputs: synthetic corpora and canned stub-provider completions.

Everything here is a pure function of (workload, seed) plus the code under
``src/`` and ``tests/synthdata.py`` in the same checkout. Generated files are
cached under ``.perfbench_work/`` so repeated runs of one seed skip the
generation step; the run re-hashes every input it uses, cached or not.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORK_DIR = Path(".perfbench_work")
DIGESTS_FILE = Path(__file__).with_name("digests.json")

# Line categories of a canned completion and the validity tag each must get.
LINE_KINDS = ("exact", "year_off", "typo", "too_new", "watched", "not_in_catalog")
LINE_PROBS = (0.45, 0.10, 0.15, 0.10, 0.10, 0.10)
EXPECTED_TAG = {
    "exact": "valid",
    "year_off": "valid",
    "typo": "valid",
    "too_new": "too_new",
    "watched": "already_watched",
    "not_in_catalog": "unmatched",
    "broken_numbering": "malformed",
}
NUMBERED_LINES = 12
EXPECTED_FILE = "expected.json"
_FAKE_WORDS = ("Phantom", "Imaginary", "Unlisted", "Nameless", "Forgotten", "Hidden", "Silent")
_FAKE_NOUNS = ("Picture", "Feature", "Screening", "Reel", "Matinee", "Premiere")


@dataclass(frozen=True)
class Corpus:
    movies: Path
    ratings: Path


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _atomic_dir(final: Path, build) -> Path:
    """Build a directory under a temporary name and rename it into place."""
    if final.is_dir():
        return final
    tmp = final.with_name(final.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        build(tmp)
        os.replace(tmp, final)
    except OSError:
        if not final.is_dir():  # else a concurrent run built it first
            raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def corpus(name: str, seed: int, params: dict) -> Corpus:
    """Write (or reuse) the MovieLens-format corpus for one corpus seed."""
    sys.path.insert(0, "tests")
    try:
        from synthdata import make_corpus, write_corpus
    finally:
        sys.path.remove("tests")

    def build(d: Path) -> None:
        movies, ratings = make_corpus(seed=seed, **params)
        write_corpus(d, movies, ratings)

    d = _atomic_dir(WORK_DIR / "corpus" / f"{name}-{seed}", build)
    return Corpus(movies=d / "movies.dat", ratings=d / "ratings.dat")


def _typo(title: str, rng: np.random.Generator) -> str:
    """Replace one letter of the leading words with a different letter.

    Synthetic titles differ only in their number, so a typo in the words keeps
    the intended title the unique nearest match within edit distance 2.
    """
    letters = [i for i, ch in enumerate(title[:17]) if ch.isalpha()]
    pos = letters[int(rng.integers(len(letters)))]
    old = title[pos].lower()
    new = "abcdefghijklmnopqrstuvwxyz".replace(old, "")[int(rng.integers(25))]
    return title[:pos] + (new.upper() if title[pos].isupper() else new) + title[pos + 1 :]


def _fake_title(rng: np.random.Generator) -> str:
    word = _FAKE_WORDS[int(rng.integers(len(_FAKE_WORDS)))]
    noun = _FAKE_NOUNS[int(rng.integers(len(_FAKE_NOUNS)))]
    return f"{word} {noun} No {int(rng.integers(10000)):04d}"


def plan_reply(seed, user, entries, catalog_ids, watched_ids):
    """Draw one user's canned reply: (text, expected tags in parse order, line kinds).

    The reply depends only on (seed, user) and the catalog: a preamble, 12
    numbered lines of the kinds in LINE_KINDS, and one line whose number
    repeats an earlier one. Lines that resolve to catalog items name distinct
    items, so no valid title is a duplicate.
    """
    rng = np.random.default_rng([seed, user, 7])
    kinds = [LINE_KINDS[i] for i in rng.choice(len(LINE_KINDS), NUMBERED_LINES, p=LINE_PROBS)]
    unseen = np.setdiff1d(catalog_ids, watched_ids)
    n_unseen = sum(k in ("exact", "year_off", "typo") for k in kinds)
    n_watched = kinds.count("watched")
    fresh = iter(rng.choice(unseen, n_unseen, replace=False))
    seen = iter(rng.choice(watched_ids, n_watched, replace=False))

    lines: list[str] = []
    for kind in kinds:
        if kind == "watched":
            e = entries[int(next(seen))]
            title, year = e.title, e.year
        elif kind == "too_new":
            e = entries[int(rng.choice(catalog_ids))]
            title, year = e.title, 2009 + int(rng.integers(16))
        elif kind == "not_in_catalog":
            title, year = _fake_title(rng), 1931 + int(rng.integers(76))
        else:
            e = entries[int(next(fresh))]
            title, year = e.title, e.year
            if kind == "year_off":
                year += 1 if rng.random() < 0.5 else -1
            elif kind == "typo":
                title = _typo(title, rng)
        lines.append(f"{title} ({year})")

    broken_after = int(rng.integers(2, NUMBERED_LINES + 1))
    broken_pos = int(rng.integers(1, broken_after + 1))
    e = entries[int(rng.choice(catalog_ids))]
    body = ["Sure! Based on this watch history, here are my picks:", ""]
    for pos, line in enumerate(lines, start=1):
        body.append(f"{pos}. {line}")
        if pos == broken_after:
            body.append(f"{broken_pos}. {e.title} ({e.year})")
    expected = [EXPECTED_TAG[k] for k in kinds] + [EXPECTED_TAG["broken_numbering"]]
    return "\n".join(body) + "\n", expected, kinds


def stub_fixtures(name: str, seed: int, data: Corpus, fold_spec: dict, k: int):
    """Write one canned completion per fold user, keyed like the stub provider.

    Returns (fixtures_dir, {user: expected tags}, share of numbered lines that
    are not exact catalog titles).
    """

    def build(d: Path) -> None:
        from popbias import catalog as cat
        from popbias import evaluation as ev
        from popbias.llm_gateway import (
            PromptVariant,
            build_watch_history,
            prompt_fingerprint,
            render_prompt,
        )

        entries, _ = cat.read_movies_file(data.movies)
        interactions, _ = cat.read_ratings_file(data.ratings)
        by_id = {e.item: e for e in entries}
        catalog_ids = np.array(sorted(by_id), dtype=np.int64)
        plan = ev.make_folds(interactions, ev.FoldSpec(**fold_spec))
        expected: dict[str, list[str]] = {}
        kinds_seen: list[str] = []
        for fold in plan.folds:
            for split in fold:
                history = build_watch_history(split.train, by_id)
                path = d / f"{prompt_fingerprint(render_prompt(history, k, PromptVariant.BASE))}.txt"
                if path.exists():
                    raise RuntimeError(f"two fold users share the prompt key {path.stem}")
                watched = np.array(sorted({it.item for it in split.train}), dtype=np.int64)
                text, expected[str(split.user)], kinds = plan_reply(
                    seed, split.user, by_id, catalog_ids, watched
                )
                path.write_text(text, encoding="utf-8")
                kinds_seen.extend(kinds)
        nonexact = sum(kind != "exact" for kind in kinds_seen) / len(kinds_seen)
        meta = {"expected_tags": expected, "nonexact_frac": nonexact}
        (d / EXPECTED_FILE).write_text(json.dumps(meta), encoding="utf-8")

    d = _atomic_dir(WORK_DIR / "fixtures" / f"{name}-{seed}", build)
    meta = json.loads((d / EXPECTED_FILE).read_text(encoding="utf-8"))
    expected = {int(u): tags for u, tags in meta["expected_tags"].items()}
    return d, expected, meta["nonexact_frac"]


def fixtures_digest(d: Path) -> str:
    """One digest over every fixture file name and content, in name order."""
    h = hashlib.sha256()
    for path in sorted(d.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check_digests(workload: str, seed: int, digests: dict[str, str]) -> list[str]:
    """Compare input digests with the pinned table; an unpinned seed passes."""
    pinned = json.loads(DIGESTS_FILE.read_text()).get(workload, {}).get(str(seed))
    if pinned is None:
        return []
    return [
        f"{workload} seed {seed}: {name} digest {digests.get(name)} != pinned {want}"
        for name, want in pinned.items()
        if digests.get(name) != want
    ]

"""Run one ``popbias`` command with boundary hooks and write what they saw.

Usage::

    python3 perfbench/child.py --stats FILE --mode {plain,setup,trace} -- ARGS...

``ARGS`` are passed to the ``popbias`` click group exactly as the console
script would pass them. Every hook wraps a public function at the name its
caller looks up (``popbias.evaluation.make_folds``,
``popbias.cli.build_item_knn``, ``TitleIndex.resolve``, ...); no code under
``src/`` is changed.

Modes:

* ``plain``: the end-to-end run. Only three cheap hooks are installed: a
  time stamp on the return of ``make_folds`` (the end of set-up), slate
  accounting and checks at each ``recommend_batch`` boundary, and a copy of
  the validity tags that ``validate_and_resolve`` returns.
* ``setup``: as ``plain`` but the process stops once the fold plan exists.
* ``trace``: ``plain`` plus a span at every layer boundary. Spans keep their
  thread id and the name of the span that was open on the same thread.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import threading
import time

# Boundaries called once per item: aggregated in place instead of kept as spans.
AGGREGATED = ("catalog.resolve", "metrics.")


class SetupDone(Exception):
    """Raised from the make_folds hook in setup mode to stop the command."""


class Recorder:
    """Spans, aggregates and slate accounting of one process."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.lock = threading.Lock()
        self.local = threading.local()
        self.main_tid = threading.get_ident()
        self.spans: list[tuple[str, int, str | None, float, float, bool]] = []
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, errors, hits]
        self.counts: dict[str, int] = {}
        self.stats: dict = {"recs": {}, "violations": [], "violation_count": 0, "tags": {}}
        self.plan = None

    def violation(self, message: str) -> None:
        """Record a broken slate contract; the first ten messages are kept."""
        self.stats["violation_count"] += 1
        if len(self.stats["violations"]) < 10:
            self.stats["violations"].append(message)

    def count(self, name: str, n: int = 1) -> None:
        with self.lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def call(self, name, fn, args, kwargs, hit=None):
        """Call fn inside a span named name; hit(result) marks a useful outcome."""
        if not self.trace:
            return fn(*args, **kwargs)
        stack = self.local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        stack.append(name)
        failed = False
        t0 = time.monotonic()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException:
            failed = True
            raise
        finally:
            t1 = time.monotonic()
            stack.pop()
            if name.startswith(AGGREGATED):
                with self.lock:
                    tot = self.totals.setdefault(name, [0, 0.0, 0, 0])
                    tot[0] += 1
                    tot[1] += t1 - t0
                    tot[2] += failed
                    tot[3] += (not failed) and hit is not None and hit(result)
            else:
                self.spans.append((name, threading.get_ident(), parent, t0, t1, failed))


def _wrap(owner, attr, make):
    """Replace owner.attr by make(original), keeping classmethod binding."""
    static = inspect.getattr_static(owner, attr)
    if isinstance(static, classmethod):
        setattr(owner, attr, classmethod(make(static.__func__)))
    else:
        setattr(owner, attr, make(static))


def _spanned(rec: Recorder, name: str, hit=None):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return rec.call(name, fn, args, kwargs, hit)

        return wrapper

    return make


def install(rec: Recorder, mode: str) -> None:
    import popbias.cli as cli
    from popbias import catalog, evaluation, llm_gateway, recommenders
    from popbias.llm_gateway import ProviderError, WokRecommender

    # End of set-up: the fold plan exists.
    def make_folds(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            plan = rec.call("evaluation.make_folds", fn, args, kwargs)
            rec.stats["t_folds"] = time.monotonic()
            rec.stats["fold_users"] = sum(len(f) for f in plan.folds)
            rec.stats["users_skipped"] = len(plan.skipped)
            rec.plan = plan
            if mode == "setup":
                raise SetupDone
            return plan

        return wrapper

    _wrap(evaluation, "make_folds", make_folds)

    # Slate accounting and checks at the recommend_batch boundary.
    def recommend_batch(fn):
        @functools.wraps(fn)
        def wrapper(self, requests, k):
            key = "wok" if isinstance(self, WokRecommender) else self.name
            acc = rec.stats["recs"].setdefault(
                key,
                {"requests": 0, "slates": 0, "empty": 0, "short": 0, "filled": 0, "raised": 0},
            )
            acc["requests"] += len(requests)
            try:
                results = rec.call(f"recommenders.{key}.recommend_batch", fn, (self, requests, k), {})
            except Exception:
                acc["raised"] += len(requests)
                raise
            if len(results) != len(requests):
                rec.violation(f"{key}: {len(results)} results for {len(requests)} requests")
            for request, result in zip(requests, results):
                entries = result.slate.entries
                acc["slates"] += 1
                acc["filled"] += len(entries)
                acc["empty"] += not entries
                acc["short"] += 0 < len(entries) < k
                if len(set(entries)) != len(entries):
                    rec.violation(f"{key} user {request.user}: duplicate items")
                if request.exclude.intersection(entries):
                    rec.violation(f"{key} user {request.user}: training items")
                if len(entries) > k:
                    rec.violation(f"{key} user {request.user}: more than k={k} items")
            return results

        return wrapper

    _wrap(recommenders.BaseRecommender, "recommend_batch", recommend_batch)
    _wrap(WokRecommender, "recommend_batch", recommend_batch)

    # Validity tags per user, keyed back to the user by the watched set.
    user_by_watched: dict[frozenset, int] = {}

    def validate(fn):
        @functools.wraps(fn)
        def wrapper(parsed, watched, index, requested_k):
            result = rec.call("llm_gateway.validate_and_resolve", fn, (parsed, watched, index, requested_k), {})
            with rec.lock:
                if not user_by_watched:
                    for fold in rec.plan.folds:
                        for split in fold:
                            user_by_watched[frozenset(it.item for it in split.train)] = split.user
                rec.stats["tags"][user_by_watched.get(watched, -1)] = [t.tag.value for t in result.tags]
            return result

        return wrapper

    _wrap(llm_gateway, "validate_and_resolve", validate)

    if mode != "trace":
        return

    def on_parse(name):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                parsed, issues = rec.call(name, fn, args, kwargs)
                rec.count("catalog.parse_issues", len(issues))
                if name == "catalog.read_ratings_file":
                    rec.count("catalog.ratings_parsed", len(parsed))
                return parsed, issues

            return wrapper

        return make

    _wrap(catalog, "read_movies_file", on_parse("catalog.read_movies_file"))
    _wrap(catalog, "read_ratings_file", on_parse("catalog.read_ratings_file"))
    _wrap(catalog, "compute_popularity", _spanned(rec, "catalog.compute_popularity"))
    _wrap(catalog.TitleIndex, "build", _spanned(rec, "catalog.TitleIndex.build"))
    _wrap(catalog.TitleIndex, "resolve", _spanned(rec, "catalog.resolve", hit=lambda item: item is not None))

    def levenshtein(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.count("catalog.levenshtein_calls")
            return fn(*args, **kwargs)

        return wrapper

    _wrap(catalog, "levenshtein", levenshtein)

    _wrap(recommenders.RatingMatrix, "from_interactions", _spanned(rec, "recommenders.matrix_build"))
    _wrap(cli, "build_item_knn", _spanned(rec, "recommenders.item_knn_build"))
    _wrap(cli, "build_user_knn", _spanned(rec, "recommenders.user_knn_build"))
    _wrap(evaluation, "evaluate_recommender", _spanned(rec, "evaluation.evaluate_recommender"))

    def evaluate_metric(fn):
        @functools.wraps(fn)
        def wrapper(metric_id, *args, **kwargs):
            return rec.call(f"metrics.{metric_id}", fn, (metric_id, *args), kwargs)

        return wrapper

    _wrap(evaluation, "evaluate_metric", evaluate_metric)
    for name in ("summarize", "emit_report", "build_manifest"):
        _wrap(evaluation, name, _spanned(rec, f"evaluation.{name}"))

    for name in ("build_watch_history", "render_prompt", "parse_recommendations"):
        _wrap(llm_gateway, name, _spanned(rec, f"llm_gateway.{name}"))

    def complete_chat(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return rec.call("llm_gateway.complete_chat", fn, args, kwargs)
            except ProviderError:
                rec.count("llm_gateway.provider_errors")
                raise

        return wrapper

    _wrap(llm_gateway, "complete_chat", complete_chat)
    _wrap(WokRecommender, "recommend", _spanned(rec, "llm_gateway.recommend"))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats", required=True, help="write the JSON stats here")
    parser.add_argument("--mode", choices=("plain", "setup", "trace"), required=True)
    parser.add_argument("args", nargs=argparse.REMAINDER, help="-- then popbias arguments")
    opts = parser.parse_args(argv)
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args

    rec = Recorder(trace=opts.mode == "trace")
    t0 = time.monotonic()
    import popbias.cli

    if rec.trace:
        rec.spans.append(("cli.import", rec.main_tid, None, t0, time.monotonic(), False))
    install(rec, opts.mode)
    code = 0
    try:
        popbias.cli.main(args=args, prog_name="popbias", standalone_mode=True)
    except SetupDone:
        pass
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        if rec.trace:
            rec.stats["trace"] = {
                "main_tid": rec.main_tid,
                "spans": rec.spans,
                "totals": rec.totals,
                "counts": rec.counts,
            }
        with open(opts.stats, "w", encoding="utf-8") as fh:
            json.dump(rec.stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The benchmark's workloads and its layer table.

Each workload is one ``popbias evaluate`` run. Its corpus seed is the
workload's base seed plus ``--seed`` and its fold seed is ``--seed``, so
``--seed 0`` reproduces the reference inputs named in each rationale.

``LAYERS`` maps each per-layer metric to the end-to-end metrics it should
move, the workloads that exercise it and the workloads that bypass it. The
traced run checks the last two columns on every run: the probes of an
exercised layer must have been called, those of a bypassed layer never.
"""

from __future__ import annotations

from dataclasses import dataclass

# Corpora, as keyword arguments to tests/synthdata.make_corpus.
EVAL_CORPUS = ("eval", 11, {})
WIDE_CORPUS = (
    "wide",
    13,
    {"n_items": 12000, "n_users": 6000, "n_clusters": 16, "profile_lognorm": (3.3, 0.3)},
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: tuple[str, int, dict]
    config: dict
    hr10_order: tuple[str, ...] = ()  # strictly decreasing hr10, best first
    stub_fixtures: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="baselines",
            why=(
                "Reference run: 421k ratings, 5x1000-user folds, four baselines; "
                "recommend_batch and metric scoring dominate, parsing is small"
            ),
            corpus=EVAL_CORPUS,
            config={
                "folds": {"fold_count": 5, "users_per_fold": 1000},
                "recommenders": ["random", "top_pop", "item_knn", "user_knn"],
            },
            hr10_order=("user_knn", "item_knn", "top_pop", "random"),
        ),
        Workload(
            name="llm_stub",
            why=(
                "wok recommender alone on 2x250 users through the stub provider; "
                "fuzzy title resolution dominates and the KNN layers are bypassed"
            ),
            corpus=EVAL_CORPUS,
            config={
                "folds": {"fold_count": 2, "users_per_fold": 250},
                "recommenders": ["wok"],
                "provider": {"dialect": "stub", "max_in_flight": 2},
            },
            stub_fixtures=True,
        ),
        Workload(
            name="wide_sparse",
            why=(
                "12k items with short profiles, 2x2000-user folds: the KNN builds and "
                "sparse recommend_batch differ from the dense baselines corpus"
            ),
            corpus=WIDE_CORPUS,
            config={
                "folds": {"fold_count": 2, "users_per_fold": 2000},
                "recommenders": ["random", "item_knn", "user_knn"],
            },
            hr10_order=("user_knn", "item_knn", "random"),
        ),
    )
}

ALL = tuple(WORKLOADS)


@dataclass(frozen=True)
class Layer:
    metrics: tuple[str, ...]
    moves: tuple[str, ...]
    exercised_by: tuple[str, ...]
    bypassed_by: tuple[str, ...]
    probes: tuple[str, ...]  # span or counter names whose call count is checked


REC_KEYS = ("random", "top_pop", "item_knn", "user_knn", "wok")
METRIC_IDS = ("log_pop_diff", "avg_pop_lift", "gini_diff", "herfindahl_diff")
TAGS = ("valid", "already_watched", "too_new", "unmatched", "malformed")


def _rec(key: str) -> tuple[str, ...]:
    return tuple(f"recommenders.{key}.{m}" for m in ("batch_s", "slates", "short_slates", "empty_slates"))


LAYERS = (
    Layer(
        metrics=(
            "cli.import_s",
            "catalog.read_ratings_s",
            "catalog.read_movies_s",
            "catalog.ratings_parsed",
            "catalog.parse_issues",
            "catalog.popularity_s",
            "catalog.title_index_build_s",
            "evaluation.make_folds_s",
            "evaluation.users_skipped",
        ),
        moves=("setup_s",),
        exercised_by=ALL,
        bypassed_by=(),
        probes=(
            "cli.import",
            "catalog.read_ratings_file",
            "catalog.read_movies_file",
            "catalog.compute_popularity",
            "catalog.TitleIndex.build",
            "evaluation.make_folds",
        ),
    ),
    Layer(
        metrics=(
            "catalog.resolve_calls",
            "catalog.resolve_s",
            "catalog.resolve_hit_ratio",
            "catalog.levenshtein_calls",
        ),
        moves=("run_s", "slates_per_s", "slot_fill_frac"),
        exercised_by=("llm_stub",),
        bypassed_by=("baselines", "wide_sparse"),
        probes=("catalog.resolve", "catalog.levenshtein_calls"),
    ),
    Layer(
        metrics=(
            "llm_gateway.history_s",
            "llm_gateway.render_s",
            "llm_gateway.complete_s",
            "llm_gateway.complete_calls",
            "llm_gateway.provider_errors",
            "llm_gateway.parse_s",
            "llm_gateway.validate_s",
            "llm_gateway.overlap_ratio",
            "llm_gateway.worker_threads",
            "llm_gateway.fixture_nonexact_frac",
            *(f"llm_gateway.tag.{t}" for t in TAGS),
        ),
        moves=("run_s", "slot_fill_frac", "failed_frac"),
        exercised_by=("llm_stub",),
        bypassed_by=("baselines", "wide_sparse"),
        probes=(
            "llm_gateway.recommend",
            "llm_gateway.build_watch_history",
            "llm_gateway.render_prompt",
            "llm_gateway.complete_chat",
            "llm_gateway.parse_recommendations",
            "llm_gateway.validate_and_resolve",
        ),
    ),
    Layer(
        metrics=_rec("random") + _rec("item_knn") + _rec("user_knn"),
        moves=("run_s", "slates_per_s", "failed_frac", "slot_fill_frac"),
        exercised_by=("baselines", "wide_sparse"),
        bypassed_by=("llm_stub",),
        probes=(
            "recommenders.random.recommend_batch",
            "recommenders.item_knn.recommend_batch",
            "recommenders.user_knn.recommend_batch",
        ),
    ),
    Layer(
        metrics=_rec("top_pop"),
        moves=("run_s", "slates_per_s", "failed_frac", "slot_fill_frac"),
        exercised_by=("baselines",),
        bypassed_by=("llm_stub",),
        probes=("recommenders.top_pop.recommend_batch",),
    ),
    Layer(
        metrics=_rec("wok"),
        moves=("run_s", "slates_per_s", "failed_frac", "slot_fill_frac"),
        exercised_by=("llm_stub",),
        bypassed_by=("baselines", "wide_sparse"),
        probes=("recommenders.wok.recommend_batch",),
    ),
    Layer(
        metrics=(
            "recommenders.matrix_build_s",
            "recommenders.item_knn_build_s",
            "recommenders.user_knn_build_s",
        ),
        moves=("run_s", "peak_rss_mb"),
        exercised_by=("baselines", "wide_sparse"),
        bypassed_by=("llm_stub",),
        probes=(
            "recommenders.matrix_build",
            "recommenders.item_knn_build",
            "recommenders.user_knn_build",
        ),
    ),
    Layer(
        metrics=(
            "evaluation.score_s",
            *(f"metrics.{m}.{s}" for m in METRIC_IDS for s in ("calls", "s", "excluded")),
        ),
        moves=("run_s",),
        exercised_by=ALL,  # the smallest share is in llm_stub
        bypassed_by=(),
        probes=("evaluation.evaluate_recommender", *(f"metrics.{m}" for m in METRIC_IDS)),
    ),
    Layer(
        metrics=(
            "evaluation.summarize_s",
            "evaluation.report_s",
            "other_s",
            "trace_overhead_frac",
        ),
        moves=("run_s",),
        exercised_by=ALL,
        bypassed_by=(),
        probes=("evaluation.summarize", "evaluation.emit_report", "evaluation.build_manifest"),
    ),
)

PER_LAYER_METRICS = tuple(m for layer in LAYERS for m in layer.metrics)


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"

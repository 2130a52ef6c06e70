"""Popularity-bias metrics and an offline top-k recommender evaluation harness."""

__version__ = "0.1.0"

from popbias.catalog import (
    CatalogEntry,
    Interaction,
    TitleIndex,
    compute_popularity,
    normalize_title,
    parse_movies,
    parse_ratings,
)
from popbias.metrics import (
    METRICS,
    Metric,
    PhiArray,
    Profile,
    Profiles,
    evaluate_metric,
    kendall_tau,
    spearman_rho,
)

__all__ = [
    "CatalogEntry",
    "Interaction",
    "TitleIndex",
    "compute_popularity",
    "normalize_title",
    "parse_movies",
    "parse_ratings",
    "METRICS",
    "Metric",
    "PhiArray",
    "Profile",
    "Profiles",
    "evaluate_metric",
    "kendall_tau",
    "spearman_rho",
]

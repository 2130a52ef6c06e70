"""Command-line front end: ingest, fit, evaluate, desiderata, correlate."""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from popbias import catalog as cat
from popbias import evaluation as ev
from popbias.desiderata import DESIDERATA, desiderata_grid
from popbias.distfit import fit_pareto
from popbias.llm_gateway import ProviderConfig, PromptVariant, ProviderError, WokRecommender
from popbias.metrics import MAX_ID_SPAN, METRICS, PhiArray, scored_metric
from popbias.recommenders import (
    DEFAULT_K_NEIGHBORS,
    ItemKnnRecommender,
    RandomRecommender,
    TopPopRecommender,
    UserKnnRecommender,
    build_item_knn,
    build_user_knn,
    RatingMatrix,
)

DEFAULT_CONFIG: dict = {
    "data": {"movies": "", "ratings": ""},
    "folds": asdict(ev.FoldSpec()),
    "recommenders": ["random", "top_pop", "item_knn", "user_knn"],
    "knn_k": DEFAULT_K_NEIGHBORS,
    "k": 10,
    "metrics": list(ev.DEFAULT_METRICS),
    "strict_parse": False,
    "provider": asdict(ProviderConfig()),
}

# One recommender key per prompt; plain "wok" renders the base prompt.
WOK_VARIANTS = {"wok" if v is PromptVariant.BASE else f"wok:{v.value}": v for v in PromptVariant}
KNOWN_RECOMMENDERS = ("random", "top_pop", "item_knn", "user_knn", *WOK_VARIANTS)


def _merge_config(defaults: dict, overrides: dict, path: str = "") -> dict:
    merged = dict(defaults)
    for key, value in overrides.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise click.ClickException(f"unknown config key: {where}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise click.ClickException(f"config key {where} must be a mapping")
            merged[key] = _merge_config(defaults[key], value, where)
        elif isinstance(defaults[key], list) and not isinstance(value, list):
            raise click.ClickException(f"config key {where} must be a list")
        elif isinstance(defaults[key], str) and not isinstance(value, str):
            raise click.ClickException(f"config key {where} must be a string")
        else:
            merged[key] = value
    return merged


def load_config(path: str | None) -> dict:
    if path is None:
        return json.loads(json.dumps(DEFAULT_CONFIG))
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise click.ClickException(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise click.ClickException(f"invalid JSON in {path}: {exc}")
    if not isinstance(raw, dict):
        raise click.ClickException(f"config file {path} must hold a JSON object")
    return _merge_config(DEFAULT_CONFIG, raw)


@click.group()
def main() -> None:
    """Popularity-bias measurement toolkit for top-k recommenders."""


def _require_file(path: str, kind: str) -> None:
    if not Path(path).is_file():
        raise click.ClickException(f"{kind} file not found: {path}")


def _make_out_dir(out: str | None) -> Path:
    """The output directory, made in set-up so that an unusable path fails before any work."""
    out_dir = Path(out) if out else Path.cwd()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise click.ClickException(f"cannot make output directory {out_dir}: {exc.strerror or exc}")
    return out_dir


def _write_output(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise click.ClickException(f"cannot write {path}: {exc.strerror or exc}")


def _note_issues(path: str, issues: list[cat.ParseIssue]) -> None:
    """One stderr note for a file whose malformed lines a lenient read left out."""
    if issues:
        note = f"note: {path}: {len(issues)} malformed line(s) left out, the first at {issues[0]}"
        click.echo(note, err=True)


def _load_data(movies: str, ratings: str, strict: bool):
    _require_file(movies, "movies")
    _require_file(ratings, "ratings")
    try:
        entries, movie_issues = cat.read_movies_file(movies, strict=strict)
        table, rating_issues = cat.read_ratings_file(ratings, strict=strict)
    except cat.ParseError as exc:
        raise click.ClickException(str(exc))
    _note_issues(movies, movie_issues)
    _note_issues(ratings, rating_issues)
    if not len(table):
        raise click.ClickException("no interactions parsed")
    return entries, movie_issues, table, rating_issues


@main.command()
@click.option("--movies", required=True, type=str, help="movies.dat path")
@click.option("--ratings", required=True, type=str, help="ratings.dat path")
@click.option("--out", type=str, default=None, help="directory for cached outputs")
@click.option("--strict-parse", is_flag=True, help="abort on the first malformed line")
def ingest(movies: str, ratings: str, out: str | None, strict_parse: bool) -> None:
    """Parse the catalog, build the popularity table, print a summary."""
    out_dir = _make_out_dir(out) if out else None
    entries, movie_issues, table, rating_issues = _load_data(movies, ratings, strict_parse)
    phi = cat.compute_popularity(table)
    scores = np.array(sorted(phi.values()), dtype=float)
    top_item = int(TopPopRecommender(phi).ranking[0])
    click.echo(f"movies: {len(entries)} ({len(movie_issues)} malformed lines)")
    click.echo(f"ratings: {len(table)} ({len(rating_issues)} malformed lines)")
    click.echo(f"items with ratings: {len(phi)}")
    quants = np.quantile(scores, [0.0, 0.25, 0.5, 0.75, 1.0])
    click.echo(
        "popularity quantiles (min/p25/p50/p75/max): "
        + "/".join(f"{q:.0f}" for q in quants)
    )
    click.echo(f"most popular item: {top_item} ({phi[top_item]} ratings)")
    if out_dir is not None:
        popularity = io.StringIO()
        writer = csv.writer(popularity)
        writer.writerow(["item", "count"])
        writer.writerows([item, int(phi[item])] for item in sorted(phi))
        _write_output(out_dir / "popularity.csv", popularity.getvalue())
        summary = {
            "movies": len(entries),
            "ratings": len(table),
            "items_with_ratings": len(phi),
            "movie_parse_issues": len(movie_issues),
            "rating_parse_issues": len(rating_issues),
            "max_popularity_item": top_item,
        }
        _write_output(
            out_dir / "ingest_summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
        click.echo(f"wrote {out_dir / 'popularity.csv'}")


@main.command()
@click.argument("scores_file", required=False, type=str)
@click.option("--ratings", type=str, default=None, help="derive scores from ratings.dat")
@click.option("--x-min", type=float, default=None, help="support lower bound")
def fit(scores_file: str | None, ratings: str | None, x_min: float | None) -> None:
    """Fit a Pareto tail to popularity scores and report goodness of fit."""
    if (scores_file is None) == (ratings is None):
        raise click.ClickException("provide either SCORES_FILE or --ratings")
    if ratings is not None:
        _require_file(ratings, "ratings")
        table, issues = cat.read_ratings_file(ratings)
        _note_issues(ratings, issues)
        if not len(table):
            raise click.ClickException("no interactions parsed")
        samples = [float(v) for v in cat.compute_popularity(table).values()]
    else:
        _require_file(scores_file, "scores")
        try:
            samples = [float(v) for v in Path(scores_file).read_text(encoding="utf-8").split()]
        except ValueError as exc:
            raise click.ClickException(f"non-numeric score: {exc}")
    try:
        result = fit_pareto(samples, x_min=x_min)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    click.echo(f"n: {result.n}")
    click.echo(f"x_min: {result.x_min:.6g}")
    click.echo(f"alpha: {result.alpha:.4f}")
    click.echo(f"ks_stat: {result.ks_stat:.4f}")


def _build_fold_recommenders(cfg, train, shared):
    """The configured recommenders, in config order.

    Those in the run's ``shared`` map are reused; KNN models are trained on the fold's ratings.
    """
    recs = []
    matrix = None
    for name in cfg["recommenders"]:
        if name in shared:
            recs.append(shared[name])
            continue
        # item_knn or user_knn: evaluate has checked every name.
        if matrix is None:
            matrix = RatingMatrix.from_interactions(train)
        if name == "item_knn":
            recs.append(ItemKnnRecommender(build_item_knn(matrix, cfg["knn_k"])))
        else:
            recs.append(UserKnnRecommender(build_user_knn(matrix, cfg["knn_k"]), matrix))
    return recs


def _score_fold(cfg, fold, phi_array, shared, errors):
    """Each configured recommender's per-user table on one fold, skipping those in errors.

    A recommender whose provider fails is recorded in ``errors``. The fold's
    models and shared inputs are dropped on return, so none of them is alive
    while the next fold's models are built.
    """
    inputs = ev.FoldInputs.of(fold, phi_array, cfg["metrics"])
    recs = _build_fold_recommenders(cfg, inputs.ratings, shared)
    tables: dict[str, dict[str, np.ndarray]] = {}
    for rec in recs:
        if rec.name in errors:
            continue
        try:
            tables[rec.name] = ev.evaluate_recommender(rec, inputs, cfg["k"])
        except ProviderError as exc:
            errors[rec.name] = str(exc)
            click.echo(f"note: {rec.name} aborted: {exc}", err=True)
    return tables


@main.command()
@click.option("--config", "config_path", type=str, default=None, help="JSON run config")
@click.option("--movies", type=str, default=None, help="override data.movies")
@click.option("--ratings", type=str, default=None, help="override data.ratings")
@click.option("--seed", type=int, default=None, help="override folds.seed")
@click.option("--out", type=str, default=None, help="output directory (default: cwd)")
@click.option("--provider", type=str, default=None, help="override provider.dialect")
@click.option("--strict-parse", is_flag=True, default=None, help="abort on malformed lines")
def evaluate(config_path, movies, ratings, seed, out, provider, strict_parse) -> None:
    """Run the fold protocol and write report.csv plus manifest.json.

    The LLM recommender's keys are ``wok`` (the base prompt), ``wok:mitigate``
    and ``wok:minimize``; each listed key is its own row over the same folds.
    """
    cfg = load_config(config_path)
    if movies:
        cfg["data"]["movies"] = movies
    if ratings:
        cfg["data"]["ratings"] = ratings
    if seed is not None:
        cfg["folds"]["seed"] = seed
    if provider:
        cfg["provider"]["dialect"] = provider
    if strict_parse:
        cfg["strict_parse"] = True
    if not cfg["data"]["movies"] or not cfg["data"]["ratings"]:
        raise click.ClickException("data.movies and data.ratings are required")
    try:
        for metric_id in cfg["metrics"]:
            scored_metric(metric_id)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    try:
        spec = ev.FoldSpec(**cfg["folds"])
    except ValueError as exc:
        raise click.ClickException(f"folds.{exc}")
    # A standard error over folds needs two of them.
    if spec.fold_count < 2:
        raise click.ClickException("folds.fold_count must be >= 2")
    if type(cfg["strict_parse"]) is not bool:
        raise click.ClickException("strict_parse must be true or false")
    for key in ("k", "knn_k"):
        if type(cfg[key]) is not int or cfg[key] < 1:
            raise click.ClickException(f"{key} must be an integer >= 1")
    names = cfg["recommenders"]
    for name in names:
        if name not in KNOWN_RECOMMENDERS:
            raise click.ClickException(
                f"unknown recommender {name!r} (known: {', '.join(KNOWN_RECOMMENDERS)})"
            )
    if not names:
        raise click.ClickException("recommenders must name at least one recommender")
    for key in ("metrics", "recommenders"):
        repeated = [name for name in cfg[key] if cfg[key].count(name) > 1]
        if repeated:
            raise click.ClickException(f"{key} lists {repeated[0]!r} more than once")
    provider = None
    wok_keys = [name for name in names if name in WOK_VARIANTS]
    if wok_keys:
        try:
            provider = ProviderConfig(**cfg["provider"])
        except ValueError as exc:
            raise click.ClickException(f"provider.{exc}")
        # Each dialect fails every request without these (a network key is read per call).
        stub = provider.dialect == "stub"
        for key in ("fixtures_dir",) if stub else ("endpoint", "api_key_env"):
            if not getattr(provider, key):
                raise click.ClickException(
                    f"provider.{key} must be set for dialect {provider.dialect!r}"
                )
        if stub and not Path(provider.fixtures_dir).is_dir():
            raise click.ClickException(
                f"provider.fixtures_dir is not a directory: {provider.fixtures_dir}"
            )
    if {"item_knn", "user_knn"}.intersection(names):
        # Loaded here, in set-up, rather than by the first fold's rating matrix.
        import scipy.sparse  # noqa: F401
    out_dir = _make_out_dir(out)

    entries, _, table, _ = _load_data(
        cfg["data"]["movies"], cfg["data"]["ratings"], cfg["strict_parse"]
    )
    # The id tables (PhiArray, the recommenders' lookups) are dense over each column's span.
    for column in ("user", "item"):
        ids = getattr(table, column)
        if int(ids.max()) - int(ids.min()) + 1 > MAX_ID_SPAN:
            raise click.ClickException(
                f"{column} ids span more than {MAX_ID_SPAN} values (largest {ids.max()})"
            )
    phi = cat.compute_popularity(table)
    # Only wok reads the index, but the benchmark times its build on every run.
    index = cat.TitleIndex.build(entries)
    by_item = {e.item: e for e in entries} if wok_keys else {}
    # The recommenders no fold trains, built once for the run.
    shared = {key: WokRecommender(provider, index, by_item, WOK_VARIANTS[key]) for key in wok_keys}
    if "random" in names:
        shared["random"] = RandomRecommender(phi.keys(), seed=spec.seed)
    if "top_pop" in names:
        shared["top_pop"] = TopPopRecommender(phi)

    try:
        plan = ev.make_folds(table, spec)
    except ValueError as exc:
        raise click.ClickException(str(exc))

    phi_array = PhiArray.of(phi)
    per_rec_tables: dict[str, list[dict[str, np.ndarray]]] = {}
    errors: dict[str, str] = {}
    for fold_no, fold in enumerate(plan.folds):
        if not fold:
            raise click.ClickException(f"fold {fold_no} is empty after exclusions")
        for name, table in _score_fold(cfg, fold, phi_array, shared, errors).items():
            per_rec_tables.setdefault(name, []).append(table)

    rows = [
        ev.summarize(name, tables)
        for name, tables in per_rec_tables.items()
        if len(tables) == len(plan.folds)
    ]
    if not rows:
        raise click.ClickException("no recommender completed all folds")

    report_csv = ev.emit_report(rows, fmt="csv")
    _write_output(out_dir / "report.csv", report_csv)
    _write_output(out_dir / "report.md", ev.emit_report(rows, fmt="markdown"))
    _write_output(out_dir / "manifest.json", ev.build_manifest(cfg, plan, rows, errors))
    click.echo(report_csv, nl=False)
    click.echo(f"wrote {out_dir / 'report.csv'}")


@main.command()
@click.option(
    "--metric",
    "metric_filter",
    multiple=True,
    help="restrict the grid to these metrics (repeatable)",
)
@click.option("--witnesses", is_flag=True, help="print the witness for every verdict")
def desiderata(metric_filter: tuple[str, ...], witnesses: bool) -> None:
    """Check every metric against every metric desideratum."""
    metric_ids = list(metric_filter) if metric_filter else list(METRICS)
    try:
        verdicts = desiderata_grid(metric_ids)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    by_cell = {(v.desideratum, v.metric): v for v in verdicts}
    width = max(len(m) for m in metric_ids) + 2
    header = " " * 22 + "".join(m.ljust(width) for m in metric_ids)
    click.echo(header)
    for d in DESIDERATA:
        marks = "".join(
            ("✓" if by_cell[(d, m)].passed else "✗").ljust(width)
            for m in metric_ids
        )
        click.echo(f"{d:<22}{marks}")
    if witnesses:
        click.echo("")
        for v in verdicts:
            mark = "✓" if v.passed else "✗"
            click.echo(f"{mark} {v.metric} / {v.desideratum}: {v.witness}")


def _read_report_bias_columns(
    path: Path,
) -> tuple[list[str], list[dict[str, float | None]]]:
    """Bias metric columns and row values (None for a blank cell) from one report CSV."""
    if not path.is_file():
        raise click.ClickException(f"report not found: {path}")
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        metric_cols = [c for c in reader.fieldnames or [] if c in METRICS]
        try:
            rows = [
                {c: float(record[c]) if record[c] else None for c in metric_cols}
                for record in reader
            ]
        except ValueError as exc:
            raise click.ClickException(f"{path}: {exc}")
    if not metric_cols:
        raise click.ClickException(f"no metric columns found in {path}")
    return metric_cols, rows


@main.command()
@click.argument("reports", nargs=-1, required=True, type=str)
@click.option("--out", type=str, default=None, help="write the matrix CSV here")
def correlate(reports: tuple[str, ...], out: str | None) -> None:
    """Kendall-tau correlations between bias metrics across report rows.

    A metric column that is blank in any row (undefined for that
    recommender) is left out.
    """
    all_rows: list[dict[str, float | None]] = []
    columns: list[str] | None = None
    for path in reports:
        cols, rows = _read_report_bias_columns(Path(path))
        if columns is None:
            columns = cols
        else:
            columns = [c for c in columns if c in cols]
        all_rows.extend(rows)
    assert columns is not None
    bias_by_metric = {
        c: [row[c] for row in all_rows]
        for c in columns
        if all(row[c] is not None for row in all_rows)
    }
    try:
        taus = ev.correlate_metrics(bias_by_metric)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    text = ev.emit_correlations(taus)
    if out:
        _write_output(Path(out), text)
        click.echo(f"wrote {out}")
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    sys.exit(main())

import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest
import requests
from click.testing import CliRunner

import popbias.cli as cli
from popbias.catalog import compute_popularity, read_movies_file, read_ratings_file
from popbias.cli import load_config, main
from popbias.distfit import fit_pareto
from popbias.evaluation import FoldSpec, make_folds
from popbias.llm_gateway import (
    PromptVariant,
    ProviderConfig,
    build_watch_history,
    prompt_fingerprint,
    render_prompt,
)
from popbias.metrics import MAX_ID_SPAN
from popbias.recommenders import BaseRecommender


def test_evaluate_reports_baselines_and_records_provider_error(small_corpus, tmp_path):
    movies, ratings = small_corpus
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "data": {"movies": str(movies), "ratings": str(ratings)},
                "folds": {"fold_count": 2, "users_per_fold": 30},
                "recommenders": ["random", "top_pop", "item_knn", "user_knn", "wok"],
                # An empty fixtures directory passes set-up; each request then fails.
                "provider": {"fixtures_dir": str(fixtures)},
            }
        ),
        encoding="utf-8",
    )
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        result = CliRunner().invoke(main, ["evaluate", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 0, result.output
        outputs.append(((out / "report.csv").read_bytes(), (out / "manifest.json").read_bytes()))

    report, manifest = outputs[0]
    rows = list(csv.DictReader(io.StringIO(report.decode("utf-8"))))
    assert [row["recommender"] for row in rows] == ["random", "top_pop", "item_knn", "user_knn"]
    errors = json.loads(manifest)["errors"]
    assert list(errors) == ["wok-stub-model"]
    assert "no stub fixture" in errors["wok-stub-model"]
    assert outputs[1] == outputs[0]


def test_non_json_provider_reply_fails_only_the_llm_recommender(
    small_corpus, tmp_path, monkeypatch
):
    def canned(*args, **kwargs):
        response = requests.Response()
        response.status_code = 200
        response._content = b"<html>upstream error</html>"
        return response

    monkeypatch.setenv("FAKE_KEY", "k")
    monkeypatch.setattr("requests.post", canned)
    movies, ratings = small_corpus
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "data": {"movies": str(movies), "ratings": str(ratings)},
                "folds": {"fold_count": 2, "users_per_fold": 30},
                "recommenders": ["top_pop", "wok"],
                "provider": {
                    "dialect": "openai",
                    "endpoint": "http://provider",
                    "api_key_env": "FAKE_KEY",
                },
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["evaluate", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = list(csv.DictReader(io.StringIO((out / "report.csv").read_text("utf-8"))))
    assert [row["recommender"] for row in rows] == ["top_pop"]
    errors = json.loads((out / "manifest.json").read_text("utf-8"))["errors"]
    assert list(errors) == ["wok-stub-model"]
    assert "not JSON" in errors["wok-stub-model"]


def test_an_unreadable_stub_fixture_fails_only_the_llm_recommender(small_corpus, tmp_path):
    # Every fold user gets a fixture, keyed as the stub keys it; the first is not UTF-8.
    movies, ratings = small_corpus
    by_id = {e.item: e for e in read_movies_file(movies)[0]}
    plan = make_folds(read_ratings_file(ratings)[0], FoldSpec(fold_count=2, users_per_fold=30))
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    paths = []
    for split in (split for fold in plan.folds for split in fold):
        history = build_watch_history(split.ratings[split.train_rows], by_id)
        paths.append(fixtures / f"{prompt_fingerprint(render_prompt(history, 10))}.txt")
        paths[-1].write_text("Sorry, no picks today.\n", encoding="utf-8")
    paths[0].write_bytes("1. Café (1995)\n".encode("latin-1"))
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "data": {"movies": str(movies), "ratings": str(ratings)},
                "folds": {"fold_count": 2, "users_per_fold": 30},
                "recommenders": ["random", "top_pop", "wok"],
                "provider": {"fixtures_dir": str(fixtures)},
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["evaluate", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = list(csv.DictReader(io.StringIO((out / "report.csv").read_text("utf-8"))))
    assert [row["recommender"] for row in rows] == ["random", "top_pop"]
    errors = json.loads((out / "manifest.json").read_text("utf-8"))["errors"]
    assert list(errors) == ["wok-stub-model"]
    assert f"unreadable stub fixture {paths[0].stem}" in errors["wok-stub-model"]


def _write_variant_fixtures(movies, ratings, fixtures, spec):
    """Stub replies for every fold user and prompt variant, keyed as the stub keys them.

    Base replies name the user's ten most popular unseen items, mitigate ten
    from the middle third of the popularity ranking, minimize the ten least
    popular unseen items. Returns each (user, variant)'s fixture path.
    """
    by_id = {e.item: e for e in read_movies_file(movies)[0]}
    table = read_ratings_file(ratings)[0]
    phi = compute_popularity(table)
    counts = dict(zip(phi.ids.tolist(), phi.scores.tolist()))
    ranked = sorted(counts, key=lambda item: (-counts[item], item))
    third = len(ranked) // 3
    pools = {
        PromptVariant.BASE: ranked,
        PromptVariant.MITIGATE: ranked[third : 2 * third],
        PromptVariant.MINIMIZE: ranked[::-1],
    }
    paths = {}
    for split in (split for fold in make_folds(table, spec).folds for split in fold):
        history = build_watch_history(split.train, by_id)
        seen = set(split.train.item.tolist())
        for variant, pool in pools.items():
            picks = [by_id[item] for item in pool if item not in seen][:10]
            reply = "".join(f"{n}. {e.title} ({e.year})\n" for n, e in enumerate(picks, 1))
            path = fixtures / f"{prompt_fingerprint(render_prompt(history, 10, variant))}.txt"
            path.write_text(reply, encoding="utf-8")
            paths[split.user, variant] = path
    return paths


def test_one_run_scores_every_prompt_over_the_same_folds(small_corpus, tmp_path):
    movies, ratings = small_corpus
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    paths = _write_variant_fixtures(
        movies, ratings, fixtures, FoldSpec(fold_count=2, users_per_fold=30)
    )
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "data": {"movies": str(movies), "ratings": str(ratings)},
                "folds": {"fold_count": 2, "users_per_fold": 30},
                "recommenders": ["random", "wok", "wok:mitigate", "wok:minimize"],
                "provider": {"fixtures_dir": str(fixtures)},
            }
        ),
        encoding="utf-8",
    )

    def run(name):
        out = tmp_path / name
        result = CliRunner().invoke(main, ["evaluate", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = (out / "report.csv").read_text("utf-8")
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        return list(csv.DictReader(io.StringIO(report))), manifest

    rows, manifest = run("all")
    names = ["random", "wok-stub-model", "wok-stub-model-mitigate", "wok-stub-model-minimize"]
    assert [row["recommender"] for row in rows] == names
    assert manifest["errors"] == {}
    bias = [float(row["log_pop_diff"]) for row in rows[1:]]
    assert bias[0] > bias[1] > bias[2]

    # One missing reply fails its own variant's row and leaves the others as they were.
    user = manifest["folds"][1][0]
    paths[user, PromptVariant.MITIGATE].unlink()
    rest, manifest = run("one_missing")
    assert list(manifest["errors"]) == ["wok-stub-model-mitigate"]
    assert "no stub fixture" in manifest["errors"]["wok-stub-model-mitigate"]
    assert rest == [rows[0], rows[1], rows[3]]


def test_baselines_no_fold_trains_are_built_once_per_run(small_corpus, tmp_path, monkeypatch):
    movies, ratings = small_corpus
    built = []
    for name in ("RandomRecommender", "TopPopRecommender"):

        def counting(*args, _cls=getattr(cli, name), **kwargs):
            built.append(_cls.name)
            return _cls(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
    config = tmp_path / "config.json"
    names = ["user_knn", "top_pop", "item_knn", "random"]
    config.write_text(
        json.dumps(
            {
                "data": {"movies": str(movies), "ratings": str(ratings)},
                "folds": {"fold_count": 3, "users_per_fold": 20},
                "recommenders": names,
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["evaluate", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert sorted(built) == ["random", "top_pop"]
    rows = list(csv.DictReader(io.StringIO((out / "report.csv").read_text("utf-8"))))
    assert [row["recommender"] for row in rows] == names


def test_a_user_with_few_candidates_gets_a_short_slate(tmp_path, monkeypatch):
    # 30 movies: user 1 rated 28, so a training side of 22 leaves 8 candidates
    # for k=10; every other user rated 10.
    movies = tmp_path / "movies.dat"
    ratings = tmp_path / "ratings.dat"
    movies.write_text("".join(f"{i}::Movie {i} (1990)::Drama\n" for i in range(1, 31)), "utf-8")
    ratings.write_text(
        "".join(f"1::{i}::{i % 5 + 1}::{100 * i}\n" for i in range(1, 29))
        + "".join(
            f"{u}::{(u + j) % 30 + 1}::{(u * j) % 5 + 1}::{100 * j}\n"
            for u in range(2, 41)
            for j in range(10)
        ),
        "utf-8",
    )
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "data": {"movies": str(movies), "ratings": str(ratings)},
                "folds": {"fold_count": 2, "users_per_fold": 20},
                "recommenders": ["random", "top_pop", "item_knn"],
            }
        ),
        encoding="utf-8",
    )
    lengths = {}
    recommend_batch = BaseRecommender.recommend_batch

    def recording(self, requests, k):
        results = recommend_batch(self, requests, k)
        for request, result in zip(requests, results):
            lengths[self.name, request.user] = len(result.slate.entries)
        return results

    monkeypatch.setattr(BaseRecommender, "recommend_batch", recording)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["evaluate", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = list(csv.DictReader(io.StringIO((out / "report.csv").read_text("utf-8"))))
    assert [row["recommender"] for row in rows] == ["random", "top_pop", "item_knn"]
    assert json.loads((out / "manifest.json").read_text("utf-8"))["errors"] == {}
    assert lengths["random", 1] == lengths["top_pop", 1] == 8
    assert {lengths[name, u] for name in ("random", "top_pop") for u in range(2, 41)} == {10}


@pytest.mark.parametrize(
    ("column", "last_user", "extra", "recommenders"),
    [
        ("item", 40, "40::1000000000000::4::5000\n", ["random", "top_pop"]),
        ("user", 1000000000000, "", ["user_knn"]),
    ],
)
def test_evaluate_refuses_an_id_column_too_sparse_for_dense_tables(
    tmp_path, column, last_user, extra, recommenders
):
    # 40 users rate 10 of 40 films each, and every user is in a fold; the last
    # user, or one more rating's film, has a 13-digit id.
    movies = tmp_path / "movies.dat"
    ratings = tmp_path / "ratings.dat"
    movies.write_text(
        "".join(f"{i}::Movie {i} (1990)::Drama\n" for i in range(1, 41))
        + "1000000000000::Huge Id Film (1995)::Drama\n",
        "utf-8",
    )
    ratings.write_text(
        "".join(
            f"{u}::{(u + j) % 40 + 1}::{j % 5 + 1}::{100 * j}\n"
            for u in [*range(1, 40), last_user]
            for j in range(10)
        )
        + extra,
        "utf-8",
    )
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "data": {"movies": str(movies), "ratings": str(ratings)},
                "folds": {"fold_count": 2, "users_per_fold": 20},
                "recommenders": recommenders,
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["evaluate", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert (
        f"Error: {column} ids span more than {MAX_ID_SPAN} values (largest 1000000000000)"
        in result.output
    )
    assert not (out / "report.csv").exists()


def test_evaluate_rejects_desiderata_only_pru(small_corpus, tmp_path):
    # Slates never hold training items, so PRU's profile intersection is empty.
    movies, ratings = small_corpus
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "data": {"movies": str(movies), "ratings": str(ratings)},
                "folds": {"fold_count": 2, "users_per_fold": 30},
                "metrics": ["log_pop_diff", "pru"],
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["evaluate", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 1
    assert "'pru' is a desiderata-only metric" in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    ("override", "message"),
    [
        ({"folds": {"fold_count": 1}}, "folds.fold_count must be >= 2"),
        ({"recommenders": ["random", "svd"]}, "unknown recommender 'svd'"),
        ({"k": -1}, "k must be an integer >= 1"),
        ({"knn_k": 0}, "knn_k must be an integer >= 1"),
        ({"k": 2.5}, "k must be an integer >= 1"),
        # The prompt is chosen by the recommender key, not by a config key of its own.
        ({"prompt_variant": "base"}, "unknown config key: prompt_variant"),
        (
            {"recommenders": ["wok:base"]},
            "unknown recommender 'wok:base' (known: random, top_pop, item_knn, user_knn, "
            "wok, wok:mitigate, wok:minimize)",
        ),
        (
            {"recommenders": ["wok", "wok:bogus"]},
            "unknown recommender 'wok:bogus' (known: random, top_pop, item_knn, user_knn, "
            "wok, wok:mitigate, wok:minimize)",
        ),
        (
            {"recommenders": ["wok"], "provider": {"dialect": "telnet"}},
            "provider.dialect must be one of: stub, openai, anthropic",
        ),
        (
            {"recommenders": ["wok"], "provider": {"dialect": "openai", "max_in_flight": "4"}},
            "provider.max_in_flight must be an integer >= 1",
        ),
        (
            {"recommenders": ["wok"], "provider": {"max_in_flight": 0}},
            "provider.max_in_flight must be an integer >= 1",
        ),
        (
            {"recommenders": ["wok"], "provider": {"fixtures_dir": "no/such/fixtures"}},
            "provider.fixtures_dir is not a directory: no/such/fixtures",
        ),
        # "" names no directory, although Path("") is the working directory.
        ({"recommenders": ["wok"]}, "provider.fixtures_dir must be set for dialect 'stub'"),
        (
            {"recommenders": ["wok"], "provider": {"dialect": "openai", "api_key_env": "KEY"}},
            "provider.endpoint must be set for dialect 'openai'",
        ),
        (
            {
                "recommenders": ["top_pop", "wok:minimize"],
                "provider": {"dialect": "anthropic", "endpoint": "http://provider"},
            },
            "provider.api_key_env must be set for dialect 'anthropic'",
        ),
        # Without a wok recommender the provider block is never used.
        ({"provider": {"dialect": "telnet"}}, "movies file not found"),
        ({"folds": {"fold_count": "5"}}, "folds.fold_count must be an integer >= 1"),
        ({"folds": {"users_per_fold": 2.5}}, "folds.users_per_fold must be an integer >= 1"),
        ({"folds": {"seed": "x"}}, "folds.seed must be an integer >= 0"),
        ({"folds": {"seed": -1}}, "folds.seed must be an integer >= 0"),
        ({"folds": {"min_ratings": True}}, "folds.min_ratings must be an integer >= 0"),
        ({"folds": {"train_fraction": "0.8"}}, "folds.train_fraction must be a number in (0, 1)"),
        ({"folds": {"train_fraction": 1.5}}, "folds.train_fraction must be a number in (0, 1)"),
        ({"strict_parse": "false"}, "strict_parse must be true or false"),
        (
            {"metrics": ["log_pop_diff", "nope"]},
            "unknown metric 'nope' (known: avg_pop_lift, gini_diff, herfindahl_diff, "
            "log_pop_diff, pru)",
        ),
        (
            {"metrics": [["log_pop_diff"]]},
            "unknown metric ['log_pop_diff'] (known: avg_pop_lift, gini_diff, herfindahl_diff, "
            "log_pop_diff, pru)",
        ),
        # A string is not read as a list of one-character names.
        ({"metrics": "log_pop_diff"}, "config key metrics must be a list"),
        ({"recommenders": "random"}, "config key recommenders must be a list"),
        ({"recommenders": []}, "recommenders must name at least one recommender"),
        (
            {"recommenders": ["item_knn", "top_pop", "item_knn"]},
            "recommenders lists 'item_knn' more than once",
        ),
        (
            {"metrics": ["gini_diff", "log_pop_diff", "log_pop_diff"]},
            "metrics lists 'log_pop_diff' more than once",
        ),
        ({"data": {"movies": 5, "ratings": 6}}, "config key data.movies must be a string"),
        ({"data": {"movies": "m.dat", "ratings": 6}}, "config key data.ratings must be a string"),
        ({"data": {"movies": "", "ratings": ""}}, "data.movies and data.ratings are required"),
        (
            {"recommenders": ["wok"], "provider": {"retries": -1}},
            "provider.retries must be an integer >= 0",
        ),
        (
            {"recommenders": ["wok"], "provider": {"retries": "2"}},
            "provider.retries must be an integer >= 0",
        ),
        (
            {"recommenders": ["wok"], "provider": {"backoff": -1}},
            "provider.backoff must be a number >= 0",
        ),
        (
            {"recommenders": ["wok"], "provider": {"timeout": 0}},
            "provider.timeout must be a number > 0",
        ),
        (
            {"recommenders": ["wok"], "provider": {"timeout": True}},
            "provider.timeout must be a number > 0",
        ),
        (
            {"recommenders": ["wok"], "provider": {"temperature": "hot"}},
            "provider.temperature must be a number >= 0",
        ),
        (
            {"recommenders": ["wok"], "provider": {"top_p": None}},
            "provider.top_p must be a number in (0, 1]",
        ),
        (
            {"recommenders": ["wok"], "provider": {"top_k": "x"}},
            "provider.top_k must be null or an integer >= 1",
        ),
        (
            {"recommenders": ["wok"], "provider": {"max_tokens": -5}},
            "provider.max_tokens must be an integer >= 1",
        ),
        (
            {"recommenders": ["wok"], "provider": {"max_tokens": False}},
            "provider.max_tokens must be an integer >= 1",
        ),
    ],
)
def test_evaluate_rejects_a_bad_config_before_reading_data(tmp_path, override, message):
    # The data paths do not exist, so only a check that runs first can fail here.
    missing = tmp_path / "missing"
    config = tmp_path / "config.json"
    data = {"movies": str(missing / "movies.dat"), "ratings": str(missing / "ratings.dat")}
    config.write_text(json.dumps({"data": data, **override}), encoding="utf-8")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["evaluate", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 1
    assert f"Error: {message}" in result.output
    assert "Traceback" not in result.output and isinstance(result.exception, SystemExit)
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("text", ["[]", '"x"', "3", "null"])
def test_evaluate_rejects_a_config_file_that_is_not_a_json_object(tmp_path, text):
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    result = CliRunner().invoke(main, ["evaluate", "--config", str(config)])
    assert result.exit_code == 1
    assert f"Error: config file {config} must hold a JSON object" in result.output
    assert "Traceback" not in result.output and isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("command", ["evaluate", "ingest"])
def test_an_output_path_that_is_a_file_is_refused_before_reading_data(
    command, tmp_path, monkeypatch
):
    # The data paths do not exist, so the output check must run first to be seen.
    monkeypatch.chdir(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("keep\n", encoding="utf-8")
    args = [command, "--movies", "no/movies.dat", "--ratings", "no/ratings.dat"]
    result = CliRunner().invoke(main, [*args, "--out", str(taken)])
    assert result.exit_code == 1
    assert f"Error: cannot make output directory {taken}: File exists" in result.output
    assert "Traceback" not in result.output and isinstance(result.exception, SystemExit)
    assert taken.read_text(encoding="utf-8") == "keep\n"
    assert [path.name for path in tmp_path.iterdir()] == ["taken"]  # no report.csv in cwd


def test_correlate_refuses_an_output_path_that_is_a_directory(tmp_path):
    report = tmp_path / "report.csv"
    report.write_text(
        "recommender,log_pop_diff,gini_diff\n"
        "random,-1.0,0.1\ntop_pop,2.0,-0.2\nitem_knn,0.5,0.3\nuser_knn,0.25,0.0\n",
        encoding="utf-8",
    )
    taken = tmp_path / "taken"
    taken.mkdir()
    result = CliRunner().invoke(main, ["correlate", str(report), "--out", str(taken)])
    assert result.exit_code == 1
    assert f"Error: cannot write {taken}: Is a directory" in result.output
    assert "Traceback" not in result.output and isinstance(result.exception, SystemExit)


def test_desiderata_rejects_an_unknown_metric():
    result = CliRunner().invoke(main, ["desiderata", "--metric", "log_pop_diff", "--metric", "nope"])
    assert result.exit_code == 1
    assert "Error: unknown metric 'nope'" in result.output


def test_desiderata_rejects_a_repeated_metric():
    args = ["desiderata", "--metric", "log_pop_diff", "--metric", "log_pop_diff"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1
    assert "Error: metrics lists 'log_pop_diff' more than once" in result.output
    assert "Traceback" not in result.output and isinstance(result.exception, SystemExit)


_RUN_AND_LIST_MODULES = """
import json, sys
from click.testing import CliRunner
import popbias.cli
imported = set(sys.modules)
loaded = {"after_import": sorted(m for m in ("scipy", "requests") if m in imported)}
if len(sys.argv) > 1:
    result = CliRunner().invoke(popbias.cli.main, sys.argv[1:])
    assert result.exit_code == 0, result.output
    watched = ("numpy.ma", "requests", "scipy", "scipy.sparse")
    loaded["after_run"] = sorted(m for m in watched if m in sys.modules and m not in imported)
print(json.dumps(loaded))
"""


def _modules_loaded(*args: str) -> dict:
    """Which of scipy and requests a fresh process loads to import the CLI, and which of
    those, scipy.sparse and numpy.ma running args adds."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_MODULES, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_runs_load_scipy_and_requests_only_when_they_use_them(small_corpus, tmp_path):
    movies, ratings = small_corpus
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    assert _modules_loaded() == {"after_import": []}

    def run(name, recommenders):
        config = tmp_path / f"{name}.json"
        config.write_text(
            json.dumps(
                {
                    "data": {"movies": str(movies), "ratings": str(ratings)},
                    "folds": {"fold_count": 2, "users_per_fold": 30},
                    "recommenders": recommenders,
                    "provider": {"fixtures_dir": str(fixtures)},
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / name
        loaded = _modules_loaded("evaluate", "--config", str(config), "--out", str(out))
        assert (out / "report.csv").is_file()
        return loaded["after_run"]

    # The stub's fixtures directory is empty, so wok fails alone and the run completes.
    # numpy 1.x imports numpy.ma with numpy itself; on numpy 2 a run need not.
    assert run("no_knn", ["random", "top_pop", "wok"]) == []
    knn = run("knn", ["top_pop", "item_knn"])
    assert [m for m in knn if m != "numpy.ma"] == ["scipy", "scipy.sparse"]


def test_correlate_renders_kendall_matrix_and_skips_blank_columns(tmp_path):
    header = "recommender,hr10,log_pop_diff,log_pop_diff_sem,avg_pop_lift,gini_diff,pru,pru_sem\n"
    first = tmp_path / "first.csv"
    first.write_text(
        header + "random,0.01,-1.0,0.1,-0.5,0.1,,\ntop_pop,0.03,2.0,0.1,3.0,-0.2,,\n",
        encoding="utf-8",
    )
    second = tmp_path / "second.csv"
    second.write_text(
        header + "item_knn,0.1,0.5,0.1,1.0,0.3,0.2,0.01\nuser_knn,0.1,0.25,0.1,0.2,0.0,0.1,0.01\n",
        encoding="utf-8",
    )
    # log_pop_diff and avg_pop_lift order the four rows alike; against gini_diff
    # 2 of the 6 pairs are concordant and 4 discordant, so tau = -2/6.
    expected = (
        "metric,log_pop_diff,avg_pop_lift,gini_diff\n"
        "log_pop_diff,1.0000,1.0000,-0.3333\n"
        "avg_pop_lift,1.0000,1.0000,-0.3333\n"
        "gini_diff,-0.3333,-0.3333,1.0000\n"
    )
    result = CliRunner().invoke(main, ["correlate", str(first), str(second)])
    assert result.exit_code == 0, result.output
    assert result.output == expected
    out = tmp_path / "matrix.csv"
    result = CliRunner().invoke(main, ["correlate", str(first), str(second), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == expected.encode("utf-8")
    second.write_text(header + "item_knn,0.1,abc,0.1,1.0,0.3,,\n", encoding="utf-8")
    result = CliRunner().invoke(main, ["correlate", str(first), str(second)])
    assert result.exit_code == 1
    assert "second.csv: could not convert string to float: 'abc'" in result.output


def test_default_config_restates_no_dataclass_default():
    config = load_config(None)
    assert config["provider"] == asdict(ProviderConfig())
    assert config["folds"] == asdict(FoldSpec())


def _popularity_oracle(ratings_path):
    """Ratings per item, counted from the raw lines, in ascending item id order."""
    counts: dict[int, int] = {}
    for line in ratings_path.read_text(encoding="utf-8").splitlines():
        item = int(line.split("::")[1])
        counts[item] = counts.get(item, 0) + 1
    return dict(sorted(counts.items()))


def test_ingest_writes_popularity_and_summary(small_corpus, tmp_path):
    movies, ratings = small_corpus
    counts = _popularity_oracle(ratings)
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main, ["ingest", "--movies", str(movies), "--ratings", str(ratings), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    top = max(counts, key=lambda item: (counts[item], -item))
    assert result.output.splitlines() == [
        "movies: 300 (0 malformed lines)",
        f"ratings: {sum(counts.values())} (0 malformed lines)",
        f"items with ratings: {len(counts)}",
        "popularity quantiles (min/p25/p50/p75/max): 1/6/8/11/31",
        f"most popular item: {top} ({counts[top]} ratings)",
        f"wrote {out / 'popularity.csv'}",
    ]
    expected_csv = "item,count\r\n" + "".join(f"{i},{c}\r\n" for i, c in counts.items())
    assert (out / "popularity.csv").read_bytes() == expected_csv.encode("utf-8")
    assert json.loads((out / "ingest_summary.json").read_text(encoding="utf-8")) == {
        "items_with_ratings": len(counts),
        "max_popularity_item": top,
        "movie_parse_issues": 0,
        "movies": 300,
        "rating_parse_issues": 0,
        "ratings": sum(counts.values()),
    }


def test_ingest_reports_the_smaller_id_on_a_tie_for_most_popular(tmp_path):
    movies = tmp_path / "movies.dat"
    ratings = tmp_path / "ratings.dat"
    movies.write_text("".join(f"{i}::Movie {i} (1990)::Drama\n" for i in (3, 5, 8)), "utf-8")
    # Items 8 and 5 tie on three ratings each, and 8 comes first in the file.
    ratings.write_text(
        "".join(f"{u}::{i}::4::{10 * u + i}\n" for u in (1, 2, 3) for i in (8, 5))
        + "1::3::4::99\n",
        "utf-8",
    )
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main, ["ingest", "--movies", str(movies), "--ratings", str(ratings), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert "most popular item: 5 (3 ratings)" in result.output.splitlines()
    summary = json.loads((out / "ingest_summary.json").read_text(encoding="utf-8"))
    assert summary["max_popularity_item"] == 5


def test_fit_from_ratings_fits_the_popularity_counts(small_corpus):
    _, ratings = small_corpus
    result = CliRunner().invoke(main, ["fit", "--ratings", str(ratings)])
    assert result.exit_code == 0, result.output
    fit = fit_pareto([float(c) for c in _popularity_oracle(ratings).values()])
    assert result.output == (
        f"n: {fit.n}\nx_min: {fit.x_min:.6g}\nalpha: {fit.alpha:.4f}\nks_stat: {fit.ks_stat:.4f}\n"
    )
    assert result.output == "n: 300\nx_min: 1\nalpha: 0.4838\nks_stat: 0.4420\n"


def test_fit_notes_the_malformed_lines_it_leaves_out(small_corpus, tmp_path):
    _, ratings = small_corpus
    lines = ratings.read_text(encoding="utf-8").splitlines(keepends=True)
    broken = tmp_path / "broken.dat"
    broken.write_text("".join(lines[:4] + ["-7::3::4::100\n"] + lines[4:]), encoding="utf-8")
    clean = CliRunner().invoke(main, ["fit", "--ratings", str(ratings)])
    result = CliRunner().invoke(main, ["fit", "--ratings", str(broken)])
    assert result.exit_code == clean.exit_code == 0, result.output
    assert result.stdout == clean.stdout
    assert clean.stderr == ""
    assert result.stderr == (
        f"note: {broken}: 1 malformed line(s) left out, "
        "the first at line 5: user id has a minus sign ('-7::3::4::100')\n"
    )


def test_fit_reports_a_missing_ratings_file(tmp_path):
    missing = tmp_path / "ratings.dat"
    result = CliRunner().invoke(main, ["fit", "--ratings", str(missing)])
    assert result.exit_code == 1
    assert f"Error: ratings file not found: {missing}" in result.output
    assert isinstance(result.exception, SystemExit)


def test_strict_parse_names_the_malformed_line_and_lenient_run_skips_it(small_corpus, tmp_path):
    movies, ratings = small_corpus
    lines = ratings.read_text(encoding="utf-8").splitlines(keepends=True)
    broken = tmp_path / "broken.dat"
    broken.write_text("".join(lines[:100] + ["7::x::4::100\n"] + lines[100:]), encoding="utf-8")

    def run(ratings_path, out, *flags):
        args = ["evaluate", "--movies", str(movies), "--ratings", str(ratings_path)]
        args += ["--out", str(out), *flags]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"folds": {"fold_count": 2, "users_per_fold": 30}}))
        return CliRunner().invoke(main, [*args, "--config", str(config)])

    result = run(broken, tmp_path / "strict", "--strict-parse")
    assert result.exit_code == 1
    assert "ratings line 101: non-numeric field" in result.output
    # The output directory is made in set-up, before the data is read; nothing is written to it.
    assert list((tmp_path / "strict").iterdir()) == []

    outputs, stderr = [], []
    for name, path in (("lenient", broken), ("clean", ratings)):
        result = run(path, tmp_path / name)
        assert result.exit_code == 0, result.output
        stderr.append(result.stderr)
        manifest = json.loads((tmp_path / name / "manifest.json").read_text(encoding="utf-8"))
        del manifest["config"]["data"]
        outputs.append(((tmp_path / name / "report.csv").read_bytes(), manifest))
    assert outputs[0] == outputs[1]
    # The lenient run notes the line it left out, on stderr only.
    assert stderr == [
        f"note: {broken}: 1 malformed line(s) left out, "
        "the first at line 101: non-numeric field ('7::x::4::100')\n",
        "",
    ]

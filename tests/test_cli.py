import csv
import io
import json

from click.testing import CliRunner

from popbias.cli import main


def test_evaluate_reports_baselines_and_records_provider_error(small_corpus, tmp_path):
    movies, ratings = small_corpus
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "data": {"movies": str(movies), "ratings": str(ratings)},
                "folds": {"fold_count": 2, "users_per_fold": 30},
                "recommenders": ["random", "top_pop", "item_knn", "user_knn", "wok"],
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

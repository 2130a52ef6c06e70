import csv
import io
import json
from dataclasses import asdict

from click.testing import CliRunner

from popbias.cli import load_config, main
from popbias.evaluation import FoldSpec
from popbias.llm_gateway import ProviderConfig


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

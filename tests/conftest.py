import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from synthdata import make_corpus, write_corpus  # noqa: E402

TOY_MOVIES = """\
1::Toy Story (1995)::Animation|Children
2::Heat (1995)::Action
3::Matrix, The (1999)::Sci-Fi
4::Amélie (2001)::Romance
5::Se7en (1995)::Thriller
"""

TOY_RATINGS = """\
1::1::5::838985046
1::2::3.5::838983525
1::3::4::838983600
2::1::4::838984000
2::3::5::838984100
3::2::2.5::838984200
"""


@pytest.fixture(scope="session")
def toy_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("toy")
    movies = d / "movies.dat"
    ratings = d / "ratings.dat"
    movies.write_text(TOY_MOVIES, encoding="utf-8")
    ratings.write_text(TOY_RATINGS, encoding="utf-8")
    return movies, ratings


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """Small clustered corpus for CLI and gateway pipeline tests."""
    movies, ratings = make_corpus(
        seed=5, n_items=300, n_users=80, n_clusters=4, profile_lognorm=(3.4, 0.25)
    )
    return write_corpus(tmp_path_factory.mktemp("small_corpus"), movies, ratings)


@pytest.fixture(scope="session")
def eval_corpus(tmp_path_factory):
    """Full-scale corpus backing the evaluation-protocol acceptance test."""
    movies, ratings = make_corpus(seed=11)
    return write_corpus(tmp_path_factory.mktemp("eval_corpus"), movies, ratings)


def _skipped(config) -> int:
    reporter = config.pluginmanager.get_plugin("terminalreporter")
    return len(reporter.stats.get("skipped", ())) if reporter else 0


def pytest_sessionfinish(session, exitstatus):
    """Fail a run that skipped any test or module: tier-1 runs every test."""
    if exitstatus == pytest.ExitCode.OK and _skipped(session.config):
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config):
    if skipped := _skipped(config):
        terminalreporter.write_line(f"{skipped} skipped: tier-1 allows no skipped tests", red=True)

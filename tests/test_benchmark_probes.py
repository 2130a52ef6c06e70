"""The benchmark's hooks still find what they wrap.

``perfbench/child.py`` replaces public functions by name, and its traced
gate notices a silenced probe only after a full traced run. These tests read
the hook targets out of its source and check each one resolves, in about a
second.
"""

import ast
import importlib
from pathlib import Path

from popbias.catalog import Ratings, read_movies_file, read_ratings_file
from popbias.evaluation import FoldInputs, FoldSpec, make_folds
from popbias.llm_gateway import build_watch_history
from popbias.metrics import PhiArray

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _install_namespace(install: ast.FunctionDef) -> dict:
    """The names the imports inside ``install`` bind."""
    names = {}
    for node in ast.walk(install):
        if isinstance(node, ast.Import):
            for alias in node.names:
                module = importlib.import_module(alias.name)
                if alias.asname is None:
                    module = importlib.import_module(alias.name.partition(".")[0])
                names[alias.asname or alias.name.partition(".")[0]] = module
        elif isinstance(node, ast.ImportFrom):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    importlib.import_module(f"{node.module}.{alias.name}")
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def _is_wrap(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_wrap"


def _wrap_targets(install: ast.FunctionDef) -> list[tuple[ast.Call, ast.expr, str]]:
    """(call, owner expression, attribute) of every ``_wrap`` target, loop names expanded."""
    targets = []
    for node in ast.walk(install):
        if _is_wrap(node) and isinstance(node.args[1], ast.Constant):
            targets.append((node, node.args[0], node.args[1].value))
        elif isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            for call in filter(_is_wrap, ast.walk(node)):
                if getattr(call.args[1], "id", None) == node.target.id:
                    targets += [(call, call.args[0], elt.value) for elt in node.iter.elts]
    return targets


def test_every_wrapped_name_resolves():
    tree = ast.parse(CHILD.read_text(encoding="utf-8"))
    install = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "install"
    )
    names = _install_namespace(install)
    targets = _wrap_targets(install)
    # Every _wrap call names its target with a constant or a loop over constants.
    assert {id(call) for call, _, _ in targets} == {
        id(node) for node in ast.walk(install) if _is_wrap(node)
    }
    assert len(targets) > 20
    missing = []
    for _, owner_expr, attr in targets:
        owner = eval(compile(ast.Expression(owner_expr), str(CHILD), "eval"), names)
        if not hasattr(owner, attr):
            missing.append(f"{ast.unparse(owner_expr)}.{attr}")
    assert not missing


def test_split_train_and_parsed_ratings_have_what_the_benchmark_reads(toy_files):
    _, ratings_path = toy_files
    ratings, issues = read_ratings_file(ratings_path)
    assert len(ratings) == 6 and not issues

    rows = [(u, i, 4.0, 10 * i) for u in range(4) for i in range(12)]
    table = Ratings.from_columns(*zip(*rows))
    plan = make_folds(table, FoldSpec(fold_count=2, users_per_fold=2))
    for split in (split for fold in plan.folds for split in fold):
        assert split.train
        for it in split.train:
            assert isinstance(it.item, int) and isinstance(it.timestamp, int)


def test_each_split_reads_like_the_request_the_run_builds_for_it(small_corpus):
    # The benchmark keys `wok` validity tags to users by the watched set it
    # builds from split.train, and pins stub fixtures rendered from
    # split.train; the run passes request.exclude and renders request.profile.
    movies, ratings = small_corpus
    entries, _ = read_movies_file(movies)
    by_id = {entry.item: entry for entry in entries}
    plan = make_folds(read_ratings_file(ratings)[0], FoldSpec(fold_count=2, users_per_fold=30))
    for fold in plan.folds:
        # The requests read neither phi nor any metric.
        requests = FoldInputs.of(fold, PhiArray.of({}), ()).requests
        assert [request.user for request in requests] == [split.user for split in fold]
        for split, request in zip(fold, requests):
            assert request.exclude == frozenset(it.item for it in split.train)
            history = build_watch_history(split.train, by_id)
            assert history and history == build_watch_history(request.profile, by_id)

"""Benchmark of ``popbias evaluate``: end-to-end metrics and a traced layer breakdown.

Run from the root of a checkout::

    python3 perfbench/run.py --workload baselines --seed 0 --seconds 20 --trace 0

Each measured run is a fresh ``popbias evaluate`` process started through
``perfbench/child.py``. With ``--trace 0`` the run repeats untraced
evaluations while ``--seconds`` allow (at least one), then runs set-up-only
processes until ``--seconds`` are used and at least three set-up times exist,
and prints medians of the end-to-end metrics. With ``--trace 1`` it runs one untraced and one traced evaluation
and prints the per-layer metrics. Both apply the output gate; a failed check
prints the problems to stderr, publishes no metrics and exits 1.

The last stdout line is one JSON object: ``correct``, ``attempted`` and
``failed`` (scored recommender-user slates) and ``metrics``. Inputs, configs
and per-process outputs, spans included, are kept under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
from workloads import (
    LAYERS,
    METRIC_IDS,
    PER_LAYER_METRICS,
    REC_KEYS,
    TAGS,
    WORKLOADS,
    Workload,
    unit_of,
)

CHILD = Path(__file__).resolve().with_name("child.py")
RUN_DEADLINE_S = 170  # every process of one run is killed by then
MIN_SETUP_SAMPLES = 3
MAX_SETUP_SAMPLES = 20
K = 10
END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "slates_per_s": "1/s",
    "peak_rss_mb": "MB",
    "slot_fill_frac": "ratio",
}


class GateFailure(Exception):
    """The program's output failed a check; carries every problem found."""

    def __init__(self, problems: list[str]):
        super().__init__("\n".join(problems))
        self.problems = problems


def preflight() -> None:
    for needed in ("src/popbias/cli.py", "tests/synthdata.py"):
        if not Path(needed).is_file():
            sys.exit(f"perfbench: {needed} not found; run from the root of a popbias checkout")
    sys.path.insert(0, "src")  # the stub fixtures are keyed with popbias's own prompt hash


def _config(w: Workload, seed: int, data: inputs.Corpus) -> dict:
    """Run config: workload settings plus every value the inputs depend on."""
    folds = {"train_fraction": 0.8, "min_ratings": 10, **w.config["folds"], "seed": seed}
    return {
        **w.config,
        "data": {"movies": str(data.movies), "ratings": str(data.ratings)},
        "folds": folds,
        "k": K,
    }


def build_inputs(w: Workload, seed: int) -> dict:
    """Generate or reuse the inputs of one (workload, seed) and digest them."""
    name, base_seed, params = w.corpus
    data = inputs.corpus(name, base_seed + seed, params)
    cfg = _config(w, seed, data)
    digests = {
        "movies.dat": inputs.sha256_file(data.movies),
        "ratings.dat": inputs.sha256_file(data.ratings),
    }
    expected_tags: dict[int, list[str]] = {}
    nonexact = 0.0
    if w.stub_fixtures:
        fixtures, expected_tags, nonexact = inputs.stub_fixtures(w.name, seed, data, cfg["folds"], K)
        cfg["provider"] = {**cfg["provider"], "fixtures_dir": str(fixtures)}
        digests["stub_fixtures"] = inputs.fixtures_digest(fixtures)
    return {"cfg": cfg, "digests": digests, "expected_tags": expected_tags, "nonexact": nonexact}


def prepare(w: Workload, seed: int) -> dict:
    """Inputs whose digests match the pinned table, plus the written config."""
    prep = build_inputs(w, seed)
    drift = inputs.check_digests(w.name, seed, prep["digests"])
    if drift:
        raise GateFailure(drift)
    cfg_path = inputs.WORK_DIR / "config" / f"{w.name}-{seed}.json"
    cfg_path.parent.mkdir(parents=True, exist_ok=True)
    cfg_path.write_text(json.dumps(prep["cfg"], indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {**prep, "cfg_path": cfg_path}


def run_child(mode: str, cfg_path: Path, out_dir: Path, deadline: float) -> dict:
    """Run one popbias evaluate process; time it from spawn to reap.

    The process is killed at ``deadline`` (a time.monotonic value).
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    stats_path = out_dir / "stats.json"
    cmd = [
        sys.executable, str(CHILD), "--stats", str(stats_path), "--mode", mode,
        "--", "evaluate", "--config", str(cfg_path), "--out", str(out_dir),
    ]
    pythonpath = os.pathsep.join(p for p in ("src", os.environ.get("PYTHONPATH", "")) if p)
    env = dict(os.environ, PYTHONPATH=pythonpath)
    with open(out_dir / "stdout.txt", "wb") as out, open(out_dir / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not stats_path.is_file():
        tail = (out_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
        raise GateFailure([f"{mode} process exited with {proc.returncode}:\n{tail}"])
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    return {
        "t0": t0,
        "run_s": t1 - t0,
        "setup_s": stats["t_folds"] - t0,
        "rss_mb": usage.ru_maxrss / 1024,
        "stats": stats,
        "out": out_dir,
    }


def _expected_rows(cfg: dict) -> list[str]:
    model = cfg.get("provider", {}).get("model_name", "stub-model")
    return [f"wok-{model}" if r == "wok" else r for r in cfg["recommenders"]]


def _tree_digest(cfg_path: Path) -> str:
    """Digest of the popbias sources and the run config: what one output record is valid for."""
    h = hashlib.sha256(cfg_path.read_bytes())
    for path in sorted(Path("src").rglob("*.py")):
        h.update(str(path).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def check_evaluation(w: Workload, prep: dict, r: dict) -> list[str]:
    """Output gate for one full evaluation."""
    cfg, stats = prep["cfg"], r["stats"]
    problems = [f"slate check: {v}" for v in stats["violations"]]
    if stats["violation_count"] > len(stats["violations"]):
        problems.append(f"slate check: {stats['violation_count']} bad slates in all")
    with open(r["out"] / "report.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    names = [row["recommender"] for row in rows]
    if names != _expected_rows(cfg):
        problems.append(f"report.csv rows {names} != configured {_expected_rows(cfg)}")
    hr10 = {row["recommender"]: float(row["hr10"]) for row in rows}
    order = [hr10.get(name, float("nan")) for name in w.hr10_order]
    if any(not a > b for a, b in zip(order, order[1:])):
        problems.append(f"hr10 order {' > '.join(w.hr10_order)} broken: {order}")
    for key in cfg["recommenders"]:
        requests = stats["recs"].get(key, {}).get("requests", 0)
        if requests != stats["fold_users"]:
            problems.append(f"{key}: {requests} requests for {stats['fold_users']} fold users")
    if w.stub_fixtures:
        got = stats["tags"]
        wrong = [u for u, tags in prep["expected_tags"].items() if got.get(str(u)) != tags]
        for u in wrong[:5]:
            problems.append(f"user {u}: tags {got.get(str(u))} != planted {prep['expected_tags'][u]}")
        if wrong:
            problems.append(f"{len(wrong)} of {len(prep['expected_tags'])} users got unexpected tags")
    return problems


def check_repeatable(w: Workload, seed: int, cfg_path: Path, runs: list[dict]) -> list[str]:
    """report.csv and manifest.json must be byte-identical across runs of one source tree."""
    digests = [
        {n: inputs.sha256_file(r["out"] / n) for n in ("report.csv", "manifest.json")} for r in runs
    ]
    problems = [f"outputs differ between processes of one run: {d}" for d in digests[1:] if d != digests[0]]
    record = inputs.WORK_DIR / "outputs" / f"{w.name}-{seed}-{_tree_digest(cfg_path)}.json"
    if record.is_file():
        before = json.loads(record.read_text(encoding="utf-8"))
        if before != digests[0]:
            problems.append(f"outputs differ from an earlier run of this tree: {before} != {digests[0]}")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(digests[0]), encoding="utf-8")
    return problems


def slate_counts(prep: dict, r: dict) -> tuple[int, int, int]:
    """(attempted, failed, filled slots) of one evaluation.

    A slate fails if its batch raised, it came back empty, or its recommender
    is missing from the report because the command aborted it.
    """
    stats = r["stats"]
    with open(r["out"] / "report.csv", encoding="utf-8", newline="") as fh:
        reported = {row["recommender"] for row in csv.DictReader(fh)}
    attempted = failed = filled = 0
    for key, row_name in zip(prep["cfg"]["recommenders"], _expected_rows(prep["cfg"])):
        acc = stats["recs"].get(key, {})
        attempted += stats["fold_users"]
        if row_name not in reported:
            failed += stats["fold_users"]
            continue
        ok = acc.get("slates", 0) - acc.get("empty", 0)
        failed += stats["fold_users"] - ok
        filled += acc.get("filled", 0)
    return attempted, failed, filled


# --- traced run ------------------------------------------------------------


class Trace:
    def __init__(self, r: dict):
        t = r["stats"]["trace"]
        self.main_tid = t["main_tid"]
        self.spans = [tuple(s) for s in t["spans"]]
        self.totals = t["totals"]
        self.counts = t["counts"]

    def seconds(self, *names: str) -> float:
        return sum(s[4] - s[3] for s in self.spans if s[0] in names)

    def calls(self, name: str) -> int:
        if name in self.totals:
            return self.totals[name][0]
        if name in self.counts:
            return self.counts[name]
        return sum(1 for s in self.spans if s[0] == name)

    def top_level(self) -> list[tuple]:
        return sorted(
            (s for s in self.spans if s[1] == self.main_tid and s[2] is None), key=lambda s: s[3]
        )


def layer_metrics(w: Workload, prep: dict, plain: dict, traced: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced process, plus the problems its checks found.

    Checks: top-level spans of the main thread do not overlap and, with
    other_s, add up to the traced wall time; wok requests run on at most
    max_in_flight pool threads; every layer the workload exercises was called
    and every layer it bypasses was not.
    """
    tr = Trace(traced)
    stats = traced["stats"]
    problems: list[str] = []

    top = tr.top_level()
    for a, b in zip(top, top[1:]):
        if b[3] < a[4]:
            problems.append(f"top-level spans {a[0]} and {b[0]} overlap")
    other = traced["run_s"] - sum(s[4] - s[3] for s in top)
    if other < 0 or (top and (top[0][3] < traced["t0"] or top[-1][4] > traced["t0"] + traced["run_s"])):
        problems.append(f"top-level spans do not fit in the traced wall time (other_s={other})")

    # Per-request spans must stay on the pool threads of their batch.
    max_in_flight = prep["cfg"].get("provider", {}).get("max_in_flight", 0)
    worker_threads = 0
    for batch in (s for s in tr.spans if s[0] == "recommenders.wok.recommend_batch"):
        tids = {s[1] for s in tr.spans if s[0] == "llm_gateway.recommend" and batch[3] <= s[3] <= batch[4]}
        worker_threads = max(worker_threads, len(tids))
        if tr.main_tid in tids or len(tids) > max_in_flight:
            problems.append(f"wok requests ran on threads {sorted(tids)} (main {tr.main_tid})")

    for layer in LAYERS:
        for probe in layer.probes:
            n = tr.calls(probe)
            if w.name in layer.exercised_by and n == 0:
                problems.append(f"layer probe {probe} not called on {w.name}, which exercises it")
            if w.name in layer.bypassed_by and n != 0:
                problems.append(f"layer probe {probe} called {n} times on {w.name}, which bypasses it")

    resolve = tr.totals.get("catalog.resolve", [0, 0.0, 0, 0])
    tags: dict[str, int] = {}
    for user_tags in stats["tags"].values():
        for tag in user_tags:
            tags[tag] = tags.get(tag, 0) + 1
    recs = stats["recs"]
    batch_names = [f"recommenders.{key}.recommend_batch" for key in recs]
    wok_batch_s = tr.seconds("recommenders.wok.recommend_batch")

    m: dict[str, float] = {
        "cli.import_s": tr.seconds("cli.import"),
        "catalog.read_ratings_s": tr.seconds("catalog.read_ratings_file"),
        "catalog.read_movies_s": tr.seconds("catalog.read_movies_file"),
        "catalog.ratings_parsed": tr.counts.get("catalog.ratings_parsed", 0),
        "catalog.parse_issues": tr.counts.get("catalog.parse_issues", 0),
        "catalog.popularity_s": tr.seconds("catalog.compute_popularity"),
        "catalog.title_index_build_s": tr.seconds("catalog.TitleIndex.build"),
        "evaluation.make_folds_s": tr.seconds("evaluation.make_folds"),
        "evaluation.users_skipped": stats["users_skipped"],
        "catalog.resolve_calls": resolve[0],
        "catalog.resolve_s": resolve[1],
        "catalog.resolve_hit_ratio": resolve[3] / resolve[0] if resolve[0] else 0.0,
        "catalog.levenshtein_calls": tr.counts.get("catalog.levenshtein_calls", 0),
        "llm_gateway.history_s": tr.seconds("llm_gateway.build_watch_history"),
        "llm_gateway.render_s": tr.seconds("llm_gateway.render_prompt"),
        "llm_gateway.complete_s": tr.seconds("llm_gateway.complete_chat"),
        "llm_gateway.complete_calls": tr.calls("llm_gateway.complete_chat"),
        "llm_gateway.provider_errors": tr.counts.get("llm_gateway.provider_errors", 0),
        "llm_gateway.parse_s": tr.seconds("llm_gateway.parse_recommendations"),
        "llm_gateway.validate_s": tr.seconds("llm_gateway.validate_and_resolve"),
        "llm_gateway.overlap_ratio": (
            tr.seconds("llm_gateway.recommend") / wok_batch_s if wok_batch_s else 0.0
        ),
        "llm_gateway.worker_threads": worker_threads,
        "llm_gateway.fixture_nonexact_frac": prep["nonexact"],
        **{f"llm_gateway.tag.{t}": tags.get(t, 0) for t in TAGS},
        "recommenders.matrix_build_s": tr.seconds("recommenders.matrix_build"),
        "recommenders.item_knn_build_s": tr.seconds("recommenders.item_knn_build"),
        "recommenders.user_knn_build_s": tr.seconds("recommenders.user_knn_build"),
        "evaluation.score_s": tr.seconds("evaluation.evaluate_recommender") - tr.seconds(*batch_names),
        "evaluation.summarize_s": tr.seconds("evaluation.summarize"),
        "evaluation.report_s": tr.seconds("evaluation.emit_report", "evaluation.build_manifest"),
        "other_s": other,
        "trace_overhead_frac": traced["run_s"] / plain["run_s"] - 1,
    }
    for key in REC_KEYS:
        acc = recs.get(key, {})
        m[f"recommenders.{key}.batch_s"] = tr.seconds(f"recommenders.{key}.recommend_batch")
        m[f"recommenders.{key}.slates"] = acc.get("slates", 0)
        m[f"recommenders.{key}.short_slates"] = acc.get("short", 0)
        m[f"recommenders.{key}.empty_slates"] = acc.get("empty", 0)
    for metric_id in METRIC_IDS:
        calls, seconds, errors, _ = tr.totals.get(f"metrics.{metric_id}", [0, 0.0, 0, 0])
        m[f"metrics.{metric_id}.calls"] = calls
        m[f"metrics.{metric_id}.s"] = seconds
        m[f"metrics.{metric_id}.excluded"] = errors
    missing = set(PER_LAYER_METRICS) - set(m)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: m[name] for name in PER_LAYER_METRICS}, problems


# --- measurement -----------------------------------------------------------


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    prep = prepare(w, seed)
    run_dir = inputs.WORK_DIR / "runs" / f"{w.name}-{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    problems: list[str] = []

    def evaluation(mode: str) -> dict:
        r = run_child(mode, prep["cfg_path"], run_dir / f"{len(full)}-{mode}", deadline)
        problems.extend(check_evaluation(w, prep, r))
        full.append(r)
        return r

    full: list[dict] = []
    t_start = time.monotonic()
    if trace:
        plain = evaluation("plain")
        traced = evaluation("trace")
        layers, trace_problems = layer_metrics(w, prep, plain, traced)
        problems.extend(trace_problems)
    else:
        evaluation("plain")
        while time.monotonic() - t_start + full[-1]["run_s"] <= seconds:
            evaluation("plain")
        setups = [r["setup_s"] for r in full]
        while len(setups) < MIN_SETUP_SAMPLES or (
            time.monotonic() - t_start < seconds and len(setups) < MAX_SETUP_SAMPLES
        ):
            setup_dir = run_dir / f"setup-{len(setups)}"
            setups.append(run_child("setup", prep["cfg_path"], setup_dir, deadline)["setup_s"])
    if not problems:  # only outputs that passed the gate become the record
        problems.extend(check_repeatable(w, seed, prep["cfg_path"], full))
    if problems:
        raise GateFailure(problems)

    counts = [slate_counts(prep, r) for r in full]
    attempted = sum(c[0] for c in counts)
    failed = sum(c[1] for c in counts)
    summary = {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "slot_fill_frac": sum(c[2] for c in counts) / (K * attempted),
        "processes": len(full),
    }
    if trace:
        summary["untraced_run_s"] = round(plain["run_s"], 3)
        summary["traced_run_s"] = round(traced["run_s"], 3)
        return {**summary, "metrics": {name: (v, unit_of(name)) for name, v in layers.items()}}
    ok_rates = [(c[0] - c[1]) / (r["run_s"] - r["setup_s"]) for c, r in zip(counts, full)]
    metrics = {
        "run_s": statistics.median(r["run_s"] for r in full),
        "setup_s": statistics.median(setups),
        "slates_per_s": statistics.median(ok_rates),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in full),
        "slot_fill_frac": summary["slot_fill_frac"],
    }
    summary["setup_samples"] = len(setups)
    return {**summary, "metrics": {name: (v, END_TO_END_UNITS[name]) for name, v in metrics.items()}}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Benchmark popbias evaluate.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="input seed (>= 0); 0 is the reference")
    parser.add_argument("--seconds", type=float, default=20.0, help="measurement budget of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    opts = parser.parse_args(argv)
    if opts.seed < 0:
        parser.error("--seed must be >= 0")
    preflight()

    w = WORKLOADS[opts.workload]
    try:
        result = measure(w, opts.seed, opts.seconds, bool(opts.trace))
    except GateFailure as exc:
        print(f"perfbench: {w.name} seed {opts.seed}: output check failed:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  {problem}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0, "metrics": {}}))
        return 1

    shown = {**result["metrics"], "failed_frac": (result["failed_frac"], "ratio")}
    for name, (value, unit) in shown.items():
        print(f"{w.name:12s} {name:40s} {value:>14.6g} {unit}")
    extra = {
        k: result[k]
        for k in ("processes", "setup_samples", "untraced_run_s", "traced_run_s")
        if k in result
    }
    print(f"{w.name:12s} seed={opts.seed} trace={opts.trace} " + " ".join(f"{k}={v}" for k, v in extra.items()))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in result["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

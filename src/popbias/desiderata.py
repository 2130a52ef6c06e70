"""Property checks that separate usable popularity-bias metrics from broken ones.

Five desiderata are checked per metric: statistical well-behavedness,
zero-centering, anti-symmetry, long-tail sensitivity, and componentwise
monotonicity. Each check evaluates the real metric implementation on a
small pinned fixture (or a seeded resampling experiment) and returns a
verdict with a concrete witness, so the full metric-by-desideratum grid is
deterministic and auditable.

The checks run on the report's batch path and take the metric's record.
A fixture check lists its rows of (recommender scores, user scores), a
perturbed row being the same scores with epsilon added to one item or to
all of them, and scores them all in one ``evaluate_rows`` call over a
``PhiArray`` in which every row's items have ids of their own. The
resampling experiment reduces each drawn profile with the metric's own
transform and aggregate. A check that meets a value the metric leaves
undefined (NaN) raises ValueError.

A desiderata-only metric (PRU) ranks the items its two profiles share, so
its record sets two rules: each fixture row reads one shared profile, and
each drawn profile is compared against a drawn slate order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from popbias.distfit import sample_pareto
from popbias.metrics import METRICS, Metric, PhiArray, Profiles, registered_metric

__all__ = [
    "DESIDERATA",
    "PerturbationFixture",
    "SamplingConfig",
    "CheckVerdict",
    "check_desideratum",
    "desiderata_grid",
]

DESIDERATA = (
    "well_behaved",
    "zero_centered",
    "anti_symmetric",
    "long_tail_sensitive",
    "monotonic",
)

EXACT_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class PerturbationFixture:
    """Scores and perturbation size driving one deterministic check.

    ``target`` selects the perturbed recommender item for the monotonicity
    check; when None the perturbation lifts every recommender score, which
    is what exposes metrics blind to the overall popularity level.
    """

    recommender_scores: tuple[float, ...]
    user_scores: tuple[float, ...]
    epsilon: float = 1.0
    target: int | None = None

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if any(s < 1 for s in self.recommender_scores + self.user_scores):
            raise ValueError("fixture scores must be >= 1")
        if self.target is not None and not 0 <= self.target < len(self.recommender_scores):
            raise ValueError(
                f"target {self.target} is not a recommender item position "
                f"(0 to {len(self.recommender_scores) - 1})"
            )


@dataclass(frozen=True)
class SamplingConfig:
    """Seeded resampling experiment for the well-behavedness check.

    Draws ``resamples`` profiles of sizes n and 4n from a heavy-tailed
    popularity distribution (Pareto, density proportional to
    x^-(shape+1)) and compares the dispersion of the metric's profile
    aggregate at the two sizes. A well-behaved aggregate must not get
    noisier with more data: sd(4n) <= stability_ratio * sd(n). The raw
    mean of such scores has no finite expectation, so its dispersion grows
    by multiples; stable aggregates sit near or below 1.
    """

    n: int = 256
    resamples: int = 200
    shape: float = 0.68
    x_min: float = 1.0
    seed: int = 20240901
    stability_ratio: float = 1.25


@dataclass(frozen=True)
class CheckVerdict:
    desideratum: str
    metric: str
    passed: bool
    witness: str


def _default_fixture(metric: Metric, desideratum: str) -> PerturbationFixture:
    """Canonical fixture for each cell of the metric/desideratum grid.

    A desiderata-only metric (PRU) compares popularity against rank over
    the profile intersection, so its fixtures use one shared profile listed
    most-popular-first; the other metrics use disjoint profiles.
    """
    if metric.desiderata_only:
        eps = {"long_tail_sensitive": 0.5}.get(desideratum, 1.0)
        return PerturbationFixture(
            recommender_scores=(8.0, 4.0, 2.0, 1.0),
            user_scores=(8.0, 4.0, 2.0, 1.0),
            epsilon=eps,
        )
    if desideratum == "anti_symmetric":
        # AP(r) twice AP(u): surfaces the relative-difference asymmetry.
        return PerturbationFixture((1.0, 5.0), (1.0, 2.0))
    if desideratum == "monotonic":
        # Equal scores: a uniform lift leaves share-based aggregates flat.
        return PerturbationFixture((2.0, 2.0, 2.0, 2.0), (1.0, 2.0, 3.0, 4.0))
    if desideratum == "long_tail_sensitive":
        return PerturbationFixture((1.0, 2.0, 3.0, 4.0), (1.0, 2.0, 3.0, 4.0), epsilon=2.0)
    return PerturbationFixture((1.0, 2.0, 3.0, 4.0), (1.0, 2.0, 3.0, 4.0))


def _score_rows(
    metric: Metric, rows: Sequence[tuple[Sequence[float], Sequence[float] | None]]
) -> list[float]:
    """M of every (recommender scores, user scores) row, in one ``evaluate_rows`` call.

    Every row's items get ids of their own in one popularity map. A row
    whose user scores are None, and every row of a desiderata-only metric,
    reads its recommender items as the user profile. ValueError if any
    value is NaN.
    """
    phi: dict[int, float] = {}

    def items(scores: Sequence[float]) -> range:
        ids = range(len(phi), len(phi) + len(scores))
        phi.update(zip(ids, scores))
        return ids

    r_rows, u_rows = [], []
    for r_scores, u_scores in rows:
        r_rows.append(items(r_scores))
        shared = u_scores is None or metric.desiderata_only
        u_rows.append(r_rows[-1] if shared else items(u_scores))
    values = metric.evaluate_rows(Profiles.of(r_rows), Profiles.of(u_rows), PhiArray.of(phi))
    if np.isnan(values).any():
        raise ValueError(f"{metric.id} is undefined on this fixture")
    return values.tolist()


def _lifted(scores: Sequence[float], epsilon: float, target: int | None) -> list[float]:
    """The scores with epsilon added to the item at target, or to every item."""
    return [s + epsilon if target in (None, i) else s for i, s in enumerate(scores)]


def _zero_centered(metric: Metric, fixture: PerturbationFixture) -> tuple[bool, str]:
    (value,) = _score_rows(metric, [(fixture.recommender_scores, None)])
    return abs(value) < EXACT_ZERO_TOL, (
        f"M(p, p) = {value:.6g} on scores {list(fixture.recommender_scores)}"
    )


def _anti_symmetric(metric: Metric, fixture: PerturbationFixture) -> tuple[bool, str]:
    r, u = fixture.recommender_scores, fixture.user_scores
    forward, backward = _score_rows(metric, [(r, u), (u, r)])
    return abs(forward + backward) < EXACT_ZERO_TOL, (
        f"M(r, u) = {forward:.6g}, M(u, r) = {backward:.6g}"
    )


def _long_tail_sensitive(metric: Metric, fixture: PerturbationFixture) -> tuple[bool, str]:
    r, u, eps = fixture.recommender_scores, fixture.user_scores, fixture.epsilon
    least, most = int(np.argmin(r)), int(np.argmax(r))
    base, low, high = _score_rows(
        metric, [(r, u), (_lifted(r, eps, least), u), (_lifted(r, eps, most), u)]
    )
    low_resp = abs(low - base)
    high_resp = abs(high - base)
    return low_resp > high_resp, (
        f"+{eps:g} on least-popular item moves metric by {low_resp:.6g}, "
        f"on most-popular by {high_resp:.6g}"
    )


def _monotonic(metric: Metric, fixture: PerturbationFixture) -> tuple[bool, str]:
    r, u, eps = fixture.recommender_scores, fixture.user_scores, fixture.epsilon
    base, lifted = _score_rows(metric, [(r, u), (_lifted(r, eps, fixture.target), u)])
    delta = lifted - base
    what = (
        f"item {fixture.target}" if fixture.target is not None else "all recommender scores"
    )
    if delta == 0.0:
        return False, f"metric unchanged by +{eps:g} on {what}"
    return delta > 0.0, f"+{eps:g} on {what} changes metric by {delta:.6g}"


_FIXTURE_CHECKS = {
    "zero_centered": _zero_centered,
    "anti_symmetric": _anti_symmetric,
    "long_tail_sensitive": _long_tail_sensitive,
    "monotonic": _monotonic,
}


def _well_behaved(metric: Metric, cfg: SamplingConfig) -> tuple[bool, str]:
    """Compare the spread of h(g(scores)) over drawn profiles of sizes n and 4n.

    A desiderata-only metric (PRU) keeps the scores in its aggregate and
    correlates them with a slate order drawn after each profile. ValueError
    if a drawn profile's value is NaN.
    """
    rng = np.random.default_rng(cfg.seed)
    sds = []
    for size in (cfg.n, 4 * cfg.n):
        values = []
        for _ in range(cfg.resamples):
            block = sample_pareto(size, cfg.shape, cfg.x_min, rng=rng)[None, :]
            value = metric.aggregate(metric.transform(block))[0]
            if metric.desiderata_only:
                value = metric.compare(value, rng.permutation(size) + 1.0)
            values.append(value)
        if np.isnan(values).any():
            raise ValueError(f"{metric.id} is undefined on a drawn profile")
        sds.append(float(np.std(values, ddof=1)))
    ratio = sds[1] / sds[0] if sds[0] > 0 else float("inf")
    return ratio <= cfg.stability_ratio, (
        f"aggregate sd ratio at 4n vs n = {ratio:.3g} "
        f"(stability limit {cfg.stability_ratio:g}, n={cfg.n}, B={cfg.resamples})"
    )


def check_desideratum(
    metric_id: str,
    desideratum: str,
    fixture: PerturbationFixture | None = None,
    sampling: SamplingConfig | None = None,
) -> CheckVerdict:
    """Check one metric against one desideratum.

    Uses the canonical pinned fixture (or sampling config) when none is
    supplied, which is what the reference grid is built from. A
    desiderata-only metric reads one shared profile, so its fixture's two
    score lists must be equal.
    """
    metric = registered_metric(metric_id)
    if desideratum not in DESIDERATA:
        raise ValueError(f"unknown desideratum {desideratum!r}")
    if desideratum == "well_behaved":
        passed, witness = _well_behaved(metric, sampling or SamplingConfig())
    else:
        fixture = fixture or _default_fixture(metric, desideratum)
        if metric.desiderata_only and fixture.user_scores != fixture.recommender_scores:
            raise ValueError(
                f"a {metric.id} fixture is one shared profile: its two score lists must be equal"
            )
        passed, witness = _FIXTURE_CHECKS[desideratum](metric, fixture)
    return CheckVerdict(desideratum, metric.id, passed, witness)


def desiderata_grid(metric_ids: Sequence[str] | None = None) -> list[CheckVerdict]:
    """Run every desideratum check for the requested metrics (default: all).

    A repeated id is refused. The first row checks every metric, so an
    unknown id fails there.
    """
    ids = list(metric_ids) if metric_ids is not None else list(METRICS)
    repeated = [metric_id for metric_id in ids if ids.count(metric_id) > 1]
    if repeated:
        raise ValueError(f"metrics lists {repeated[0]!r} more than once")
    return [check_desideratum(metric_id, d) for d in DESIDERATA for metric_id in ids]

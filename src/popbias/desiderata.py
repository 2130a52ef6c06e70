"""Property checks that separate usable popularity-bias metrics from broken ones.

Five desiderata are checked per metric: statistical well-behavedness,
zero-centering, anti-symmetry, long-tail sensitivity, and componentwise
monotonicity. Each check evaluates the real metric implementation on a
small pinned fixture (or a seeded resampling experiment) and returns a
verdict with a concrete witness, so the full metric-by-desideratum grid is
deterministic and auditable.

The checks run on the report's batch path: a fixture is a one-row
``Profiles`` pair that the metric's ``evaluate_rows`` scores over a
``PhiArray``, and the resampling experiment reduces each drawn profile with
the metric's own transform and aggregate. A check that meets a value the
metric leaves undefined (NaN) raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from popbias.distfit import sample_pareto
from popbias.metrics import METRICS, PhiArray, Profiles

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


def _default_fixture(metric_id: str, desideratum: str) -> PerturbationFixture:
    """Canonical fixture for each cell of the metric/desideratum grid.

    PRU compares popularity against rank over the profile intersection, so
    its fixtures use one shared profile listed most-popular-first; the
    other metrics use disjoint profiles.
    """
    if metric_id == "pru":
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


def _build_profiles(
    metric_id: str, fixture: PerturbationFixture, identical: bool = False
) -> tuple[Profiles, Profiles, dict[int, float]]:
    """Materialize fixture scores as one-row item profiles plus a popularity map.

    PRU's profiles are one shared profile, so a PRU fixture whose user scores
    differ from its recommender scores raises ValueError.
    """
    if metric_id == "pru" and fixture.user_scores != fixture.recommender_scores:
        raise ValueError("a pru fixture is one shared profile: its two score lists must be equal")
    r_items = range(1000, 1000 + len(fixture.recommender_scores))
    phi = dict(zip(r_items, fixture.recommender_scores))
    if identical or metric_id == "pru":
        return Profiles.of([r_items]), Profiles.of([r_items]), phi
    u_items = range(2000, 2000 + len(fixture.user_scores))
    phi.update(zip(u_items, fixture.user_scores))
    return Profiles.of([r_items]), Profiles.of([u_items]), phi


def _evaluate(metric_id: str, r: Profiles, u: Profiles, phi: dict[int, float]) -> float:
    """M of a one-row fixture, scored on the batch path; ValueError where it is NaN."""
    value = float(METRICS[metric_id].evaluate_rows(r, u, PhiArray.of(phi))[0])
    if np.isnan(value):
        raise ValueError(f"{metric_id} is undefined on this fixture")
    return value


def _perturbed_phi(
    phi: dict[int, float], r: Profiles, epsilon: float, target: int | None
) -> dict[int, float]:
    """Copy of phi with epsilon added to one (or every) recommender item."""
    out = dict(phi)
    items = r.items.tolist()
    for a in items if target is None else [items[target]]:
        out[a] = phi[a] + epsilon
    return out


def _check_zero_centered(metric_id: str, fixture: PerturbationFixture) -> CheckVerdict:
    r, u, phi = _build_profiles(metric_id, fixture, identical=True)
    value = _evaluate(metric_id, r, u, phi)
    passed = abs(value) < EXACT_ZERO_TOL
    return CheckVerdict(
        "zero_centered", metric_id, passed, f"M(p, p) = {value:.6g} on scores {list(fixture.recommender_scores)}"
    )


def _check_anti_symmetric(metric_id: str, fixture: PerturbationFixture) -> CheckVerdict:
    r, u, phi = _build_profiles(metric_id, fixture)
    forward = _evaluate(metric_id, r, u, phi)
    backward = _evaluate(metric_id, u, r, phi)
    passed = abs(forward + backward) < EXACT_ZERO_TOL
    return CheckVerdict(
        "anti_symmetric",
        metric_id,
        passed,
        f"M(r, u) = {forward:.6g}, M(u, r) = {backward:.6g}",
    )


def _check_long_tail(metric_id: str, fixture: PerturbationFixture) -> CheckVerdict:
    r, u, phi = _build_profiles(metric_id, fixture)
    base = _evaluate(metric_id, r, u, phi)
    low_target = int(np.argmin(fixture.recommender_scores))
    high_target = int(np.argmax(fixture.recommender_scores))
    low = _evaluate(metric_id, r, u, _perturbed_phi(phi, r, fixture.epsilon, low_target))
    high = _evaluate(metric_id, r, u, _perturbed_phi(phi, r, fixture.epsilon, high_target))
    low_resp = abs(low - base)
    high_resp = abs(high - base)
    passed = low_resp > high_resp
    return CheckVerdict(
        "long_tail_sensitive",
        metric_id,
        passed,
        f"+{fixture.epsilon:g} on least-popular item moves metric by {low_resp:.6g}, "
        f"on most-popular by {high_resp:.6g}",
    )


def _check_monotonic(metric_id: str, fixture: PerturbationFixture) -> CheckVerdict:
    r, u, phi = _build_profiles(metric_id, fixture)
    base = _evaluate(metric_id, r, u, phi)
    lifted = _evaluate(metric_id, r, u, _perturbed_phi(phi, r, fixture.epsilon, fixture.target))
    delta = lifted - base
    what = (
        f"item {fixture.target}" if fixture.target is not None else "all recommender scores"
    )
    if delta == 0.0:
        witness = f"metric unchanged by +{fixture.epsilon:g} on {what}"
    else:
        witness = f"+{fixture.epsilon:g} on {what} changes metric by {delta:.6g}"
    return CheckVerdict("monotonic", metric_id, delta > 0.0, witness)


def _sampled_statistic(
    metric_id: str, size: int, cfg: SamplingConfig, rng: np.random.Generator
) -> float:
    """h(g(scores)) of one drawn profile; ValueError where it is NaN.

    PRU's aggregate keeps the scores, which it correlates with a slate order
    drawn from rng.
    """
    metric = METRICS[metric_id]
    block = sample_pareto(size, cfg.shape, cfg.x_min, rng)[None, :]
    value = metric.aggregate(metric.transform(block))[0]
    if metric_id == "pru":
        value = metric.compare(value, rng.permutation(size) + 1.0)
    if np.isnan(value):
        raise ValueError(f"{metric_id} is undefined on a drawn profile")
    return float(value)


def _check_well_behaved(metric_id: str, cfg: SamplingConfig) -> CheckVerdict:
    rng = np.random.default_rng(cfg.seed)
    sds = []
    for size in (cfg.n, 4 * cfg.n):
        values = [_sampled_statistic(metric_id, size, cfg, rng) for _ in range(cfg.resamples)]
        sds.append(float(np.std(values, ddof=1)))
    ratio = sds[1] / sds[0] if sds[0] > 0 else float("inf")
    passed = ratio <= cfg.stability_ratio
    return CheckVerdict(
        "well_behaved",
        metric_id,
        passed,
        f"aggregate sd ratio at 4n vs n = {ratio:.3g} "
        f"(stability limit {cfg.stability_ratio:g}, n={cfg.n}, B={cfg.resamples})",
    )


def check_desideratum(
    metric_id: str,
    desideratum: str,
    fixture: PerturbationFixture | None = None,
    sampling: SamplingConfig | None = None,
) -> CheckVerdict:
    """Check one metric against one desideratum.

    Uses the canonical pinned fixture (or sampling config) when none is
    supplied, which is what the reference grid is built from.
    """
    if metric_id not in METRICS:
        raise ValueError(f"unknown metric {metric_id!r}")
    if desideratum not in DESIDERATA:
        raise ValueError(f"unknown desideratum {desideratum!r}")
    if desideratum == "well_behaved":
        return _check_well_behaved(metric_id, sampling or SamplingConfig())
    fixture = fixture or _default_fixture(metric_id, desideratum)
    if desideratum == "zero_centered":
        return _check_zero_centered(metric_id, fixture)
    if desideratum == "anti_symmetric":
        return _check_anti_symmetric(metric_id, fixture)
    if desideratum == "long_tail_sensitive":
        return _check_long_tail(metric_id, fixture)
    return _check_monotonic(metric_id, fixture)


def desiderata_grid(
    metric_ids: Sequence[str] | None = None,
    sampling: SamplingConfig | None = None,
) -> list[CheckVerdict]:
    """Run every desideratum check for the requested metrics (default: all)."""
    ids = list(metric_ids) if metric_ids is not None else list(METRICS)
    for metric_id in ids:
        if metric_id not in METRICS:
            raise ValueError(f"unknown metric {metric_id!r}")
    return [
        check_desideratum(metric_id, d, sampling=sampling)
        for d in DESIDERATA
        for metric_id in ids
    ]

import math

import numpy as np
import pytest

from popbias.distfit import ParetoFit, fit_pareto, ks_statistic, sample_pareto


def test_recovers_shape_from_synthetic_sample():
    # Oracle: inverse-transform sampling x = x_min * U^(-1/alpha).
    rng = np.random.default_rng(20240815)
    samples = sample_pareto(100_000, 0.68, rng=rng)
    fit = fit_pareto(samples, x_min=1.0)
    assert 0.68 * 0.95 <= fit.alpha <= 0.68 * 1.05
    assert fit.ks_stat < 0.01
    assert fit.n == 100_000


def test_near_degenerate_sample_gives_huge_alpha():
    rng = np.random.default_rng(0)
    samples = 1.0 + rng.random(50) * 1e-9
    fit = fit_pareto(samples, x_min=1.0)
    assert fit.alpha > 1e6


def test_exactly_degenerate_sample_gives_infinity():
    fit = fit_pareto([2.0] * 20)
    assert math.isinf(fit.alpha)


def test_x_min_defaults_to_sample_minimum():
    fit = fit_pareto([3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0])
    assert fit.x_min == 3.0


def test_too_few_samples():
    with pytest.raises(ValueError, match="at least 10"):
        fit_pareto([1.0] * 9)


def test_sample_below_x_min():
    with pytest.raises(ValueError, match="below x_min"):
        fit_pareto([0.5] + [2.0] * 10, x_min=1.0)


def test_nonpositive_samples_rejected():
    with pytest.raises(ValueError, match="positive"):
        fit_pareto([-1.0] + [2.0] * 10)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_samples_rejected(bad):
    with pytest.raises(ValueError, match="samples must be finite"):
        fit_pareto([bad] + [2.0] * 10)


@pytest.mark.parametrize("x_min", [math.nan, math.inf])
def test_non_finite_x_min_rejected(x_min):
    with pytest.raises(ValueError, match="x_min must be positive and finite"):
        fit_pareto([2.0] * 11, x_min=x_min)


def test_scale_equivariance():
    rng = np.random.default_rng(7)
    samples = sample_pareto(5_000, 1.3, x_min=2.0, rng=rng)
    base = fit_pareto(samples, x_min=2.0)
    scaled = fit_pareto(samples * 10.0, x_min=20.0)
    assert scaled.alpha == pytest.approx(base.alpha, rel=1e-12)
    assert scaled.ks_stat == pytest.approx(base.ks_stat, rel=1e-12)


def test_mle_error_shrinks_with_sample_size():
    rng = np.random.default_rng(123)
    errors = []
    for n in (1_000, 10_000, 100_000):
        fit = fit_pareto(sample_pareto(n, 0.68, rng=rng), x_min=1.0)
        errors.append(abs(fit.alpha - 0.68))
    assert errors[2] < errors[1] < errors[0]


class TestKsStatistic:
    def test_exact_sample_small_distance(self):
        rng = np.random.default_rng(99)
        samples = sample_pareto(100_000, 1.0, rng=rng)
        fit = ParetoFit(alpha=1.0, x_min=1.0, ks_stat=0.0, n=len(samples))
        assert ks_statistic(samples, fit) < 0.01

    def test_constant_sample_against_continuous_fit(self):
        fit = ParetoFit(alpha=1.0, x_min=1.0, ks_stat=0.0, n=10)
        # Point mass at 2*x_min vs continuous CDF: sup distance = F(2) = 0.5
        # approached from below and 1 - F(2) = 0.5 from above.
        assert ks_statistic([2.0] * 10, fit) == pytest.approx(0.5)

    def test_two_point_hand_computation(self):
        # F(x_min) = 0, F(2 x_min) = 0.5; empirical jumps 0->.5->1.
        fit = ParetoFit(alpha=1.0, x_min=1.0, ks_stat=0.0, n=2)
        assert ks_statistic([1.0, 2.0], fit) == pytest.approx(0.5)

    def test_empty_errors(self):
        fit = ParetoFit(alpha=1.0, x_min=1.0, ks_stat=0.0, n=0)
        with pytest.raises(ValueError, match="empty"):
            ks_statistic([], fit)


def test_sampler_respects_bounds():
    rng = np.random.default_rng(5)
    samples = sample_pareto(1_000, 0.68, x_min=3.0, rng=rng)
    assert np.all(samples >= 3.0)
    with pytest.raises(ValueError):
        sample_pareto(10, -1.0, rng=rng)

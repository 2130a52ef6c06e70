import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from popbias.cli import main
from popbias.desiderata import (
    DESIDERATA,
    PerturbationFixture,
    SamplingConfig,
    check_desideratum,
    desiderata_grid,
)
from popbias.metrics import METRICS, Metric, RankCorrelationMetric

# Reference verdict pattern: which metric satisfies which desideratum.
EXPECTED = {
    "well_behaved": {
        "avg_pop_lift": False,
        "gini_diff": True,
        "pru": True,
        "herfindahl_diff": True,
        "log_pop_diff": True,
    },
    "zero_centered": {
        "avg_pop_lift": True,
        "gini_diff": True,
        "pru": False,
        "herfindahl_diff": True,
        "log_pop_diff": True,
    },
    "anti_symmetric": {
        "avg_pop_lift": False,
        "gini_diff": True,
        "pru": False,
        "herfindahl_diff": True,
        "log_pop_diff": True,
    },
    "long_tail_sensitive": {
        "avg_pop_lift": False,
        "gini_diff": True,
        "pru": False,
        "herfindahl_diff": False,
        "log_pop_diff": True,
    },
    "monotonic": {
        "avg_pop_lift": True,
        "gini_diff": False,
        "pru": False,
        "herfindahl_diff": False,
        "log_pop_diff": True,
    },
}


def test_full_grid_matches_expected_pattern():
    verdicts = desiderata_grid()
    assert len(verdicts) == 25
    for v in verdicts:
        assert v.passed == EXPECTED[v.desideratum][v.metric], (
            f"{v.metric}/{v.desideratum}: expected "
            f"{EXPECTED[v.desideratum][v.metric]}, got {v.passed} ({v.witness})"
        )


def test_log_pop_diff_passes_everything():
    for d in DESIDERATA:
        assert check_desideratum("log_pop_diff", d).passed


def test_avg_pop_lift_asymmetry_witness():
    verdict = check_desideratum("avg_pop_lift", "anti_symmetric")
    assert not verdict.passed
    assert "1" in verdict.witness and "-0.5" in verdict.witness


def test_gini_monotonic_witness_names_unchanged():
    verdict = check_desideratum("gini_diff", "monotonic")
    assert not verdict.passed
    assert "unchanged" in verdict.witness


def test_failed_verdicts_carry_witness():
    for v in desiderata_grid():
        if not v.passed:
            assert v.witness


def test_unknown_inputs_rejected():
    with pytest.raises(ValueError, match="unknown metric"):
        check_desideratum("nope", "monotonic")
    with pytest.raises(ValueError, match="unknown desideratum"):
        check_desideratum("log_pop_diff", "nope")
    with pytest.raises(ValueError, match="unknown metric"):
        desiderata_grid(metric_ids=["log_pop_diff", "nope"])
    # An unhashable id is unknown too, and the message lists the known ids.
    known = re.escape("(known: avg_pop_lift, gini_diff, herfindahl_diff, log_pop_diff, pru)")
    with pytest.raises(ValueError, match=rf"^unknown metric \['log_pop_diff'\] {known}$"):
        check_desideratum(["log_pop_diff"], "monotonic")
    with pytest.raises(ValueError, match=rf"^unknown metric \['x'\] {known}$"):
        desiderata_grid([["x"]])


def test_custom_fixture_single_item_lift():
    # With a single perturbed item instead of a uniform lift, the Gini of an
    # all-equal profile increases, so the metric reacts.
    fixture = PerturbationFixture((2.0, 2.0, 2.0), (1.0, 2.0, 4.0), epsilon=1.0, target=0)
    verdict = check_desideratum("gini_diff", "monotonic", fixture=fixture)
    assert verdict.passed


def test_fixture_validation():
    with pytest.raises(ValueError, match="epsilon"):
        PerturbationFixture((1.0,), (1.0,), epsilon=0.0)
    with pytest.raises(ValueError, match=">= 1"):
        PerturbationFixture((0.5,), (1.0,))
    for target in (-1, 3):
        with pytest.raises(ValueError, match=f"target {target} is not"):
            PerturbationFixture((1.0, 2.0, 3.0), (1.0,), target=target)
    PerturbationFixture((1.0, 2.0, 3.0), (1.0,), target=2)


def test_a_check_that_meets_nan_raises():
    # PRU needs 2 shared items; a one-item fixture leaves it undefined.
    with pytest.raises(ValueError, match="undefined"):
        check_desideratum("pru", "zero_centered", fixture=PerturbationFixture((2.0,), (2.0,)))
    # Equal popularity leaves the rank correlation undefined too.
    with pytest.raises(ValueError, match="undefined"):
        check_desideratum("pru", "monotonic", fixture=PerturbationFixture((2.0, 2.0), (2.0, 2.0)))


def test_a_pru_fixture_with_its_own_user_scores_is_rejected():
    # PRU reads one shared profile, so user scores of their own would be dropped.
    for user_scores in ((9.0, 5.0, 7.0), (1.0,)):
        fixture = PerturbationFixture((1.0, 2.0, 3.0), user_scores)
        with pytest.raises(ValueError, match="two score lists must be equal"):
            check_desideratum("pru", "anti_symmetric", fixture=fixture)
    shared = PerturbationFixture((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))
    assert check_desideratum("pru", "anti_symmetric", fixture=shared).witness == (
        "M(r, u) = -1, M(u, r) = -1"
    )


def test_witnesses_output_is_pinned():
    expected = (Path(__file__).parent / "desiderata_witnesses.txt").read_text(encoding="utf-8")
    result = CliRunner().invoke(main, ["desiderata", "--witnesses"])
    assert result.exit_code == 0, result.output
    assert result.output == expected


def test_metric_filter():
    verdicts = desiderata_grid(metric_ids=["pru"])
    assert {v.metric for v in verdicts} == {"pru"}
    assert len(verdicts) == len(DESIDERATA)


def test_well_behaved_ratio_scales_with_config():
    cfg = SamplingConfig(n=64, resamples=60, seed=3)
    verdict = check_desideratum("log_pop_diff", "well_behaved", sampling=cfg)
    assert verdict.passed
    assert "sd ratio" in verdict.witness


def test_grid_covers_all_metrics_and_desiderata():
    verdicts = desiderata_grid()
    assert {(v.desideratum, v.metric) for v in verdicts} == {
        (d, m) for d in DESIDERATA for m in METRICS
    }


@pytest.mark.parametrize(
    ("desideratum", "rows"),
    [("zero_centered", 1), ("anti_symmetric", 2), ("long_tail_sensitive", 3), ("monotonic", 2)],
)
def test_each_fixture_check_scores_all_its_rows_in_one_call(monkeypatch, desideratum, rows):
    calls = []
    for cls in (Metric, RankCorrelationMetric):

        def counted(self, r, u, phi, original=cls.evaluate_rows):
            calls.append((self.id, len(r), len(u)))
            return original(self, r, u, phi)

        monkeypatch.setattr(cls, "evaluate_rows", counted)
    for metric_id in METRICS:
        calls.clear()
        check_desideratum(metric_id, desideratum)
        assert calls == [(metric_id, rows, rows)]

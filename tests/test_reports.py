"""Report serialization, pass logic, fits, and seeded randomness."""

import numpy as np
import pytest

from extomo.errors import InvalidArgumentError
from extomo.reports import (ExperimentReport, GrowthFit, experiment_rng,
                            fit_log_growth)


class TestExperimentReport:
    def test_pass_requires_all_checks(self):
        rep = ExperimentReport(name="t")
        rep.check("a", 0.5, hi=1.0)
        assert rep.pass_
        rep.check("b", 2.0, hi=1.0)
        assert not rep.pass_

    def test_recorded_metrics_do_not_gate(self):
        rep = ExperimentReport(name="t")
        rep.record("informational", 1e9)
        assert rep.pass_

    def test_nan_fails(self):
        rep = ExperimentReport(name="t")
        rep.check("a", np.nan, hi=1.0)
        assert not rep.pass_

    def test_one_sided_checks(self):
        rep = ExperimentReport(name="t")
        rep.check("lower", 5.0, lo=1.0)
        rep.check("upper", -3.0, hi=0.0)
        assert rep.pass_

    def test_json_round_trip(self, tmp_path):
        rep = ExperimentReport(name="t", seed=7, params={"x": [1, 2]})
        rep.check("a", 0.25, hi=1.0)
        rep.record("b", -4.0)
        rep.raw_data["sweep"] = [1.0, 2.0, 3.0]
        rep.notes.append("note text")
        path = tmp_path / "report.json"
        rep.to_json(path)
        back = ExperimentReport.from_json(path.read_text())
        assert back.name == rep.name
        assert back.seed == rep.seed
        assert back.metrics == rep.metrics
        assert back.tolerances == rep.tolerances
        assert back.raw_data == rep.raw_data
        assert back.pass_ == rep.pass_

    @pytest.mark.parametrize("text", [
        "[]", "{}", '"report"', '{"params": {}}',
        '{"name": "t", "metrics": {}, "extra": 1}'])
    def test_json_that_is_not_a_report_is_a_value_error(self, text):
        # an object without a name, or with a key that is not a report
        # field (``pass`` aside), is not a report
        with pytest.raises(ValueError, match="not a report object"):
            ExperimentReport.from_json(text)

    def test_summary_has_verdict_line(self):
        rep = ExperimentReport(name="thing")
        rep.check("a", 0.5, hi=1.0)
        assert rep.summary().splitlines()[0] == "[PASS] thing"
        rep.check("a", 2.0, hi=1.0)
        assert rep.summary().splitlines()[0] == "[FAIL] thing"


class TestFitLogGrowth:
    def test_exact_line(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        fit = fit_log_growth(x, 2.5 * x - 1.0)
        assert fit.slope == pytest.approx(2.5)
        assert fit.intercept == pytest.approx(-1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_noisy_line(self):
        rng = np.random.default_rng(0)
        x = np.linspace(0, 10, 50)
        y = 3.0 * x + rng.normal(0, 0.1, 50)
        fit = fit_log_growth(x, y)
        assert fit.slope == pytest.approx(3.0, abs=0.05)
        assert fit.r_squared > 0.99

    def test_single_point_rejected(self):
        with pytest.raises(InvalidArgumentError):
            fit_log_growth([2.0], [1.0])

    def test_repeated_abscissa_rejected(self):
        with pytest.raises(InvalidArgumentError):
            fit_log_growth([2.0, 2.0], [1.0, 3.0])

    def test_predicted_matches(self):
        fit = GrowthFit(abscissae=np.array([0.0, 1.0]),
                        ordinates=np.array([1.0, 3.0]),
                        slope=2.0, intercept=1.0, r_squared=1.0)
        assert np.allclose(fit.predicted(), [1.0, 3.0])


class TestExperimentRng:
    def test_deterministic(self):
        a = experiment_rng(0, "exp").uniform(size=5)
        b = experiment_rng(0, "exp").uniform(size=5)
        assert np.array_equal(a, b)

    def test_name_separates_streams(self):
        a = experiment_rng(0, "exp-a").uniform(size=5)
        b = experiment_rng(0, "exp-b").uniform(size=5)
        assert not np.array_equal(a, b)

    def test_seed_separates_streams(self):
        a = experiment_rng(0, "exp").uniform(size=5)
        b = experiment_rng(1, "exp").uniform(size=5)
        assert not np.array_equal(a, b)

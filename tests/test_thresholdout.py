import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from radabound.errors import ConfigurationError
from radabound.thresholdout import (
    PUBLISHED_EXAMPLE_N,
    ThresholdoutParams,
    comparison_report,
    min_holdout_size,
)


def params(k=10, budget=1, epsilon=0.5, delta=0.1):
    return ThresholdoutParams(k=k, budget=budget, epsilon=epsilon, delta=delta)


class TestMinHoldoutSize:
    def test_frozen_value_worked_example_params(self):
        assert min_holdout_size(params()) == pytest.approx(
            36811.558177431441327, rel=1e-12
        )

    def test_frozen_value_small_epsilon(self):
        assert min_holdout_size(params(epsilon=0.05)) == pytest.approx(
            3681155.8177431441327, rel=1e-12
        )

    def test_branch_selection(self):
        # small budget: the sqrt branch dominates, min picks 16 B
        p_small = params(budget=1)
        assert min_holdout_size(p_small) == pytest.approx(
            96.0 / 0.5**2 * math.log(400.0) * 16.0, rel=1e-12
        )
        # huge budget: the linear branch dominates, min picks the sqrt branch
        p_big = params(budget=10**6)
        expected = (
            96.0 / 0.5**2
            * math.log(400.0)
            * 80.0
            * math.sqrt(10**6 * math.log(20.0))
        )
        assert min_holdout_size(p_big) == pytest.approx(expected, rel=1e-12)

    def test_monotonicities(self):
        assert min_holdout_size(params(epsilon=0.25)) > min_holdout_size(params())
        assert min_holdout_size(params(k=100)) > min_holdout_size(params(k=10))
        assert min_holdout_size(params(budget=4)) > min_holdout_size(params(budget=1))

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            params(k=0)
        with pytest.raises(ConfigurationError):
            params(budget=0)
        with pytest.raises(ConfigurationError):
            params(epsilon=0.0)
        with pytest.raises(ConfigurationError):
            params(delta=1.0)

    def test_numpy_tolerances_are_read_as_floats(self):
        # In float32, eps**-2 overflowed at 1e-20 (a RuntimeWarning, which
        # this suite makes an error) and the result stayed float32.
        for typed in (
            {"epsilon": np.float32(1e-20)},
            {"epsilon": np.float32(0.5)},
            {"delta": np.float32(0.1)},
        ):
            p = params(**typed)
            assert (type(p.epsilon), type(p.delta)) == (float, float)
            n = min_holdout_size(p)
            plain = {name: float(value) for name, value in typed.items()}
            assert type(n) is float and n == min_holdout_size(params(**plain))

    @pytest.mark.parametrize(
        "bad",
        [
            {"k": 10.5},
            {"k": True},
            {"k": "10"},
            {"budget": 1.0},
            {"budget": False},
            {"epsilon": "0.1"},
            {"epsilon": None},
            {"delta": "0.1"},
            {"delta": True},
        ],
    )
    def test_parameter_types(self, bad):
        with pytest.raises(ConfigurationError):
            params(**bad)


class TestComparisonReport:
    def test_worked_example_carries_both_numbers(self):
        report = comparison_report(params(), radabound_m=4000)
        assert report["formula_n"] == pytest.approx(36811.558177431441327, rel=1e-12)
        assert report["paper_printed_n"] == PUBLISHED_EXAMPLE_N == 3.7e6
        assert "inconsistent" in report["printed_n_note"]
        assert report["ratio_formula"] == pytest.approx(
            report["formula_n"] / 4000, rel=1e-12
        )
        assert report["ratio_printed"] == pytest.approx(3.7e6 / 4000, rel=1e-12)
        assert report["radabound_larger"] is False

    @pytest.mark.parametrize(
        "typed,printed",
        [
            # float32 holds 0.5 exactly: still the worked example.
            ({"epsilon": np.float32(0.5)}, PUBLISHED_EXAMPLE_N),
            # float32 rounds 0.1 to 0.10000000149: not the worked example.
            ({"delta": np.float32(0.1)}, None),
        ],
    )
    def test_numpy_tolerances_report_as_floats(self, typed, printed):
        report = comparison_report(params(**typed), radabound_m=4000)
        assert report["paper_printed_n"] == printed
        plain = {name: float(value) for name, value in typed.items()}
        assert json.loads(json.dumps(report))["params"] == asdict(params(**plain))

    def test_other_params_omit_published_figure(self):
        report = comparison_report(params(k=20), radabound_m=4000)
        assert report["paper_printed_n"] is None
        assert report["printed_n_note"] is None
        assert report["ratio_printed"] is None

    def test_radabound_larger_flag(self):
        report = comparison_report(params(), radabound_m=10**6)
        assert report["radabound_larger"] is True

    def test_invalid_holdout_size(self):
        with pytest.raises(ConfigurationError):
            comparison_report(params(), radabound_m=0)

    @pytest.mark.parametrize("bad", [4000.5, 4000.0, True, "4000", None])
    def test_holdout_size_must_be_int(self, bad):
        with pytest.raises(ConfigurationError):
            comparison_report(params(), radabound_m=bad)

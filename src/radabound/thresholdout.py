"""Sample-size lower bound of the differential-privacy reusable holdout,
for head-to-head comparison with the guarded-holdout approach.

The published worked example for (k=10, B=1, eps=0.5, delta=0.1) states
~3.7e6, but evaluating the printed formula at those parameters gives ~3.68e4
(the worked example effectively uses eps^-2 = 400, i.e. eps = 0.05).  We
always report the formula-faithful value, and annotate the published figure
alongside it when the parameters match the worked example; neither number is
ever presented alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import ConfigurationError
from .seeding import validate_type

# Parameters and value of the published worked example.
_PUBLISHED_EXAMPLE_PARAMS = (10, 1, 0.5, 0.1)
PUBLISHED_EXAMPLE_N = 3.7e6
PUBLISHED_EXAMPLE_NOTE = (
    "published worked example states ~3.7e6 for these parameters, which is "
    "inconsistent with the printed formula (off by ~100x, matching eps=0.05); "
    "formula_n evaluates the formula as printed"
)


@dataclass(frozen=True)
class ThresholdoutParams:
    k: int  # number of adaptive queries
    budget: int  # overfit budget B
    epsilon: float
    delta: float

    def __post_init__(self):
        validate_type("k", self.k)
        validate_type("budget", self.budget)
        validate_type("epsilon", self.epsilon, numbers.Real)
        validate_type("delta", self.delta, numbers.Real)
        if self.k < 1:
            raise ConfigurationError(f"query count must be >= 1, got {self.k}")
        if self.budget < 1:
            raise ConfigurationError(f"budget must be >= 1, got {self.budget}")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError(f"delta must be in (0, 1), got {self.delta}")


def min_holdout_size(p: ThresholdoutParams) -> float:
    """96 eps^-2 ln(4k/delta) min(80 sqrt(B ln(1/(eps delta))), 16 B),
    evaluated literally from the printed formula."""
    log_term = math.log(4.0 * p.k / p.delta)
    sqrt_branch = 80.0 * math.sqrt(p.budget * math.log(1.0 / (p.epsilon * p.delta)))
    linear_branch = 16.0 * p.budget
    return 96.0 * p.epsilon**-2 * log_term * min(sqrt_branch, linear_branch)


def comparison_report(p: ThresholdoutParams, radabound_m: int) -> dict:
    """Side-by-side sample-complexity report.

    Carries both the formula-faithful size and (when the parameters match the
    published worked example) the published figure with its discrepancy note.
    """
    validate_type("radabound_m", radabound_m)
    if radabound_m < 1:
        raise ConfigurationError(f"holdout size must be >= 1, got {radabound_m}")
    formula_n = min_holdout_size(p)
    matches = (p.k, p.budget, p.epsilon, p.delta) == _PUBLISHED_EXAMPLE_PARAMS
    printed_n = PUBLISHED_EXAMPLE_N if matches else None
    report = {
        "params": {
            "k": p.k,
            "budget": p.budget,
            "epsilon": p.epsilon,
            "delta": p.delta,
        },
        "formula_n": formula_n,
        "paper_printed_n": printed_n,
        "printed_n_note": PUBLISHED_EXAMPLE_NOTE if matches else None,
        "radabound_m": radabound_m,
        "ratio_formula": formula_n / radabound_m,
        "ratio_printed": (printed_n / radabound_m) if printed_n else None,
        "radabound_larger": formula_n < radabound_m,
    }
    return report

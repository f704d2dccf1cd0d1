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
from dataclasses import asdict, astuple, dataclass

from .errors import ConfigurationError
from .seeding import validate_count, validate_fraction, validate_type

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
    """``k`` and ``budget`` are stored as Python ints, ``epsilon`` and
    ``delta`` as Python floats."""

    k: int  # number of adaptive queries
    budget: int  # overfit budget B
    epsilon: float
    delta: float

    def __post_init__(self):
        for name in ("k", "budget"):
            object.__setattr__(self, name, validate_count(name, getattr(self, name)))
        for name in ("epsilon", "delta"):
            object.__setattr__(self, name, validate_fraction(name, getattr(self, name)))


def min_holdout_size(p: ThresholdoutParams) -> float:
    """96 eps^-2 ln(4k/delta) min(80 sqrt(B ln(1/(eps delta))), 16 B),
    evaluated literally from the printed formula.  Raises ConfigurationError
    where the formula leaves float range.  ``p`` holds Python floats, so the
    result is a double-precision float."""
    validate_type("p", p, ThresholdoutParams)
    try:
        log_term = math.log(4.0 * p.k / p.delta)
        sqrt_branch = 80.0 * math.sqrt(p.budget * math.log(1.0 / (p.epsilon * p.delta)))
        linear_branch = 16.0 * p.budget
        n = 96.0 * p.epsilon**-2 * log_term * min(sqrt_branch, linear_branch)
    except (OverflowError, ZeroDivisionError):
        n = math.inf
    if not math.isfinite(n):
        raise ConfigurationError(f"holdout size for {p} is beyond float range")
    return n


def comparison_report(p: ThresholdoutParams, radabound_m: int) -> dict:
    """Side-by-side sample-complexity report.

    Carries both the formula-faithful size and (when the parameters match the
    published worked example) the published figure with its discrepancy note.
    """
    radabound_m = validate_count("radabound_m", radabound_m)
    formula_n = min_holdout_size(p)
    matches = astuple(p) == _PUBLISHED_EXAMPLE_PARAMS
    printed_n = PUBLISHED_EXAMPLE_N if matches else None
    report = {
        "params": asdict(p),
        "formula_n": formula_n,
        "paper_printed_n": printed_n,
        "printed_n_note": PUBLISHED_EXAMPLE_NOTE if matches else None,
        "radabound_m": radabound_m,
        "ratio_formula": formula_n / radabound_m,
        "ratio_printed": (printed_n / radabound_m) if printed_n else None,
        "radabound_larger": formula_n < radabound_m,
    }
    return report

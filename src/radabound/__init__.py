"""radabound: guarded holdout reuse for adaptive statistical analysis.

Answers adaptively chosen statistical queries on a fixed holdout sample
while certifying, via online Rademacher-complexity estimates and martingale
concentration bounds, that the accumulated estimation error stays below a
user tolerance with high probability; halts permanently when certification
fails.
"""

__version__ = "0.1.0"

from .bounds import BoundMethod
from .errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    GuardHaltedError,
)
from .guard import Guard, GuardConfig, HoldoutSample, QueryOutcome
from .harness import (
    ExperimentTrace,
    LinearClassifier,
    evaluate_on,
    run_adaptive_analysis,
    run_epsilon_sweep,
    run_experiment,
)
from .synthdata import DatasetSpec, generate
from .thresholdout import ThresholdoutParams, comparison_report

"""radabound: guarded holdout reuse for adaptive statistical analysis.

Answers adaptively chosen statistical queries on a fixed holdout sample
while certifying, via online Rademacher-complexity estimates and martingale
concentration bounds, that the accumulated estimation error stays below a
user tolerance with high probability; halts permanently when certification
fails.

``import radabound`` loads no submodule: each public name loads its
submodule on first use.  So a program that uses only the guard loads only
``guard``, ``bounds``, ``rademacher``, ``seeding`` and ``errors``, never
the learner (``harness``), the generator (``synthdata``) or Thresholdout.
"""

import importlib

__version__ = "0.1.0"

# Each public name -> the submodule that defines it.
_EXPORTS = {
    "BoundMethod": "bounds",
    "ConfigurationError": "errors",
    "DimensionError": "errors",
    "DomainError": "errors",
    "GuardHaltedError": "errors",
    "Guard": "guard",
    "GuardConfig": "guard",
    "HoldoutSample": "guard",
    "QueryOutcome": "guard",
    "ExperimentTrace": "harness",
    "LinearClassifier": "harness",
    "run_adaptive_analysis": "harness",
    "run_sweep": "harness",
    "DatasetSpec": "synthdata",
    "generate": "synthdata",
    "ThresholdoutParams": "thresholdout",
    "comparison_report": "thresholdout",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    # Not a public name: AttributeError, which also lets
    # ``from radabound import guard`` fall back to importing the submodule.
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

import importlib

import pytest

import radabound

PUBLIC = {
    "BoundMethod": "bounds",
    "ConfigurationError": "errors",
    "DomainError": "errors",
    "GuardHaltedError": "errors",
    "Guard": "guard",
    "GuardConfig": "guard",
    "HoldoutSample": "guard",
    "QueryOutcome": "guard",
    "ExperimentTrace": "harness",
    "run_adaptive_analysis": "harness",
    "run_sweep": "harness",
    "DatasetSpec": "synthdata",
    "generate": "synthdata",
    "ThresholdoutParams": "thresholdout",
    "comparison_report": "thresholdout",
}


def test_all_lists_the_public_names():
    assert sorted(radabound.__all__) == sorted(PUBLIC)
    assert radabound.__version__ == "0.1.0"


@pytest.mark.parametrize("name, module", sorted(PUBLIC.items()))
def test_name_is_its_defining_modules_object(name, module):
    defining = importlib.import_module(f"radabound.{module}")
    assert getattr(radabound, name) is getattr(defining, name)


def test_errors_module_defines_one_type_per_contract():
    errors = importlib.import_module("radabound.errors")
    defined = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and obj.__module__ == errors.__name__
    }
    assert defined == {"ConfigurationError", "DomainError", "GuardHaltedError"}


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from radabound import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(PUBLIC)
    assert all(namespace[n] is getattr(radabound, n) for n in PUBLIC)


def test_dir_lists_the_public_names():
    assert set(PUBLIC) <= set(dir(radabound))
    assert "__version__" in dir(radabound)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        radabound.no_such_name  # noqa: B018

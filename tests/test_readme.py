"""The README's examples run as written."""

import json
import re
from pathlib import Path

from radabound.cli import RunConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def test_python_examples_run_in_order():
    examples = blocks("python")
    assert len(examples) == 4
    namespace = {}
    for source in examples:
        exec(compile(source, "README.md", "exec"), namespace)
    assert namespace["trace"].guard_config.epsilon == 0.1


def test_run_config_example_is_valid():
    (example,) = blocks("json")
    config = RunConfig.from_dict(json.loads(example))
    assert config.epsilons == (0.05, 0.1, 0.2)

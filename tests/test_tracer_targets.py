"""The benchmark's tracer wraps package functions it looks up by name.

``perfbench/tracing.py`` imports only the standard library, so it is loaded
here by path, and each of its ``TARGETS`` is checked to still exist: a
renamed or deleted target fails here, not only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _targets() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    ("module", "name"), [(module, name) for module, names in _targets().items() for name in names]
)
def test_every_tracer_target_is_a_callable_of_its_module(module, name):
    assert callable(getattr(importlib.import_module(f"matchgames.{module}"), name, None))

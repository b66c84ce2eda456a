"""The public surface: every exported name resolves, and every library call
that perfbench/tracer.py wraps by name still exists."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import jumpflow

MODULES = ["jumpflow"] + [f"jumpflow.{name}" for name in jumpflow.__all__
                          if not name.startswith("_")]
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_tracer_targets_exist():
    # Recorder.install rebinds each (module, attr) pair, so a missing one
    # fails every `perfbench/run.py --trace 1` run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(module, attr) for _, module, attr in tracer.SPANS + tracer.COUNTED]
    missing = [f"{module}.{attr}" for module, attr in targets
               if not hasattr(importlib.import_module(f"jumpflow.{module}"), attr)]
    assert targets and missing == []

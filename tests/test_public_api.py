"""The public surface: every exported name resolves, every library call that
perfbench/tracer.py wraps by name still exists, and every value the tracer reads
off a wrapped call's result can still be read."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import jumpflow

MODULES = ["jumpflow"] + [f"jumpflow.{name}" for name in jumpflow.__all__
                          if not name.startswith("_")]
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_exist():
    # Recorder.install rebinds each (module, attr) pair, so a missing one
    # fails every `perfbench/run.py --trace 1` run
    tracer = load_tracer()
    targets = [(module, attr) for _, module, attr in tracer.SPANS + tracer.COUNTED]
    missing = [f"{module}.{attr}" for module, attr in targets
               if not hasattr(importlib.import_module(f"jumpflow.{module}"), attr)]
    assert targets and missing == []


def test_tracer_observers_read_real_results(tmp_path):
    # the tracer applies each OBSERVE getter to the result of the call it wraps;
    # a getter that no longer fits the result (a store that became None, say)
    # makes every traced run of that command exit 1
    from jumpflow import evolution, spaces
    from jumpflow.densities import canonical_triple

    tracer = load_tracer()
    sp = spaces.build_grid(-1.0, 1.0, 6)
    coup = spaces.coupling(sp, spaces.fractional_kernel(sp, 0.75))
    run = (coup, canonical_triple("cosh"), 1.0 + sp.points ** 2, 0.1,
           evolution.IntegratorConfig(checkpoints=4))
    traj = evolution.evolve(*run)
    tpath, fpath = tmp_path / "trajectory.csv", tmp_path / "flux.csv"
    tpath.write_text("".join(evolution.trajectory_csv_text(traj)))
    fpath.write_text("".join(evolution.flux_csv_text(traj)))
    calls = {
        "evolution.evolve": (run, {}),
        "evolution.trajectory_from_csv": ((tpath,), {}),
        "evolution.flux_from_csv": ((fpath, traj), {}),
        "spaces.build_grid": ((-1.0, 1.0, 6), {}),
        "spaces.build_torus": ((6,), {}),
        "spaces.build_graph": ((sp.points, sp.dist, sp.pi), {}),
        "experiments.density_gap_probe": ((0.9,), {"n": 1024}),
    }
    assert calls.keys() == tracer.OBSERVE.keys()
    wrapped = {name: (module, attr) for name, module, attr in tracer.SPANS}
    for name, getters in tracer.OBSERVE.items():
        module, attr = wrapped[name]
        fn = getattr(importlib.import_module(f"jumpflow.{module}"), attr)
        args, kwargs = calls[name]
        result = fn(*args, **kwargs)
        for key, _, get in getters:
            value = get(fn, args, kwargs, result)
            assert isinstance(value, (int, float)) and np.isfinite(value), (name, key, value)

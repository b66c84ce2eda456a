"""jumpflow: gradient-flow evolutions of jump processes with singular kernels
on discretized metric spaces, with energy-dissipation certificates.

Each library module is registered lazily (``importlib.util.LazyLoader``): it
is in ``sys.modules`` and a package attribute from the start, and its body
runs on first attribute access, so a command executes only the modules it
uses."""

import importlib.util
import sys

__version__ = "0.1.0"

__all__ = [
    "densities",
    "evolution",
    "experiments",
    "functionals",
    "ledger",
    "measures",
    "quadrature",
    "spaces",
    "__version__",
]


def _register_lazy(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in __all__:
    if _name != "__version__":
        _register_lazy(_name)
del _name

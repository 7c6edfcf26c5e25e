"""ckn-lab: numerical laboratory for rigidity of weighted critical equations.

Submodules load lazily (Scientific Python SPEC 1): each sits in sys.modules and
runs on its first attribute read, which is not thread-safe, so pooled work may
touch only loaded modules.  ``cli`` stays out, or ``python -m cknlab.cli`` warns.
"""

import importlib.util
import sys

__all__ = ["bubble", "cylfield", "errors", "estimates", "fitting", "grids", "params",
           "pressure", "radial_ode", "reporting", "spectral", "verify"]

for _name in __all__:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    globals()[_name] = sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)

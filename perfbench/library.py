"""Fresh imports of adaptorsig, each a separate generation of its modules.

Every import purges the package from ``sys.modules`` first, so module
globals (the torsion-basis and pinning caches among them) start empty.
Function-local imports inside the library resolve through ``sys.modules``
at call time, so code of one generation must run while that generation is
the one installed there: ``activate`` puts a generation back.
"""

import importlib
import sys
from types import SimpleNamespace

MODULES = (
    "adaptor", "curve", "dlog", "field", "isogeny", "nizk",
    "params", "relation", "serial", "sig", "swap",
)


def _installed():
    return [n for n in sys.modules if n.split(".")[0] == "adaptorsig"]


def load():
    """A fresh generation: namespace of its modules, plus `modules`, the
    sys.modules entries it consists of."""
    for name in _installed():
        del sys.modules[name]
    importlib.import_module("adaptorsig")
    lib = SimpleNamespace(
        **{m: importlib.import_module(f"adaptorsig.{m}") for m in MODULES}
    )
    lib.modules = {n: sys.modules[n] for n in _installed()}
    return lib


def activate(lib):
    """Make `lib` the generation that sys.modules resolves to."""
    if all(sys.modules.get(n) is m for n, m in lib.modules.items()):
        return
    for name in _installed():
        del sys.modules[name]
    sys.modules.update(lib.modules)

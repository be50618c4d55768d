"""How csgames reaches scipy's compiled code.

csgames calls two of scipy's extension modules and nothing else of scipy on
its hot paths: HiGHS (`scipy.optimize._highspy._core`) and LAPACK
(`scipy.linalg._flapack`).  Importing either through its package runs the
package's `__init__`, and those of scipy.optimize and scipy.linalg pull in
scipy.sparse, scipy.fft, scipy.special, numpy.f2py and numpy.testing.  On a
2-core x86-64 VM (medians of 9 fresh processes), a fresh `import csgames.cli`
took 0.56 s that way and takes 0.19 s with `load`.  `load` finds and runs
the one file as the import system would, minus the parents' `__init__`s.
The module it registers in sys.modules is the one scipy itself binds when it
is imported later, so both sides share one HiGHS and one LAPACK.  Unlike a
plain import, that does not make it an attribute of its package: scipy binds
it with `from` imports, which look it up in sys.modules, and so must any
other code that reaches it after csgames.
"""

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

# Cheap, and on Windows it sets up the paths of scipy's bundled DLLs.
import scipy


def load(name):
    """The scipy extension module `name`, such as "scipy.linalg._flapack",
    loaded from its file under scipy's folder.  The one scipy has already
    imported is returned as it is; a missing file raises ImportError."""
    if name in sys.modules:
        return sys.modules[name]
    folder = Path(scipy.__file__).parent.joinpath(*name.split(".")[1:-1])
    spec = importlib.machinery.PathFinder.find_spec(name, [str(folder)])
    if spec is None:
        raise ImportError(f"no module {name} in {folder}", name=name, path=str(folder))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module

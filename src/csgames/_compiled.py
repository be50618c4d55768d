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
is imported later, so both sides share one HiGHS and one LAPACK.  As after a
plain import, it is an attribute of its package once that package is
imported: `_BindOnImport` sets it there when the package's code has run.
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
    package, _, attr = name.rpartition(".")
    if package in sys.modules:
        setattr(sys.modules[package], attr, module)
    else:
        sys.meta_path.insert(0, _BindOnImport(package, attr, module))
    return module


class _BindOnImport:
    """A one-shot meta-path finder.  When `package` is imported, it finds
    the package's spec as the import system would and wraps its loader, so
    that once the package's code has run, `module` is its attribute `attr`."""

    def __init__(self, package, attr, module):
        self.package, self.attr, self.module = package, attr, module

    def find_spec(self, fullname, path=None, target=None):
        if fullname != self.package:
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(fullname)
        if spec is not None and spec.loader is not None:
            spec.loader = _Binding(spec.loader, self.attr, self.module)
        return spec


class _Binding:
    """A package's loader that sets `module` as the package's attribute
    `attr` after running the package's code; everything else is the
    wrapped loader's."""

    def __init__(self, loader, attr, module):
        self.loader, self.attr, self.module = loader, attr, module

    def __getattr__(self, name):
        return getattr(self.loader, name)

    def exec_module(self, package):
        self.loader.exec_module(package)
        setattr(package, self.attr, self.module)

import types

import csgames
from csgames import best_response, discretization, equilibrium, evaluation, game, transform

REEXPORTED = (game, evaluation, best_response, discretization, equilibrium, transform)


def test_package_publishes_each_module_list_once():
    # A module re-exported without __all__ would leak its own imports (np,
    # dataclass, ...) into the package.
    owner = {}
    for module in REEXPORTED:
        assert hasattr(module, "__all__"), module.__name__
        for name in module.__all__:
            assert name not in owner, (name, owner.get(name), module.__name__)
            owner[name] = module.__name__
            assert getattr(csgames, name) is getattr(module, name), name
    public = {name: value for name, value in vars(csgames).items() if not name.startswith("_")}
    assert {name for name, value in public.items()
            if not isinstance(value, types.ModuleType)} == set(owner)
    assert all(value.__name__ == f"csgames.{name}" for name, value in public.items()
               if isinstance(value, types.ModuleType))

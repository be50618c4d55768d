import ast
import types
from pathlib import Path

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


def _object_new_calls(node):
    return sum(isinstance(n, ast.Attribute) and n.attr == "__new__"
               and isinstance(n.value, ast.Name) and n.value.id == "object"
               for n in ast.walk(node))


def test_only_the_derived_helper_skips_validation():
    # The one way to build an object without its __post_init__ is
    # game._derived, kept for values derived from validated ones.
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(csgames.__file__).parent.glob("*.py"))}
    assert {name: _object_new_calls(tree) for name, tree in trees.items()
            if _object_new_calls(tree)} == {"game.py": 1}
    helper = next(node for node in ast.walk(trees["game.py"])
                  if isinstance(node, ast.FunctionDef) and node.name == "_derived")
    assert _object_new_calls(helper) == 1

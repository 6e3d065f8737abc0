import ast
import importlib
import inspect
import pkgutil

import jointspace


def test_every_export_resolves():
    """Each name in a module's ``__all__`` and each name the package imports exists."""
    stale = []
    for info in pkgutil.iter_modules(jointspace.__path__):
        module = importlib.import_module(f"jointspace.{info.name}")
        stale += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                  if not hasattr(module, name)]
    for node in ast.walk(ast.parse(inspect.getsource(jointspace))):
        if isinstance(node, ast.ImportFrom):
            source = importlib.import_module(f"jointspace.{node.module}")
            for alias in node.names:
                if not (hasattr(source, alias.name) and hasattr(jointspace, alias.name)):
                    stale.append(f"{node.module}.{alias.name}")
    assert stale == []

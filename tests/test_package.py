"""Package layout: no public name in ``src/`` is reached by tests alone."""

import ast
from pathlib import Path

import doublepass

SRC = Path(doublepass.__file__).parent
MODULES = {path: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
# every (file, line, name) at which src/ reads a name or an attribute
USED = {(path, node.lineno, node.id if isinstance(node, ast.Name)
         else node.attr)
        for path, tree in MODULES.items() for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))}


def _unused(path, definitions) -> list[str]:
    """Public definitions whose name src/ reads nowhere but where defined."""
    return [node.name for node in definitions
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and not any(name == node.name
                        and (where, line) != (path, node.lineno)
                        for where, line, name in USED)]


def test_every_public_name_is_used_in_src():
    unused = [f"{path.name}:{name}" for path, tree in MODULES.items()
              for name in _unused(path, tree.body)]
    assert unused == []


def test_every_public_method_is_used_in_src():
    unused = [f"{path.name}:{cls.name}.{name}"
              for path, tree in MODULES.items() for cls in tree.body
              if isinstance(cls, ast.ClassDef)
              for name in _unused(path, cls.body)]
    assert unused == []

"""Package layout: no public name in ``src/`` is reached by tests alone."""

import ast
from pathlib import Path

import doublepass

SRC = Path(doublepass.__file__).parent


def test_every_public_name_is_used_in_src():
    modules = {path: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py"))
               if path.name != "__init__.py"}
    # every (name, line) at which src/ reads a name or an attribute
    used = {(path, node.lineno, node.id if isinstance(node, ast.Name)
             else node.attr)
            for path, tree in modules.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    unused = []
    for path, tree in modules.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and not any(name == node.name
                                and (where, line) != (path, node.lineno)
                                for where, line, name in used)):
                unused.append(f"{path.name}:{node.name}")
    assert unused == []

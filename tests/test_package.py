"""Package layout: no public name in ``src/`` is reached by tests alone,
and no guard in it is an ``assert``."""

import ast
import json
import os
import subprocess
import sys
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


def _unused(path, defined) -> list[str]:
    """Public ``(name, line)`` definitions src/ reads nowhere but there."""
    return [name for name, at in defined if not name.startswith("_")
            and not any(used == name and (where, line) != (path, at)
                        for where, line, used in USED)]


def _functions(body) -> list[tuple[str, int]]:
    return [(node.name, node.lineno) for node in body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def _assigned(body) -> list[tuple[str, int]]:
    """Each name a module-level assignment binds, at its line."""
    return [(target.id, target.lineno) for node in body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
            if isinstance(target, ast.Name)]


def test_every_public_name_is_used_in_src():
    unused = [f"{path.name}:{name}" for path, tree in MODULES.items()
              for name in _unused(path, _functions(tree.body))]
    assert unused == []


def test_every_public_method_is_used_in_src():
    unused = [f"{path.name}:{cls.name}.{name}"
              for path, tree in MODULES.items() for cls in tree.body
              if isinstance(cls, ast.ClassDef)
              for name in _unused(path, _functions(cls.body))]
    assert unused == []


def test_every_public_module_constant_is_used_in_src():
    unused = [f"{path.name}:{name}" for path, tree in MODULES.items()
              for name in _unused(path, _assigned(tree.body))]
    assert unused == []


def _stdout_or_file_writes(tree) -> list[ast.Call]:
    """Calls of ``_write_text``, ``sys.stdout.write`` and a ``print`` to
    stdout (no ``file=``) in ``tree``."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (ast.unparse(node.func) in ("_write_text", "sys.stdout.write")
                 or (ast.unparse(node.func) == "print"
                     and all(kw.arg != "file" for kw in node.keywords)))]


def test_only_main_writes_files_and_stdout():
    # commands return their artifacts, stdout and exit code; cli.main alone
    # writes them, so a run that fails writes nothing
    main = next(node for node in MODULES[SRC / "cli.py"].body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    in_main = _stdout_or_file_writes(main)
    elsewhere = [f"{path.name}:{call.lineno}"
                 for path, tree in MODULES.items()
                 for call in _stdout_or_file_writes(tree)
                 if all(call is not own for own in in_main)]
    assert elsewhere == []
    assert sorted(ast.unparse(call.func) for call in in_main) == [
        "_write_text", "sys.stdout.write"]


def test_no_assert_statement_in_src():
    # runtime guards must be real exceptions: python -O strips asserts
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


# Runs every command under a profiler installed before the package is
# imported, then prints the public functions and methods of src/ whose code
# never ran, dunders included.  A name shared with a method src/ does call
# passes the AST tests above; only running the commands tells the two apart.
# Constructors and the immutability guards are exempt; so are the dunders a
# decorator generates (dataclass), whose code was compiled from no file in
# src/.
_REACH = r"""
import contextlib, importlib, inspect, io, json, pkgutil, sys, tempfile
from pathlib import Path

EXEMPT = {"__init__", "__setattr__", "__post_init__"}
ran = set()


def profile(frame, event, arg):
    if event == "call":
        ran.add(frame.f_code)


sys.setprofile(profile)
import doublepass
from doublepass import cli

src = Path(doublepass.__file__).parent
with tempfile.TemporaryDirectory() as tmp, \
        contextlib.redirect_stdout(io.StringIO()):
    pde_cfg = Path(tmp, "pde.cfg")
    pde_cfg.write_text("pde.k_max = 0.1\n", encoding="utf-8")
    codes = [cli.main([*argv, "--out", tmp]) for argv in (
        ["derive"], ["compare", "--tolerance-scale", "1"], ["variances"],
        ["oracle"], ["pde", "--config", str(pde_cfg)])]
sys.setprofile(None)

unreached = []
for info in pkgutil.iter_modules(doublepass.__path__):
    mod = importlib.import_module(f"doublepass.{info.name}")
    for name, obj in vars(mod).items():
        # imported names and module constants carry another module's name
        # or are neither classes nor callables, and drop out below
        if name.startswith("_") or (
                getattr(obj, "__module__", None) != mod.__name__):
            continue
        members = [(name, obj)]
        if inspect.isclass(obj):
            members = [(f"{name}.{key}", value)
                       for key, value in vars(obj).items()
                       if not key.startswith("_") or (
                           key.startswith("__") and key not in EXEMPT)]
        for qualname, fn in members:
            fn = getattr(fn, "__func__", getattr(fn, "fget", fn))
            fn = inspect.unwrap(fn) if callable(fn) else fn
            if (inspect.isfunction(fn) and fn.__code__ not in ran
                    and Path(fn.__code__.co_filename).parent == src):
                unreached.append(f"{info.name}:{qualname}")
print(json.dumps({"codes": codes, "unreached": unreached}))
"""


# kept for debugging only: no command prints a bare scalar or polynomial
DEBUG_REPRS = {"scalars:Cyclo.__repr__", "scalars:SparsePoly.__repr__"}


def test_every_public_function_runs_in_a_command():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", _REACH], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0, 0]
    assert sorted(set(result["unreached"]) - DEBUG_REPRS) == []

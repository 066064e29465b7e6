"""Static checks of src/holobraid.  The package's one runtime dependency is
numpy (pyproject.toml): every module imports only the standard library,
numpy and the package itself.  And the root of unity is chosen in one place:
primitive_root is called only where a run starts."""
import ast
import sys
from pathlib import Path

import holobraid

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_src_imports_only_stdlib_and_numpy():
    paths = sorted(Path(holobraid.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    foreign = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one within the package
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert foreign == []


def test_primitive_root_is_called_only_where_a_run_starts():
    # the root is chosen once, where a run starts (suite.run_suite and the
    # cli); every other function reads it from the RootContext it is given
    allowed = {("suite.py", "run_suite")}
    calls = []
    for path in sorted(Path(holobraid.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text())
        scopes = [node for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "primitive_root" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                # the innermost function whose lines hold the call
                owner = max((f for f in scopes
                             if f.lineno <= node.lineno <= f.end_lineno),
                            key=lambda f: f.lineno, default=None)
                calls.append((path.name, owner.name if owner else "<module>"))
    assert calls and set(calls) <= allowed, calls

"""The package's one runtime dependency is numpy (pyproject.toml): every
module of src/holobraid imports only the standard library, numpy and the
package itself."""
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

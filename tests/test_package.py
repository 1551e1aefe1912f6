import ast
from pathlib import Path

import dfloc


def test_no_module_imports_the_package_by_absolute_name():
    # Relative imports only, so a second copy of the sources can be imported
    # under another package name beside this one.
    modules = sorted(Path(dfloc.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    absolute = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            absolute += [f"{path.name}:{node.lineno}: {name}" for name in names if name.split(".")[0] == "dfloc"]
    assert absolute == []

import ast
import sys
from pathlib import Path

import qlefschetz

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qlefschetz"


def test_every_export_resolves_and_the_list_is_sorted():
    names = qlefschetz.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(qlefschetz, name)]
    assert missing == []


def test_runtime_imports_are_stdlib_only():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}: {module}"
                for module in modules
                if module.split(".")[0] not in sys.stdlib_module_names
            ]
    assert foreign == []

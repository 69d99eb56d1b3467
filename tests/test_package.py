import ast
import sys
from pathlib import Path

import tauforge

SRC = Path(tauforge.__file__).parent


def test_every_exported_name_resolves():
    missing = [name for name in tauforge.__all__ if not hasattr(tauforge, name)]
    assert missing == []
    assert len(set(tauforge.__all__)) == len(tauforge.__all__)


def test_the_package_imports_only_itself_and_the_standard_library():
    # pyproject.toml declares dependencies = []; a third-party import would break that
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []

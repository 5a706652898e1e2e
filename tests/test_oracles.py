"""The oracle module stands apart from the library it checks."""

import ast
import sys
from pathlib import Path


def test_the_oracle_module_imports_only_the_standard_library():
    # an oracle that evaluates through resq would agree with resq's faults;
    # the standard library imports nothing of resq, so neither can the module
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert imported
    assert [name for name in imported
            if name.split(".")[0] not in sys.stdlib_module_names - {"importlib"}] == []
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id == "__import__"]

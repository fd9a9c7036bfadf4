"""Every name a latentdyn module imports is used in that module.

Package __init__ modules re-export names and are exempt.
"""

import ast
from pathlib import Path

import latentdyn

PACKAGE_DIR = Path(latentdyn.__file__).parent


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_detector_sees_unused_and_used_names():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nx = np.zeros(c)\n"
    assert _unused_imports(source) == ["line 1: os", "line 3: d"]


def test_no_unused_imports_in_modules():
    problems = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for item in _unused_imports(path.read_text(encoding="utf-8")):
            problems.append(f"{path.relative_to(PACKAGE_DIR)} {item}")
    assert problems == []

"""Every name a latentdyn module imports is used in that module, and every
public function, class and method is used somewhere in the package.

Package __init__ modules re-export names and are exempt from the first
check; their re-exports do not count as uses for the second.
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


# Public names with no caller inside the package, each with its reason.
UNREFERENCED_ALLOWED = {
    "preprocess_depth_sequence": "public depth-ingestion API for real sensor frames",
    "TrainConfig.desk_preset": "the desk-scale preset the acceptance gates and benchmark use",
}


def _unreferenced(sources: list[str]) -> list[str]:
    """Public module-level functions and classes, and public methods, whose
    name never appears as a name or attribute in any of the sources."""
    defined, referenced = [], set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append(node.name)
                if isinstance(node, ast.ClassDef):
                    defined += [f"{node.name}.{item.name}" for item in node.body
                                if isinstance(item, ast.FunctionDef)
                                and not item.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return [name for name in defined if name.split(".")[-1] not in referenced]


def test_detector_sees_unreferenced_names():
    source = ("def used():\n    pass\n\ndef dead():\n    pass\n\n"
              "class Box:\n    def get(self):\n        return used()\n"
              "    def put(self):\n        pass\n\nBox().get()\n")
    assert _unreferenced([source]) == ["dead", "Box.put"]


def test_every_public_name_is_referenced():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE_DIR.rglob("*.py"))]
    assert sorted(_unreferenced(sources)) == sorted(UNREFERENCED_ALLOWED)

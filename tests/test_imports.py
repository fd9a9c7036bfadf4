"""Every name a latentdyn module imports is used in that module, every
public function, class and method is used somewhere in the package, and
every defaulted parameter of one takes, somewhere, a value other than its
default.

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


# Defaulted parameters no call inside the package sets, each with its reason.
NEVER_SET_ALLOWED = {
    **{f"preprocess_depth_sequence.{param}": "public depth-ingestion API for real sensor frames"
       for param in ("n_points", "skip_frames", "stride")},
    "main.argv": "the console-script entry reads sys.argv; tests pass argv",
    "run_gradcheck_suite.points_per_op": "gate A1 and the CLI run the suite at its default",
}


_UNSEEN = ast.Name("*args")  # an argument a *args/**kwargs may carry


def _argument(call: ast.Call, param: str, index: int | None) -> ast.expr | None:
    """The expression the call passes for the parameter, by keyword or by
    position; _UNSEEN if a *args/**kwargs may pass it, None if it does not."""
    for kw in call.keywords:
        if kw.arg == param:
            return kw.value
    if any(kw.arg is None for kw in call.keywords) or any(
            isinstance(arg, ast.Starred) for arg in call.args):
        return _UNSEEN
    return call.args[index] if index is not None and index < len(call.args) else None


def _defaulted(fn: ast.FunctionDef, is_method: bool) -> list[tuple[str, int | None, ast.expr]]:
    """(name, positional index or None, default) of each parameter with a default."""
    positional = fn.args.posonlyargs + fn.args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    if is_method and not static:
        positional = positional[1:]
    first = len(positional) - len(fn.args.defaults)
    out = [(arg.arg, first + i, default)
           for i, (arg, default) in enumerate(zip(positional[first:], fn.args.defaults))]
    out += [(arg.arg, None, default)
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if default is not None]
    return out


def _arguments(sources: list[str]) -> list[tuple[str, ast.expr, list[ast.expr]]]:
    """("label.param", default, what each call passes for it) for each
    defaulted parameter of a public module-level function or public method
    (a class's __init__ under the class name, any other method as
    "Class.method"). Calls that do not pass the parameter are left out.

    A call matches by the callee's name, plain or as an attribute."""
    params, calls = [], []
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                params += [(node.name, node.name, *p) for p in _defaulted(node, False)]
            else:
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    if item.name == "__init__":
                        label, callee = node.name, node.name
                    elif item.name.startswith("_"):
                        continue
                    else:
                        label, callee = f"{node.name}.{item.name}", item.name
                    params += [(label, callee, *p) for p in _defaulted(item, True)]
        calls += [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    by_callee: dict[str, list[ast.Call]] = {}
    for call in calls:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        by_callee.setdefault(name, []).append(call)
    out = []
    for label, callee, param, index, default in params:
        passed = [_argument(call, param, index) for call in by_callee.get(callee, [])]
        out.append((f"{label}.{param}", default, [arg for arg in passed if arg is not None]))
    return out


def _never_set(sources: list[str]) -> list[str]:
    """Defaulted parameters of public functions and methods that no call in
    the sources passes."""
    return [name for name, _, passed in _arguments(sources) if not passed]


def test_detector_sees_never_set_parameters():
    source = ("def f(a, b=1, *, c=2, d=3):\n    pass\n\n"
              "class Box:\n    def __init__(self, x=0, y=0):\n        pass\n"
              "    def put(self, item, flag=False):\n        pass\n\n"
              "f(1, 2, d=4)\nBox(y=1).put(3, True)\n")
    assert _never_set([source]) == ["f.c", "Box.x"]
    assert _never_set([source, "f(0, *rest, **more)\nBox(*xs)\n"]) == []


def test_every_defaulted_parameter_is_set_somewhere():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE_DIR.rglob("*.py"))]
    assert sorted(_never_set(sources)) == sorted(NEVER_SET_ALLOWED)


# Defaulted parameters every call passes only as their literal default,
# each with its reason.
ONLY_DEFAULT_ALLOWED = {
    "pca_embed.n_components": "the benchmark's tests pass 2 positionally",
    "fps_indices.start_index": "gate A4 checks FPS from every start",
}


def _literal(node: ast.expr):
    """(type, value) of a literal expression such as 2 or -1, or None."""
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return None
    return type(value), value


def _only_default(sources: list[str]) -> list[str]:
    """Defaulted parameters that some call in the sources passes, and every
    call that passes one passes as a literal equal to the default."""
    return [name for name, default, passed in _arguments(sources)
            if passed and _literal(default) is not None
            and all(_literal(arg) == _literal(default) for arg in passed)]


def test_detector_sees_parameters_passed_only_as_default():
    source = ("def f(a, b=1, *, c=-1, d=None, e=2):\n    pass\n\n"
              "class Box:\n    def put(self, item, flag=False):\n        pass\n\n"
              "f(0, 1, c=-1)\nf(0, c=-1, d=None, e=n)\nf(0)\nBox().put(3, True)\n"
              "Box().put(3, flag=0)\n")
    assert _only_default([source]) == ["f.b", "f.c", "f.d"]
    assert _only_default([source, "f(0, *rest)\nf(0, **more)\n"]) == []


def test_no_parameter_is_passed_only_as_its_default():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE_DIR.rglob("*.py"))]
    assert sorted(_only_default(sources)) == sorted(ONLY_DEFAULT_ALLOWED)

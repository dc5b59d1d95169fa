"""The project's own lint, since it depends on no linter:

- every name a package or test module imports is used in that module;
- every function, class and method defined in `src/retinapipe/` is referenced
  somewhere in `src/retinapipe/`, so code no caller needs cannot pile up;
- every `__slots__` entry of a class in `src/retinapipe/` is read somewhere in
  `src/retinapipe/`, so a field that is only ever written cannot pile up;
- every function the benchmark's layer trace wraps exists in the package.
"""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "retinapipe").glob("*.py"))
SCANNED = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # names inside quoted annotations such as -> "Tensor"
        if isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            ann = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return sorted(imported - used)


def test_no_unused_imports():
    assert unused_imports("import os\nfrom x import a, b as c\nc()\n") == ["a", "os"]
    assert unused_imports("from m import T\ndef f() -> 'T': pass\n") == []
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text(encoding="utf-8"))
             for path in SCANNED}
    assert {name: names for name, names in found.items() if names} == {}


def uncalled_definitions(modules: dict[str, str], exempt=frozenset()) -> list[str]:
    """The qualified names ("module.Class.method") of the definitions in the
    module sources whose name no module mentions as a name or an attribute.

    The match is by name only: a definition shadowed by any same-named name or
    attribute (a local variable, np.tanh) counts as referenced. Dunder methods
    are called by Python itself and are skipped.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))}
    uncalled = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                qualname = f"{prefix}.{node.name}"
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if not dunder and node.name not in referenced and qualname not in exempt:
                    uncalled.append(qualname)
                visit(node.body, qualname)

    for name, tree in trees.items():
        visit(tree.body, name)
    return sorted(uncalled)


def unread_slots(modules: dict[str, str]) -> list[str]:
    """The qualified names ("module.Class.entry") of the __slots__ entries of the
    classes in the module sources that no module reads as an attribute (x.entry
    in a Load context; writes and augmented assignments do not count)."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for name, tree in trees.items():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, ast.Assign) and \
                        any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
                    unread += [f"{name}.{cls.name}.{entry}"
                               for entry in ast.literal_eval(node.value) if entry not in read]
    return sorted(unread)


def trace_targets() -> list[str]:
    """Each entry of perfbench/layertrace.py's TARGETS as "module.attribute",
    read with ast so nothing under perfbench/ is imported."""
    tree = ast.parse((ROOT / "perfbench" / "layertrace.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [f"{module}.{attr}" for module, attr in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/layertrace.py defines no TARGETS")


def test_uncalled_definitions():
    assert uncalled_definitions({
        "a": "def f(): g()\ndef g(): pass\ndef h(): pass\n"
             "class C:\n    def __init__(self): pass\n    def m(self): pass\n",
        "b": "from a import C, f\nf(C().x)\ndef main(): pass\n",
    }, exempt={"b.main"}) == ["a.C.m", "a.h"]
    # cli.main is the console entry point; the layer trace wraps its targets by name
    exempt = {"cli.main", *trace_targets()}
    package = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert uncalled_definitions(package, exempt) == []


def test_unread_slots():
    assert unread_slots({
        "a": "class T:\n    __slots__ = ('x', 'y', 'z', 'w')\n"
             "    def f(self):\n        self.y = self.x\n        self.w += 1\n",
        "b": "def g(t):\n    return t.z\n",
    }) == ["a.T.w", "a.T.y"]
    package = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unread_slots(package) == []


def test_trace_targets_exist():
    """perfbench/run.py --trace 1 looks every target up on the package, so a missing
    one would fail every traced run."""
    missing = []
    for target in trace_targets():
        module, *path = target.split(".")
        owner = importlib.import_module(f"retinapipe.{module}")
        for attr in path:
            owner = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if owner is None:
            missing.append(target)
    assert missing == []

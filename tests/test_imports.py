"""The project's own lint, since it depends on no linter:

- every name a package or test module imports is used in that module;
- every function, class and method defined in `src/retinapipe/` is referenced
  somewhere in `src/retinapipe/`, so code no caller needs cannot pile up;
- every `__slots__` entry of a class in `src/retinapipe/` is read somewhere in
  `src/retinapipe/`, so a field that is only ever written cannot pile up;
- every parameter with a default, of a function or method in `src/retinapipe/`,
  is passed by some call in `src/retinapipe/`, so a parameter that every caller
  leaves at one value cannot pile up;
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
    module sources whose name no module mentions as a name or an attribute. A
    method or property defined directly in a class is reached only through an
    object or the class, so only an attribute (x.name) counts for it.

    The match is by name only: a definition shadowed by any same-named name or
    attribute (a local variable, np.tanh) counts as referenced. Dunder methods
    are called by Python itself and are skipped.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    referenced = attributes | {node.id for node in nodes if isinstance(node, ast.Name)}
    uncalled = []

    def visit(body, prefix, in_class=False):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                qualname = f"{prefix}.{node.name}"
                dunder = node.name.startswith("__") and node.name.endswith("__")
                method = in_class and isinstance(node, ast.FunctionDef)
                names = attributes if method else referenced
                if not dunder and node.name not in names and qualname not in exempt:
                    uncalled.append(qualname)
                visit(node.body, qualname, isinstance(node, ast.ClassDef))

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


def unpassed_defaults(modules: dict[str, str], exempt=frozenset()) -> list[str]:
    """The qualified names ("module.Class.method.parameter") of the parameters with
    a default, of the functions and methods in the module sources, that no call in
    the module sources passes.

    A call passes a parameter by keyword, by position (after the implicit self or
    cls of a method called on an object or class), or through *args (every
    positional parameter) or **kwargs (every parameter). As in uncalled_definitions
    the match is by name only: a call to any callee of the function's name counts,
    and a class's __init__ is called by the class's name.
    """
    calls: dict[str, list[ast.Call]] = {}
    trees = {name: ast.parse(source) for name, source in modules.items()}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                callee = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(callee, []).append(node)

    def passed(call: ast.Call, positional: list[str], offset: int, param: str) -> bool:
        if any(kw.arg in (None, param) for kw in call.keywords):
            return True
        if param not in positional:
            return False  # keyword-only
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            return True
        return positional.index(param) < offset + len(call.args)

    unpassed = []

    def visit(body, prefix, cls=None):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}.{node.name}", node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{node.name}"
                a = node.args
                positional = [arg.arg for arg in a.posonlyargs + a.args]
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                offset = 1 if cls is not None and not static else 0
                callees = [node.name] + ([cls] if node.name == "__init__" else [])
                defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
                defaulted += [arg.arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d]
                for param in defaulted:
                    if f"{qualname}.{param}" not in exempt and not any(
                            passed(call, positional, offset, param)
                            for callee in callees for call in calls.get(callee, ())):
                        unpassed.append(f"{qualname}.{param}")
                visit(node.body, qualname)

    for name, tree in trees.items():
        visit(tree.body, name)
    return sorted(unpassed)


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
             "class C:\n    def __init__(self): pass\n    def m(self): pass\n"
             "    def k(self): pass\n    def j(self): pass\n",
        "b": "from a import C, f\nf(C().x)\ndef main(): pass\n"
             "k = C().j  # the bare name k is a local, not the method\n",
    }, exempt={"b.main"}) == ["a.C.k", "a.C.m", "a.h"]
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


def test_unpassed_defaults():
    assert unpassed_defaults({
        "a": "def f(x, y=1, z=2, *, k=3, j=4): pass\n"
             "def g(p=0): pass\n"
             "def h(q=0, r=1): pass\n"
             "class C:\n    def __init__(self, u=0): pass\n    def m(self, v=0, w=1): pass\n"
             "    @staticmethod\n    def s(t=0): pass\n"
             "def main(argv=None): pass\n",
        "b": "from a import C, f, g, h\nf(0, 1)\nf(0, k=4)\nf(*[0, 1, 2])\ng(*[1])\n"
             "h(**{})\nC(5).m(6)\nC.s(7)\n",
    }, exempt={"a.main.argv"}) == ["a.C.m.w", "a.f.j"]
    # cli.main(argv) is the console entry point, which calls it with no argument
    package = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unpassed_defaults(package, {"cli.main.argv"}) == []


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

"""Every name a package or test module imports is used in that module.

The project depends on no linter, so this test is the check that keeps dead
imports out of `src/retinapipe/` and `tests/`.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCANNED = sorted([*(ROOT / "src" / "retinapipe").glob("*.py"), *(ROOT / "tests").glob("*.py")])


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

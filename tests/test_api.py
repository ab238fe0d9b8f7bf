"""Every public top-level function of the package has a caller.

A caller is an ``ast.Name`` or ``ast.Attribute`` use of the function's name:
in its own module outside its own ``def``, in another module of the package
(``__init__`` only re-exports), or in the scripts, the benchmark harness or
the acceptance tests.  The rest of the tests do not count: a function that
only tests call is a second copy of one that the program runs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _names(node: ast.AST) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_every_public_function_has_a_caller():
    package = (ROOT / "src" / "qprog").glob("*.py")
    modules = {p.stem: _parse(p) for p in package if p.stem != "__init__"}
    readers = [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
               ROOT / "tests" / "test_acceptance.py"]
    outside = set().union(*(_names(_parse(p)) for p in readers))
    uncalled = []
    for name, tree in modules.items():
        used = outside.union(*(_names(t) for other, t in modules.items() if other != name))
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                own = set().union(*(_names(s) for s in tree.body if s is not stmt))
                if stmt.name not in used | own:
                    uncalled.append(f"{name}.{stmt.name}")
    assert not uncalled, f"public functions without a caller: {sorted(uncalled)}"

"""`import darbouxops` loads only the standard library and the package.

This pins the README's "pure standard library" claim and keeps the import
path short: every benchmark process pays for it at start-up.  No module
of the package, the tests or the scripts keeps an import it does not use,
unless the line says `# noqa` (a re-export), and every top-level function
and class of the package is read somewhere outside its own definition.
The package modules form layers (`LAYERS`): each imports only modules
below its own, at any depth, so no law drifts back into a lower layer
behind a function-level import.
"""

import ast
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# -S skips `site`, so the modules that .pth files of the installation load
# at interpreter start are not counted; a third-party import then fails.
_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import darbouxops; "
    "print('\\n'.join(sorted(m for m in sys.modules if m != '__main__')))"
)


def test_import_loads_only_the_standard_library():
    proc = subprocess.run([sys.executable, "-S", "-c", _PROBE, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "darbouxops.lie" in loaded
    tops = {m.split(".")[0] for m in loaded}
    assert sorted(tops - set(sys.stdlib_module_names) - {"darbouxops"}) == []


def _unused_imports(path: pathlib.Path) -> list:
    """Names that `path` imports but never reads, outside `# noqa` lines."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used)


def test_no_module_keeps_an_unused_import():
    """Over the package, the tests and the scripts.  The package `__init__`
    is exempt: every import there is the public API."""
    modules = sorted((ROOT / "src" / "darbouxops").glob("*.py"))
    assert len(modules) > 10
    modules += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    unused = [u for path in modules if path.name != "__init__.py" for u in _unused_imports(path)]
    assert unused == []


def test_the_unused_import_check_sees_a_leftover(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from math import gcd, lcm\nimport os.path\n"
                    "from sys import argv  # noqa: F401\n\nprint(gcd(4, 6))\n")
    assert _unused_imports(path) == ["mod.py:1 lcm", "mod.py:2 os"]


def _references(tree: ast.Module) -> set:
    """The names `tree` reads (`ast.Name`, the attribute of an `ast.Attribute`,
    an imported name), not counting a top-level definition's reads of itself."""
    names = set()
    for stmt in tree.body:
        own = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                own.add(node.id)
            elif isinstance(node, ast.Attribute):
                own.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                own.update(alias.name for alias in node.names)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own.discard(stmt.name)
        names |= own
    return names


def _unreferenced(defining: list, reading: list) -> list:
    """Top-level functions and classes of `defining` that no file of `reading` reads."""
    read = set().union(*(_references(ast.parse(p.read_text())) for p in reading))
    return sorted(f"{path.name}:{stmt.lineno} {stmt.name}" for path in defining
                  for stmt in ast.parse(path.read_text()).body
                  if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and stmt.name not in read)


def test_every_function_and_class_is_read():
    modules = sorted((ROOT / "src" / "darbouxops").glob("*.py"))
    readers = [p for top in ("src", "scripts", "perfbench", "tests")
               for p in sorted((ROOT / top).rglob("*.py"))]
    assert len(readers) > len(modules) > 10
    assert _unreferenced(modules, readers) == []


def test_the_dead_code_check_sees_a_leftover(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text("def used():\n    pass\n\n\nclass Kept:\n    pass\n\n\n"
                   "def dead(n):\n    return dead(n - 1)\n")
    user.write_text("from lib import used\nimport lib\n\nused()\nlib.Kept()\n")
    assert _unreferenced([lib], [lib, user]) == ["lib.py:9 dead"]


# every package module but `__init__`, lowest layer first
LAYERS = ["errors", "scalars", "poly", "linalg", "lie", "operators", "invariants", "pencil",
          "io_json", "latexout", "catalog_data", "catalog", "cli"]


def _package_imports(path: pathlib.Path) -> list:
    """(line, module) of every package module that `path` imports, at any depth."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module
            elif node.module and node.module.split(".")[0] == "darbouxops":
                base = node.module.partition(".")[2] or None
            else:
                continue
            names = [base] if base else [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name.partition(".")[2] for alias in node.names
                     if alias.name.startswith("darbouxops.")]
        else:
            continue
        found += [(node.lineno, name.split(".")[0]) for name in names]
    return found


def _layer_violations(paths: list) -> list:
    """Imports of a module at or above the importer's own layer."""
    rank = {name: i for i, name in enumerate(LAYERS)}
    return sorted(f"{path.stem}:{line} imports {name}" for path in paths
                  for line, name in _package_imports(path)
                  if rank.get(name, len(LAYERS)) >= rank[path.stem])


def test_package_modules_import_only_lower_layers():
    modules = sorted(p for p in (ROOT / "src" / "darbouxops").glob("*.py")
                     if p.name != "__init__.py")
    assert sorted(p.stem for p in modules) == sorted(LAYERS)
    assert _layer_violations(modules) == []


def test_the_layer_check_sees_a_lazy_import(tmp_path):
    lie = tmp_path / "lie.py"
    lie.write_text("from . import linalg\nfrom .scalars import Scalar\n\n\n"
                   "def change_basis(g, a):\n    from .operators import transform_poly_operator\n"
                   "    import darbouxops.invariants\n    from darbouxops import cli\n")
    assert _layer_violations([lie]) == [
        "lie:6 imports operators", "lie:7 imports invariants", "lie:8 imports cli"]

"""Every public function, class and method of the package has a caller on a
product path: the package itself or the benchmark under perfbench/. A name
that only tests or demos reach is dead weight; move it under tests/ or
delete it.

Uses are matched by bare name (a loaded name or attribute, an imported name,
or, under perfbench/ only, a string naming it, as the benchmark's hooks do),
so two definitions that share a name share their uses. The check can miss a
dead name that way, but never flags a used one. A string in the package is
data, such as a CSV header, and names no function."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kgcl"
BENCHMARK = ROOT / "perfbench"

def public_definitions(path: Path) -> dict[str, str]:
    """{qualified name: bare name} of the module's public functions and
    classes and their public methods."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found[f"{path.stem}.{node.name}"] = node.name
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return found


def used_names(path: Path, strings: bool) -> set[str]:
    """Bare names the module loads or imports, and, when strings is set, its
    string constants."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_every_public_name_has_a_product_caller():
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        defined.update(public_definitions(path))
    assert {"data.KnowledgeGraph", "data.KnowledgeGraph.split"} <= set(defined)
    used = set().union(
        *(used_names(p, strings=False) for p in PACKAGE.glob("*.py")),
        *(used_names(p, strings=True) for p in BENCHMARK.glob("*.py")),
    )
    dead = sorted(q for q, name in defined.items() if name not in used)
    assert not dead, f"public names with no caller in src/kgcl or perfbench: {dead}"

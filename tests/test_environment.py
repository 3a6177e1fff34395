"""The package reads no environment variable: every setting reaches it
through a config, a flag or a function argument, so a run does what its
command line says whatever the shell holds."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kgcl"
ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[int]:
    """Line numbers of every name, attribute or import of os.environ,
    os.getenv and their bytes forms."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.ImportFrom):
            name = next((a.name for a in node.names if a.name in ENVIRONMENT_READS), "")
        else:
            continue
        if name in ENVIRONMENT_READS:
            lines.append(node.lineno)
    return lines


def test_the_scan_finds_each_form_of_an_environment_read():
    for source in ("import os\nos.environ.get('X')", "import os\nos.getenv('X')",
                   "from os import environ", "from os import getenv as g"):
        assert environment_reads(source), source
    assert not environment_reads("import os\nos.path.exists('x')")


def test_the_package_reads_no_environment_variable():
    found = {
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in environment_reads(path.read_text(encoding="utf-8"))
    }
    assert not found, f"environment reads in src/kgcl: {sorted(found)}"

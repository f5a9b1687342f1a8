"""No module of ``src/effham`` reads the environment, so that no knob can
change a run unnoticed: an ``ast`` scan of each module, in the manner of
``tools/code_lines.py``, for ``os.environ``, ``os.getenv`` and any other
use or import of those names."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_READS = {"environ", "environb", "getenv", "getenvb"}


def _reads(text: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each name in ``text`` that reads the environment:
    an attribute, a bare name or an imported name."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rpartition(".")[2] for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in _READS]
    return sorted(found)


def test_the_scan_finds_each_way_of_reading_the_environment():
    text = ("import os\nfrom os import getenv\nimport os as o\n"
            "a = os.environ.get('X')\nb = o.getenv('Y')\nc = environ['Z']\n")
    assert _reads(text) == [(2, "getenv"), (4, "environ"), (5, "getenv"), (6, "environ")]


def test_no_module_of_the_package_reads_the_environment():
    modules = sorted((ROOT / "src" / "effham").glob("*.py"))
    assert modules
    found = [f"{path.name}:{line}: {name}" for path in modules
             for line, name in _reads(path.read_text(encoding="utf-8"))]
    assert found == []

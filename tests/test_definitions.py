"""Every function, method and class in the package is referenced somewhere.

A definition counts as referenced when its name appears, as a whole word,
anywhere in the Python files under `src/`, `demos/`, `perfbench/` or
`tests/` other than in a definition of that name.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "demos", "perfbench", "tests")
PACKAGE = ROOT / "src" / "pointpeft"


def definitions(source: str) -> list[tuple[str, int]]:
    """(name, line) of every non-dunder function, method and class."""
    return [
        (node.name, node.lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def unreferenced(sources: dict[str, str], checked: set[str]) -> list[str]:
    """`path:line name` for each definition in a `checked` source whose name
    occurs in `sources` only where something of that name is defined."""
    words = Counter(w for text in sources.values() for w in re.findall(r"\w+", text))
    defined = Counter(name for text in sources.values() for name, _ in definitions(text))
    return sorted(
        f"{path}:{line} {name}"
        for path in checked
        for name, line in definitions(sources[path])
        if words[name] <= defined[name]
    )


def test_detector_flags_only_unreferenced_names():
    sources = {
        "pkg.py": (
            "class Used:\n"
            "    def __init__(self): pass\n"
            "    def called(self): pass\n"
            "    def orphan(self): pass\n"
            "def helper(): return Used().called()\n"
            "def twice(): pass\n"
        ),
        "user.py": "from pkg import helper  # see twice\nhelper()\ndef orphan(): pass\n",
    }
    assert unreferenced(sources, {"pkg.py"}) == ["pkg.py:4 orphan"]


def test_package_has_no_unreferenced_definitions():
    sources = {
        str(path.relative_to(ROOT)): path.read_text()
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    checked = {str(path.relative_to(ROOT)) for path in PACKAGE.glob("*.py")}
    assert unreferenced(sources, checked) == []

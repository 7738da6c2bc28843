"""Every function, method and class in the package is referenced somewhere.

A function or class counts as referenced when its name appears, as a whole
word, anywhere in the Python files under `src/`, `demos/`, `perfbench/` or
`tests/` other than in a definition of that name.

A method counts as referenced only through an attribute access `x.name`, or
an attribute-name string such as `getattr(x, "name")` or perfbench's
`(module, "name", span)` sites, whose receiver `x` is not a module alias.
So `ag.backward(loss)` and `(ag, "backward", ...)` name the function
`autograd.backward`, not a method `Tensor.backward`.

Dunder methods are not checked.  `a + b` runs `type(a).__add__` or
`type(b).__radd__` without naming either, and which class's method runs
depends on the operands' types at run time, so no reading of the source can
tell an operator method that runs from one that never does.  Unused ones
are found by wrapping them and counting their calls over the suite, the
demos and a benchmark run.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "demos", "perfbench", "tests")
PACKAGE = ROOT / "src" / "pointpeft"


def definitions(tree: ast.AST) -> list[tuple[str, int, bool]]:
    """(name, line, is_method) of every non-dunder function, method and class."""
    methods = {
        id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body
    }
    return [
        (node.name, node.lineno, id(node) in methods)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def module_aliases(tree: ast.AST, modules: set[str]) -> set[str]:
    """Names that `import` binds, and those `from ... import` binds to one
    of the searched `modules`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names if a.name in modules)
    return names


def attribute_names(tree: ast.AST, aliases: set[str]) -> set[str]:
    """Attributes read or set on, or named by a string after, a receiver
    that is not a module alias."""

    def on_object(receiver: ast.AST) -> bool:
        return not (isinstance(receiver, ast.Name) and receiver.id in aliases)

    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and on_object(node.value):
            out.add(node.attr)
        items = node.args if isinstance(node, ast.Call) else getattr(node, "elts", [])
        for receiver, item in zip(items, items[1:]):
            if isinstance(item, ast.Constant) and isinstance(item.value, str) and on_object(receiver):
                out.add(item.value)
    return out


def unreferenced(sources: dict[str, str], checked: set[str]) -> list[str]:
    """`path:line name` for each definition in a `checked` source that
    nothing in `sources` refers to, by the rules above."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    modules = {Path(path).stem for path in sources}
    words = Counter(w for text in sources.values() for w in re.findall(r"\w+", text))
    defined = Counter(name for tree in trees.values() for name, _, _ in definitions(tree))
    attributes = set().union(
        *(attribute_names(tree, module_aliases(tree, modules)) for tree in trees.values())
    )
    return sorted(
        f"{path}:{line} {name}"
        for path in checked
        for name, line, is_method in definitions(trees[path])
        if (name not in attributes if is_method else words[name] <= defined[name])
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


def test_detector_sees_a_method_shadowed_by_a_function():
    """Only calls through an object reach a method; a module's function of
    the same name, called or named as a string, does not."""
    sources = {
        "pkg.py": (
            "class Node:\n"
            "    def backward(self): pass\n"
            "    def run(self): pass\n"
            "    def probe(self): pass\n"
            "def backward(node): node.run()\n"
        ),
        "user.py": (
            "import pkg as ag\n"
            "from pkg import backward\n"
            "backward(ag.Node())\n"
            "ag.backward(ag.Node())  # not Node.backward\n"
            "SITES = [(ag, 'backward', 'span')]\n"
            "print(getattr(ag.Node(), 'probe'))\n"
        ),
    }
    assert unreferenced(sources, {"pkg.py"}) == ["pkg.py:2 backward"]


def test_package_has_no_unreferenced_definitions():
    sources = {
        str(path.relative_to(ROOT)): path.read_text()
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    checked = {str(path.relative_to(ROOT)) for path in PACKAGE.glob("*.py")}
    assert unreferenced(sources, checked) == []

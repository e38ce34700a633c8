"""Every function, method and class in the package is used somewhere.

A name counts as used when some module under src/, tests/, demos/ or bench/
mentions it outside its own definition: as a name, an attribute, an imported
alias or a string (the benchmark patches functions by name). Names match by
spelling alone, so a method counts as used when any same-named attribute is
read. Dunder methods are exempt, since Python calls them implicitly.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cyclefactors"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class _Mentions(ast.NodeVisitor):
    """Collects every name a module mentions, except inside its own definition."""

    def __init__(self):
        self.enclosing = []
        self.names = set()

    def _definition(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _mention(self, name):
        if name not in self.enclosing:
            self.names.add(name)

    def visit_Name(self, node):
        self._mention(node.id)

    def visit_Attribute(self, node):
        self._mention(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._mention(node.name.rsplit(".", 1)[-1])

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self._mention(node.value)


def test_no_unreferenced_definitions():
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, DEFS) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
    mentions = _Mentions()
    for top in ("src", "tests", "demos", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            mentions.visit(ast.parse(path.read_text()))
    unused = sorted(f"{where} {name}" for name, where in defined.items()
                    if name not in mentions.names)
    assert not unused, f"defined but never referenced: {unused}"

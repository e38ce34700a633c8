"""Every function, method and class in the package is used somewhere, and
every module reads every name it imports.

A name counts as used when some module under src/, tests/, demos/ or bench/
mentions it outside its own definition: as a name, an attribute, an imported
alias or a string (the benchmark patches functions by name). A string in a
module's ``__all__`` does not count: exporting a name does not use it. A method (a
function defined in a class body) counts only through an attribute read
(``x.name``) or a string: a bare variable of the same spelling does not call
it. Names match by spelling alone, so a method counts as used when any
same-named attribute is read. Dunder methods are exempt, since Python calls
them implicitly. A name that only tests/ mention (a re-export in
``__init__.py`` is no use) must be a named oracle in ``TEST_ORACLES``.

Every attribute a class in the package stores (an annotated class field, a
``__slots__`` entry, or an attribute its methods set on ``self``) is read
somewhere outside tests/: as an attribute (``x.name``) or a string, matched
by spelling like the definitions above. A class that lists its own
``fields()`` reads all of them. An attribute no module outside tests/ reads
must be named in ``TEST_READ_ATTRIBUTES`` with the reason it stays.

An imported name counts as read when the module loads it as a bare name or
lists it in ``__all__``. ``__init__.py`` is exempt: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cyclefactors"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Definitions that only tests reach, each kept as an independent oracle or a
# read-back probe the tests check the program against.
TEST_ORACLES = {
    "reg_k_by_enumeration": "exhaustive reg_k, the reference for reg_k",
    "hamilton_exists": "exhaustive Hamilton-cycle search on small hosts",
    "degree_transfer_check": "the degree-transfer identity of a weighting",
    "classify": "the k-set types relative to a path collection",
    "transition_dist": "the exact next-vertex law of a weighted walk",
    "advance": "WalkState's step, driving transition_dist",
    "self_avoiding_rate": "Monte-Carlo self-avoidance of sampled walks",
    "as_floats": "a float weighting, which the exact oracles must refuse",
    "length": "TightPath's edge count",
    "girth": "CycleFactor's shortest cycle",
}

# Attributes that only tests read (or nothing reads), as "Class.attribute",
# each with the reason it stays.
_TRANSFER = "degree_transfer_check's report, which only tests read"
_SELF_AVOIDING = "self_avoiding_rate's result, which only tests read"
TEST_READ_ATTRIBUTES = {
    "TransferReport.precondition_ok": _TRANSFER,
    "TransferReport.failing_sets": _TRANSFER,
    "TransferReport.set_ratios": _TRANSFER,
    "TransferReport.vertex_ratios": _TRANSFER,
    "TransferReport.vertex_pass": _TRANSFER,
    "TransferReport.all_pass": _TRANSFER,
    "SelfAvoidingRate.rate": _SELF_AVOIDING,
    "SelfAvoidingRate.trials": _SELF_AVOIDING,
    "SelfAvoidingRate.hits": _SELF_AVOIDING,
    "AbsorptionResult.phi": "absorb's output; absorb stays while bench/tracer.py patches it",
}


class _Mentions(ast.NodeVisitor):
    """Collects every name a module mentions, except inside its own definition."""

    def __init__(self):
        self.enclosing = []
        self.names = set()  # bare names and imported aliases
        self.attributes = set()  # attributes and strings

    def _definition(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def visit_Assign(self, node):
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)

    def _mention(self, name, into):
        if name not in self.enclosing:
            into.add(name)

    def visit_Name(self, node):
        self._mention(node.id, self.names)

    def visit_Attribute(self, node):
        self._mention(node.attr, self.attributes)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._mention(node.name.rsplit(".", 1)[-1], self.names)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self._mention(node.value, self.attributes)


def _definitions(tree):
    """(name, line, is_method) for every non-dunder definition in the module."""
    methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, DEFS[:2])}
    for node in ast.walk(tree):
        if isinstance(node, DEFS) and not (
            node.name.startswith("__") and node.name.endswith("__")
        ):
            yield node.name, node.lineno, id(node) in methods


def _defined():
    """(name, "module.py:line", is_method) for every definition in src/."""
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        defined += [(name, f"{path.name}:{line}", is_method)
                    for name, line, is_method in _definitions(ast.parse(path.read_text()))]
    return defined


def _unreferenced(defined, paths):
    """"where name" of every definition that no file in paths mentions."""
    mentions = _Mentions()
    for path in paths:
        mentions.visit(ast.parse(path.read_text()))
    return sorted(
        f"{where} {name}" for name, where, is_method in defined
        if name not in mentions.attributes
        and (is_method or name not in mentions.names)
    )


def _sources(*tops):
    return [path for top in tops for path in sorted((ROOT / top).rglob("*.py"))]


def test_no_unreferenced_definitions():
    unused = _unreferenced(_defined(), _sources("src", "tests", "demos", "bench"))
    assert not unused, f"defined but never referenced: {unused}"


def test_definitions_only_tests_reach_are_named_oracles():
    defined = _defined()

    def unreferenced_names(paths):
        return {entry.split()[-1] for entry in _unreferenced(defined, paths)}

    program = [p for p in _sources("src", "demos", "bench") if p.name != "__init__.py"]
    test_only = unreferenced_names(program) - unreferenced_names(
        _sources("src", "tests", "demos", "bench")
    )
    assert test_only <= set(TEST_ORACLES), (
        f"only tests reach {sorted(test_only - set(TEST_ORACLES))}: delete them, "
        "or name them in TEST_ORACLES with the reason they stay"
    )
    assert set(TEST_ORACLES) <= test_only, (
        f"the program reaches {sorted(set(TEST_ORACLES) - test_only)}: "
        "take them off TEST_ORACLES"
    )


def _imported(tree):
    """(bound name, line) for every import in the module but ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".", 1)[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _read_names(tree):
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant))
    return read


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = _read_names(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in _imported(tree)
                   if name not in read]
    assert not unused, f"imported but never read: {unused}"


def _stored_attributes(tree):
    """("Class.attribute", line) for every attribute a class stores, except
    dunders and the fields of a class that reads its own ``fields()``."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        stored = {}
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                stored[node.target.id] = node.lineno
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
            ):
                stored.update((c.value, node.lineno) for c in ast.walk(node.value)
                              if isinstance(c, ast.Constant))
        reads_own_fields = False
        for node in ast.walk(cls):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                stored.update((t.attr, node.lineno) for t in targets
                              if isinstance(t, ast.Attribute)
                              and isinstance(t.value, ast.Name) and t.value.id == "self")
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr == "__setattr__" \
                        and len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
                    stored[node.args[1].value] = node.lineno  # object.__setattr__(self, ...)
                elif isinstance(func, ast.Name) and func.id == "fields":
                    reads_own_fields = True
        if reads_own_fields:
            continue
        for name, line in stored.items():
            if not (name.startswith("__") and name.endswith("__")):
                yield f"{cls.name}.{name}", line


def _read_attributes(paths):
    """Every attribute read (load context) and string in the given files."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return read


def test_attributes_only_tests_read_are_named():
    program = _read_attributes(_sources("src", "demos", "bench"))
    unread = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for key, line in _stored_attributes(ast.parse(path.read_text())):
            if key.split(".", 1)[1] not in program:
                unread[key] = f"{path.name}:{line} {key}"
    unnamed = sorted(where for key, where in unread.items() if key not in TEST_READ_ATTRIBUTES)
    assert not unnamed, (
        f"no module outside tests/ reads {unnamed}: delete them, or name them "
        "in TEST_READ_ATTRIBUTES with the reason they stay"
    )
    assert set(TEST_READ_ATTRIBUTES) <= set(unread), (
        f"the program reads {sorted(set(TEST_READ_ATTRIBUTES) - set(unread))}: "
        "take them off TEST_READ_ATTRIBUTES"
    )

"""Every import in the package and its tests is used, every parameter of a
package function is read, every package function has a caller in the
package, every field of a package dataclass is read in the package, and
only the functions in `LP_CALLERS` solve an exact LP, `classify.py` and
`exact.py` import only the standard library, and the check layer reads no
private attribute of another object.

A static scan with `ast`: a name bound by an import must appear somewhere
else in the module, as a name, as the root of an attribute chain, inside a
string annotation or in `__all__`.  `from __future__` imports are exempt.
A parameter must be loaded somewhere in its function's body, nested
functions included; `self`, `cls` and bodies that only raise are exempt.
A module-level function or a method is called when its name appears, as a
name or as an attribute, in the package outside its own body.  A
`self.<name>` reference counts only for the methods its class can dispatch
to: its own, its ancestors' and its descendants'.  Dunder methods and the
entry points in `ENTRY_POINTS` are exempt.  A dataclass field is read when
its name is loaded as an attribute, `x.<field>`, anywhere in the package.
A function refers to `exact.feasible_nonneg` when that name appears, as a
name or as an attribute, inside its body.  An import's root is its first
dotted name, or "." for a relative import.  A private attribute is one
whose name starts with a single underscore; `self.<name>` and
`cls.<name>` are the object's own.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "conelab").glob("*.py"))
SOURCES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement -> its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = [getattr(node, "annotation", None),
                       getattr(node, "returns", None)]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used(ast.parse(ann.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((line, name) for name, line in _imported(tree).items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import os\nimport numpy as np\nfrom a import b, c as d\n"
           "def f(x: 'd') -> None:\n    return np.zeros(1)\n")
    assert unused_imports(src) == [(2, "os"), (4, "b")]


def _only_raises(body: list[ast.stmt]) -> bool:
    stmts = body
    if stmts and isinstance(stmts[0], ast.Expr) and isinstance(
            stmts[0].value, ast.Constant) and isinstance(
            stmts[0].value.value, str):
        stmts = stmts[1:]
    return bool(stmts) and all(isinstance(s, ast.Raise) for s in stmts)


def unused_parameters(source: str) -> list[tuple[int, str, str]]:
    """(line, function, parameter) for each parameter its body never reads."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or _only_raises(node.body):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *(p for p in (a.vararg, a.kwarg) if p is not None)]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(node.lineno, node.name, p.arg) for p in params
                if p.arg not in ("self", "cls") and p.arg not in read]
    return sorted(out)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_unused_parameter():
    src = ("class C:\n"
           "    def stub(self, x):\n        'doc'\n"
           "        raise NotImplementedError\n"
           "    def f(self, a, b, *args, c=1, **kw):\n"
           "        def g():\n            return b\n"
           "        a = 2\n        return g() + c\n")
    assert unused_parameters(src) == [(5, "f", "a"), (5, "f", "args"),
                                      (5, "f", "kw")]


# (module, function) called from outside the package: the CLI commands, which
# click dispatches, and the eja constructors of the simple algebras
ENTRY_POINTS = {
    ("cli", "check"), ("cli", "fixtures_cmd"), ("cli", "classify_cmd"),
    ("cli", "steer_cmd"),
    ("eja", "real_sym"), ("eja", "complex_herm"), ("eja", "quat_herm"),
    ("eja", "spin_factor"), ("eja", "classical"),
}


def uncalled_functions(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, function) for each module-level function, and (module,
    "Class.method") for each method, that nothing outside its own body
    calls.  A reference `self.<name>` inside a class calls the methods of
    that name on the class, its ancestors and its descendants, the ones
    the call can dispatch to; any other name or attribute reference calls
    every function of that name."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs, refs, bases = [], [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
        self_refs = set()
        for node in tree.body:
            if isinstance(node, funcs):
                defs.append((module, None, node))
            elif isinstance(node, ast.ClassDef):
                bases[node.name] = {getattr(b, "id", None)
                                    or getattr(b, "attr", None)
                                    for b in node.bases}
                defs += [(module, node.name, f) for f in node.body
                         if isinstance(f, funcs)]
                for n in ast.walk(node):
                    if isinstance(n, ast.Attribute) and isinstance(
                            n.value, ast.Name) and n.value.id == "self":
                        refs.append((module, node.name, n.attr, n.lineno))
                        self_refs.add(n)
        refs += [(module, None, getattr(n, "id", None)
                  or getattr(n, "attr", None), n.lineno)
                 for n in ast.walk(tree) if n not in self_refs
                 and isinstance(n, (ast.Name, ast.Attribute))]

    def ancestors(cls: str) -> set[str]:
        out, todo = set(), [cls]
        while todo:
            new = bases.get(todo.pop(), set()) - out
            out |= new
            todo += new
        return out

    def dispatches(owner: str, cls: str) -> bool:
        return owner == cls or owner in ancestors(cls) \
            or cls in ancestors(owner)

    return sorted(
        (module, f.name if cls is None else f"{cls}.{f.name}")
        for module, cls, f in defs
        if not (f.name.startswith("__") and f.name.endswith("__"))
        and not any(name == f.name and (
            owner is None or cls is not None and dispatches(owner, cls))
            and not (where == module and f.lineno <= line <= f.end_lineno)
            for where, owner, name, line in refs))


def test_every_package_function_has_a_caller():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert set(uncalled_functions(sources)) <= ENTRY_POINTS
    # every allowlisted entry point still exists
    assert all(f"def {name}(" in sources[module]
               for module, name in ENTRY_POINTS)


def test_scan_flags_an_uncalled_function():
    sources = {"a": ("def used():\n    return 1\n"
                     "def recursive(n):\n    return recursive(n - 1)\n"
                     "class C:\n    def __init__(self):\n        pass\n"
                     "    def method(self):\n        return used()\n"),
               "b": "from a import C\nC().method()\n"}
    assert uncalled_functions(sources) == [("a", "recursive")]


def test_scan_resolves_self_calls_to_their_class():
    # A.f calls self.g, which reaches A.g and its override C.g, not B.g
    sources = {"a": ("class A:\n    def f(self):\n        return self.g()\n"
                     "    def g(self):\n        return 1\n"
                     "class B:\n    def g(self):\n        return 2\n"
                     "class C(A):\n    def g(self):\n        return 3\n"),
               "b": "from a import A\nA().f()\n"}
    assert uncalled_functions(sources) == [("a", "B.g")]


def unread_dataclass_fields(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, "Class.field") for each field of a `@dataclass` class whose
    name nothing loads as an attribute.  Matched by name, as the caller
    scan matches methods: any `x.<field>` read keeps every field of that
    name."""
    def is_dataclass(decorator) -> bool:
        f = decorator.func if isinstance(decorator, ast.Call) else decorator
        return "dataclass" in (getattr(f, "id", None), getattr(f, "attr", None))

    fields, read = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and any(
                    is_dataclass(d) for d in node.decorator_list):
                fields += [(module, node.name, f.target.id) for f in node.body
                           if isinstance(f, ast.AnnAssign)
                           and isinstance(f.target, ast.Name)]
            elif isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load):
                read.add(node.attr)
    return sorted((module, f"{cls}.{name}") for module, cls, name in fields
                  if name not in read)


def test_every_dataclass_field_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unread_dataclass_fields(sources) == []


def test_scan_flags_an_unread_field():
    sources = {"a": ("from dataclasses import dataclass\n"
                     "import dataclasses\n"
                     "@dataclass\nclass V:\n    status: str\n"
                     "    axiom: str = ''\n    kind: int = 0\n"
                     "@dataclasses.dataclass(frozen=True)\nclass W:\n"
                     "    label: str\n"
                     "class Plain:\n    note: str\n"),
               "b": ("def f(v, w):\n    w.label = v.status\n"
                     "    return v.kind\n")}
    # a store is not a read, and only dataclasses are scanned
    assert unread_dataclass_fields(sources) == [("a", "V.axiom"),
                                                ("a", "W.label")]


# the package functions that may solve an exact LP: pointedness, extremal
# rays and the bijection searches' positive scales.  Slower LP routes, such
# as LP membership or LP steering, live in `tests/polyhedral_oracles.py`.
LP_CALLERS = {("exact", "PolyhedralData.is_pointed"),
              ("exact", "PolyhedralData.extremal_ray_indices"),
              ("exact", "strictly_positive_in_span")}


def referrers(sources: dict[str, str], name: str) -> set[tuple[str, str]]:
    """(module, function) for each module-level function, and (module,
    "Class.method") for each method, whose body refers to `name` as a name
    or as an attribute; (module, "<module>") for a reference outside
    every function."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        spans = []
        for node in tree.body:
            if isinstance(node, funcs):
                spans.append((node.name, node))
            elif isinstance(node, ast.ClassDef):
                spans += [(f"{node.name}.{f.name}", f) for f in node.body
                          if isinstance(f, funcs)]
        for n in ast.walk(tree):
            if isinstance(n, (ast.Name, ast.Attribute)) and name in (
                    getattr(n, "id", None), getattr(n, "attr", None)):
                out.add((module, next(
                    (qual for qual, f in spans
                     if f.lineno <= n.lineno <= f.end_lineno), "<module>")))
    return out


def test_only_the_lp_callers_solve_an_lp():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert referrers(sources, "feasible_nonneg") == LP_CALLERS


def test_scan_flags_an_lp_caller():
    sources = {"a": ("from b import feasible_nonneg\n"
                     "def f():\n    return feasible_nonneg([], [])\n"
                     "class C:\n    def g(self, exact):\n"
                     "        return exact.feasible_nonneg\n"
                     "    def h(self):\n        return 1\n"
                     "SOLVE = feasible_nonneg\n")}
    assert referrers(sources, "feasible_nonneg") == {
        ("a", "f"), ("a", "C.g"), ("a", "<module>")}


def imported_roots(source: str) -> set[str]:
    """The root module of each import: its first dotted name, or "." for a
    relative import."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            roots.add("." if node.level else node.module.split(".")[0])
    return roots


def test_classify_imports_only_the_standard_library():
    # `conelab classify` loads only cli and classify: no numpy and no other
    # conelab layer; the exact layer is plain integers and `Fraction`s
    for name in ("classify.py", "exact.py"):
        source = (ROOT / "src" / "conelab" / name).read_text(
            encoding="utf-8")
        assert imported_roots(source) <= sys.stdlib_module_names, name


def test_scan_flags_a_non_standard_import():
    src = ("from __future__ import annotations\nimport os.path\n"
           "from . import exact\nfrom conelab.cones import HOLDS\n"
           "def f():\n    import numpy as np\n    return np, exact, HOLDS\n")
    roots = imported_roots(src)
    assert roots == {"__future__", "os", ".", "conelab", "numpy"}
    assert roots - sys.stdlib_module_names == {".", "conelab", "numpy"}


# the check layer: it asks the cones, and reaches into none of them
CHECK_LAYER = ("fixtures.py", "axioms.py", "cli.py")


def private_reads(source: str) -> list[tuple[int, str]]:
    """(line, attribute) for each attribute whose name starts with a single
    underscore, read off anything but `self` or `cls`."""
    return sorted(
        (n.lineno, n.attr) for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and n.attr.startswith("_")
        and not n.attr.startswith("__")
        and not (isinstance(n.value, ast.Name)
                 and n.value.id in ("self", "cls")))


@pytest.mark.parametrize("name", CHECK_LAYER)
def test_check_layer_reads_no_private_attribute(name):
    source = (ROOT / "src" / "conelab" / name).read_text(encoding="utf-8")
    assert private_reads(source) == []


def test_scan_flags_a_private_read():
    src = ("class C:\n    def f(self, cone):\n"
           "        self._own = cone._congruence(1, 2)\n"
           "        return type(self).__name__, cls._cache, cone.basepoint\n"
           "def g(m):\n    return m.data._normals()\n")
    assert private_reads(src) == [(3, "_congruence"), (6, "_normals")]

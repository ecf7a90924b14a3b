"""How field elements are stored is private to field.py: no other module
imports sympy, imports an underscore name from field.py, or reads an
element's or a field's private attributes.  So is the key layout of the
keyed lists and Kronecker images: no other module reads a Kronecker's
private attributes or an int's bytes, and the signed layout of the Laurent
keys, their digit range and balanced offset, is read through Laurent's
methods only, and outside field.py only matrices.py packs the keys and
bounds their reach.  The other modules reach the representation through
field.py's public names only, so a change to it is made in field.py alone;
a field's public attributes hand out no sympy object.  And no module
imports a name it does not use."""

import ast
from pathlib import Path

import gaugecones
from gaugecones.field import FunctionField

PRIVATE_ATTRIBUTES = {"_m", "_frac", "_f", "_field", "_ring", "_reciprocal",
                      "_strides", "_radices", "_digits", "_offset"}


def parsed_modules():
    package = Path(gaugecones.__file__).parent
    return {p.name: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(package.glob("*.py"))}


def test_only_field_imports_sympy():
    importers = set()
    for name, tree in parsed_modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m.split(".")[0] == "sympy" for m in modules):
                importers.add(name)
    assert importers == {"field.py"}


def test_no_private_names_of_field_outside_it():
    found = []
    for name, tree in parsed_modules().items():
        if name == "field.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    (node.level == 1 and node.module == "field")
                    or node.module == "gaugecones.field"):
                found += [(name, node.lineno, a.name) for a in node.names
                          if a.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and node.attr in PRIVATE_ATTRIBUTES:
                found.append((name, node.lineno, node.attr))
    assert found == []


def test_no_public_attribute_of_a_field_is_sympy():
    """A FunctionField's public attributes are plain data and gaugecones
    objects.  A callable is refused too: the monomial operations sympy
    generates for a ring are functions that name no module, and would hand
    out sympy's exponent tuples."""
    F = FunctionField(["x", "y"])
    leaks = [name for name, value in vars(F).items() if not name.startswith("_") and (
        callable(value) or type(value).__module__.split(".")[0] not in ("builtins", "gaugecones"))]
    assert leaks == []


def test_only_field_reads_the_bytes_of_an_int():
    readers = set()
    for name, tree in parsed_modules().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("to_bytes", "from_bytes")):
                readers.add(name)
    assert readers <= {"field.py"}


def test_only_field_reads_the_laurent_layout():
    """Outside field.py the Laurent keys are packed, decoded, signed and
    range-checked by Laurent's methods (pack, exponents, sign_at, check):
    no module reads the digit range REACH or builds a layout of its own."""
    found = []
    for name, tree in parsed_modules().items():
        if name == "field.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "REACH":
                found.append((name, node.lineno, "REACH"))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "Laurent"):
                found.append((name, node.lineno, "Laurent()"))
    assert found == []


def _name(node):
    """The name a Name or an Attribute node ends in, None for other nodes."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def test_only_matrices_and_field_handle_keys_and_reach():
    """The Laurent frame has one door, KeyedMat.of_terms and KeyedMat.cleared,
    which pack the keys and set the reach, and KeyedMat reads its entries'
    exponents itself.  Outside field.py and matrices.py no module packs,
    decodes or signs a key with a field's laurent.pack, laurent.exponents or
    laurent.sign_at, calls Laurent.check, reads or passes a reach, or calls
    KeyedMat(...) itself."""
    found = []
    for name, tree in parsed_modules().items():
        if name in ("field.py", "matrices.py"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if (node.attr, _name(node.value)) in (
                        ("pack", "laurent"), ("exponents", "laurent"), ("sign_at", "laurent"),
                        ("check", "Laurent"), ("check", "laurent")):
                    found.append((name, node.lineno, f"{_name(node.value)}.{node.attr}"))
                elif node.attr == "reach":
                    found.append((name, node.lineno, "reach"))
            elif isinstance(node, ast.keyword) and node.arg == "reach":
                found.append((name, node.lineno, "reach="))
            elif isinstance(node, ast.Call) and _name(node.func) == "KeyedMat":
                found.append((name, node.lineno, "KeyedMat()"))
    assert found == []


def test_one_way_into_the_kernels():
    """Inside matrices.py the division-free kernels are entered through _run
    alone: only _run clears a matrix for them (_cleared) and picks their
    representation (_caps); KeyedMat.cleared is the Laurent frame's door.
    Every use of either name is counted, a call or a reference, by the
    function around it."""
    users = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Name) and child.id in ("_cleared", "_caps"):
                users.setdefault(child.id, set()).add(scope)
            visit(child, scope)

    visit(parsed_modules()["matrices.py"], "")
    assert users == {"_cleared": {"_run", "KeyedMat.cleared"}, "_caps": {"_run"}}


def test_every_imported_name_is_used():
    unused = []
    for name, tree in parsed_modules().items():
        if name == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(name, line, bound) for bound, line in imported.items()
                   if bound not in used]
    assert unused == []

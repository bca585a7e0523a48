"""src/superlie holds only code that a ``superlie`` command runs.

The check is a name-level reference graph over the package source.  A
function or method is reached when its bare name is referenced (as a name
or as an attribute) from a root or from the body of a reached function.
Inside a method, ``self.name`` for a method ``name`` that the same class
defines reaches only that class's method.  A dunder method is reached when
its class's name is.  The roots are ``cli.main``, module-level statements
other than imports, and the names the benchmark tracer in
``perfbench/tracing.py`` wraps.  Matching by bare
name over-approximates what runs, so a function this test reports is
certainly never called by the package; nested functions count as part of
the function around them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "superlie"
TRACING = ROOT / "perfbench" / "tracing.py"

# Public algebra API that no command happens to call, kept on purpose.
ALLOWED: dict = {}

FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _references(nodes, own_methods=None) -> set:
    """Names read by ``nodes``: bare names, except that ``self.name`` for a
    method of the enclosing class reads as its qualified name."""
    own_methods = own_methods or {}
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                own = (isinstance(sub.value, ast.Name) and sub.value.id == "self"
                       and own_methods.get(sub.attr))
                out.add(own or sub.attr)
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def package_graph():
    """(definitions, root names): definitions map a qualified name to the
    name that reaches it and the names its body reads (see ``_references``).
    A function is reached by its bare name, a dunder method by its class's."""
    defs = {}
    roots = set()
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top_level = []
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, FUNCTION_NODES):
                defs[f"{mod}.{stmt.name}"] = (stmt.name, _references(stmt.body))
                top_level += stmt.decorator_list + [stmt.args]
            elif isinstance(stmt, ast.ClassDef):
                top_level += stmt.decorator_list + stmt.bases
                methods = {item.name: f"{mod}.{stmt.name}.{item.name}"
                           for item in stmt.body if isinstance(item, FUNCTION_NODES)}
                for item in stmt.body:
                    if isinstance(item, FUNCTION_NODES):
                        key = methods[item.name]
                        trigger = stmt.name if _is_dunder(item.name) else item.name
                        defs[key] = (trigger, _references(item.body, methods))
                        top_level += item.decorator_list + [item.args]
                    else:
                        top_level.append(item)
            else:
                top_level.append(stmt)
        roots |= _references(top_level)
    roots.add("main")
    roots |= traced_names()
    return defs, roots


def traced_names() -> set:
    """Names that perfbench/tracing.py looks up on the package."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    out = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("_wrap_function", "_wrap_method")
                and len(node.args) > 2 and isinstance(node.args[2], ast.Constant)):
            out.add(node.args[2].value)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "ARR_METHODS" for t in node.targets)):
            out |= {elt.value for elt in node.value.elts}
    return out


def unreachable() -> list:
    """Definitions reached neither by bare name nor by qualified name."""
    defs, reached = package_graph()
    dead = dict(defs)
    grew = True
    while grew:
        live = [key for key, (name, _) in dead.items() if name in reached or key in reached]
        for key in live:
            reached |= dead.pop(key)[1]
        grew = bool(live)
    return sorted(dead)


def test_traced_names_are_found():
    # guards the parser above: the tracer wraps these through string names
    names = traced_names()
    assert {"matmul", "in_row_space", "walls_type", "add_arr", "template"} <= names


def test_no_function_is_unreachable_from_the_cli():
    dead = [name for name in unreachable() if name not in ALLOWED]
    assert not dead, "defined in src/superlie but never run by superlie: " + ", ".join(dead)


def test_allowlist_entries_exist_and_are_unreached():
    defs, _ = package_graph()
    missing = sorted(set(ALLOWED) - set(defs))
    assert not missing, f"allowlisted names not defined: {missing}"
    stale = sorted(set(ALLOWED) - set(unreachable()))
    assert not stale, f"allowlisted names that are now reached; drop them: {stale}"


def test_no_module_imports_fractions():
    """Roots and weights are integer rows; Fraction arithmetic lives only in
    the test oracles."""
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name and name.split(".")[0] == "fractions" for name in names):
                importers.append(path.name)
    assert not importers, f"modules importing fractions: {importers}"

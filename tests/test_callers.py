"""Every definition in the package has a caller in the package, except a short
list of public, documented entry points that only users and tests call.

A definition is a top-level function or class, or a method of a top-level
class; dunder methods are called by Python itself and are not listed.  A
top-level definition counts as called when, outside its own body, its module
names it by a bare name, another module imports it from its module or reads
it as an attribute of that module's name (``ranktwo.cd_sequences``), or
``__init__`` lists it under its module in ``_HOMES``.  A method is called
when its name appears anywhere in the package outside its own body: as a
name, an attribute or an imported name, so a method shares its callers with
every definition of the same name.  A string is not a caller, even when it
spells the name (a JSON key such as ``"terms"``).  A name read or bound
inside a function that binds it (an argument, or an assignment, loop,
``with`` or comprehension target) is a local, not a caller.

Every check in ``selftests.SUITES``, which ``--selftest`` runs at reduced
bounds, is also called by name from a test module other than the CLI's, where
it runs at its full bounds.
"""

import ast
from collections import Counter
from pathlib import Path

import schubert_kit
from schubert_kit import selftests

SRC = Path(schubert_kit.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

# public, documented names whose callers live outside the package
ENTRY_POINTS = {
    "gcm.GeneralizedCartanMatrix.to_dict",
    "polyring.GradedPolynomial.terms",
    "polyring.WeightRing.gen",
    "polyring.WeightRing.generalized_invariants",
    "polyring.WeightRing.operator_word",
    "ranktwo.cup_schubert",
    "ranktwo.p_adic_valuation",
    "schubert.counit_collapse",
    "schubert.identity_vector",
    "weyl.WeylElement.matrix",
    "weyl.to_dict",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def bound_by(function):
    """The names a function binds: its arguments and every stored name."""
    return {n.arg if isinstance(n, ast.arg) else n.id for n in ast.walk(function)
            if isinstance(n, ast.arg) or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def named(node, local=frozenset()):
    if isinstance(node, FUNCTIONS):
        local = local | bound_by(node)
    if isinstance(node, ast.Name):
        if node.id not in local:
            yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name
    for child in ast.iter_child_nodes(node):
        yield from named(child, local)


def references(module, node, modules, local=frozenset()):
    """The (home module, name) pairs that ``node``, in ``module``, refers to."""
    if isinstance(node, FUNCTIONS):
        local = local | bound_by(node)
    if isinstance(node, ast.Name):
        if node.id not in local:
            yield module, node.id
    elif isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id in modules - local:
            yield node.value.id, node.attr
    elif isinstance(node, ast.ImportFrom) and node.module in modules:
        yield from ((node.module, alias.name) for alias in node.names)
    for child in ast.iter_child_nodes(node):
        yield from references(module, child, modules, local)


def definitions(module, tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node, True
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{module}.{node.name}.{sub.name}", sub, False


def uncalled():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    modules = set(trees)
    refs = Counter(ref for module, tree in trees.items()
                   for ref in references(module, tree, modules))
    refs.update((module, name) for module, names in schubert_kit._HOMES.items() for name in names)
    uses = Counter(name for tree in trees.values() for name in named(tree))
    out = {}
    for module, tree in trees.items():
        for qualname, node, top_level in definitions(module, tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if top_level:
                key = (module, name)
                called = refs[key] > Counter(references(module, node, modules))[key]
            else:
                called = uses[name] > Counter(named(node))[name]
            if not called:
                out[qualname] = node
    return out


def test_only_the_entry_points_lack_a_caller():
    assert sorted(uncalled()) == sorted(ENTRY_POINTS)


def test_entry_points_are_public_and_documented():
    for qualname, node in uncalled().items():
        assert not node.name.startswith("_"), qualname
        assert ast.get_docstring(node), qualname


def test_every_selftest_check_has_a_unit_test():
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for path in TESTS.glob("test_*.py") if path.name != "test_cli.py"
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Call)}
    checks = {check.__name__ for suite in selftests.SUITES.values() for _, check, _ in suite}
    assert sorted(checks - called) == []

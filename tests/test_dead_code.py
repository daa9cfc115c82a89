"""Every public module-level name in src/gamesolve is used somewhere in the
package other than its own definition and ``__init__.py``'s re-export: code
that only tests use belongs in the tests.  Every private one is used in its
own module other than its definition, and no other module reads it.  And
every import is used by the module or function that makes it."""

import ast
from collections import Counter
from pathlib import Path

import gamesolve

SRC = Path(gamesolve.__file__).parent

ALLOWED = {
    # the explicit three-rule 2-Diet Chomp generator: the independent route
    # that criterion 11 cross-checks against the quadrant generator
    "diet_chomp2_moves_explicit",
    # the DFS: the tests' oracle for the lattice tables, and the benchmark's
    # tracer patches both names in ``solver``
    "grundy",
    "outcome",
}


def _definitions(tree):
    """(name, defining node) for each public module-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _references(node):
    """Names, attribute names and imported names anywhere under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_public_name_in_src_has_a_use_in_src():
    trees = {
        path.name: ast.parse(path.read_text())
        for path in SRC.glob("*.py")
        if path.name != "__init__.py"  # a re-export is not a use
    }
    uses = Counter(ref for tree in trees.values() for ref in _references(tree))
    unused = [
        f"{module}:{name}"
        for module, tree in sorted(trees.items())
        for name, node in _definitions(tree)
        if not name.startswith("_")
        and name not in ALLOWED
        and uses[name] == Counter(_references(node))[name]
    ]
    assert unused == []


def test_every_private_name_in_src_has_a_use_in_its_module():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        uses = Counter(_references(tree))
        unused += [
            f"{path.name}:{name}"
            for name, node in _definitions(tree)
            if name.startswith("_")
            and not name.startswith("__")
            and uses[name] == Counter(_references(node))[name]
        ]
    assert unused == []


def test_no_module_in_src_reads_another_modules_private_name():
    # a name another module needs is public: a private one may change
    # with its own module alone
    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    private = {
        module: {name for name, _ in _definitions(tree) if name.startswith("_")}
        for module, tree in trees.items()
    }
    read = [
        f"{module}:{name} of {owner}"
        for module, tree in sorted(trees.items())
        for name in sorted(set(_references(tree)) - private[module])
        for owner in sorted(private)
        if name in private[owner] and not name.startswith("__")
    ]
    assert read == []


def _own_nodes(scope):
    """The nodes under ``scope`` but outside the functions nested in it."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _own_nodes(child)


def _imported_names(scope):
    """The name each import in ``scope`` itself binds, but ``from
    __future__``."""
    for node in _own_nodes(scope):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_import_in_src_is_used_where_it_is_made():
    # a module-level import must be used in its module, and one inside a
    # function (a lazy import) in that function
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # it imports to re-export
            continue
        tree = ast.parse(path.read_text())
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = {sub.id for sub in ast.walk(scope) if isinstance(sub, ast.Name)}
            unused += [
                f"{path.name}:{getattr(scope, 'name', '<module>')}:{name}"
                for name in _imported_names(scope)
                if name not in names
            ]
    assert unused == []

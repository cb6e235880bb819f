"""Every public library function, class, method and property is reached
by a run or a criterion, and every imported name is used.

A public top-level function or class of a library module (each
src/gfsl/*.py but the CLI and the package) must be referenced, by a
Name, an Attribute or an import alias, in cli.py, in another library
module, in its own module outside its own body, or in the acceptance
suite.  So must a public method or property of a library class, or else
in bench/*.py, whose replay reads library attributes.  A name that only
its own unit tests reach is dead code: delete it with them.  A name that
a module under src/gfsl/ or tests/ imports must be referenced, as a
Name, somewhere in that module.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gfsl"
TESTS = Path(__file__).resolve().parent
ACCEPTANCE = TESTS / "test_acceptance.py"
BENCH = TESTS.parent / "bench"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(tree, skip=None):
    """Names that `tree` references outside the node `skip`."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        stack.extend(ast.iter_child_nodes(node))
    return names


def _public(nodes, kinds):
    return [node for node in nodes
            if isinstance(node, kinds) and not node.name.startswith("_")]


def test_every_public_library_name_is_referenced():
    trees = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    library = sorted(set(trees) - {"cli", "__init__"})
    refs = {mod: _references(trees[mod]) for mod in library}
    outside = _references(trees["cli"]) | _references(_parse(ACCEPTANCE))
    bench = set().union(*(_references(_parse(path))
                          for path in sorted(BENCH.glob("*.py"))))
    unreached = []
    for mod in library:
        reached = outside.union(*(refs[m] for m in library if m != mod))
        for node in _public(trees[mod].body, (ast.FunctionDef, ast.ClassDef)):
            if (node.name not in reached
                    and node.name not in _references(trees[mod], node)):
                unreached.append(f"{mod}.{node.name}")
        # methods and properties of every class, by attribute name
        for node in trees[mod].body:
            if not isinstance(node, ast.ClassDef):
                continue
            for meth in _public(node.body, ast.FunctionDef):
                if (meth.name not in reached and meth.name not in bench
                        and meth.name not in _references(trees[mod], meth)):
                    unreached.append(f"{mod}.{node.name}.{meth.name}")
    assert not unreached, (
        "public library names that no CLI run, other library code, "
        "acceptance criterion or (for methods) bench script references: "
        f"{', '.join(unreached)}")


def _unused_imports(tree):
    """Names that `tree` binds by an import and never reads as a Name."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                name = alias.asname or alias.name.partition(".")[0]
                bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_every_imported_name_is_used():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    unused = [f"{path.parent.name}/{path.name}:{line}: {name}"
              for path in paths
              for line, name in _unused_imports(_parse(path))]
    assert not unused, f"imported names never used: {', '.join(unused)}"

"""Every public library function, class, method and property is reached
by a run or a criterion, and every imported name is used.

A public top-level function or class of a library module (each
src/gfsl/*.py but the CLI and the package) must be referenced, by a
Name, an Attribute or an import alias, in cli.py, in another library
module, in its own module outside its own body, or in the acceptance
suite.  So must a public method or property of a library class, or else
in bench/*.py, whose replay reads library attributes.  A name that only
its own unit tests reach is dead code: delete it with them.  So is an
underscore-named top-level function, class or constant of any module
under src/gfsl/ that its own module does not reference outside its own
definition (no other module may read it).  A name that
a module under src/gfsl/ or tests/ imports must be referenced, as a
Name, somewhere in that module.  Every default of a library function or
method parameter, or of a dataclass field, must be left out by at least
one call in cli.py, the library or the acceptance suite: a default that
all of them override belongs to a parameter that should be required.
No module under src/gfsl/ reads an underscore name of another: what one
module needs of another is public.  No two raise sites under src/gfsl/
share the constant text of their message, if it is _MIN_SHARED_TEXT
characters or more: a check written twice is one check to share.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gfsl"
TESTS = Path(__file__).resolve().parent
ACCEPTANCE = TESTS / "test_acceptance.py"
BENCH = TESTS.parent / "bench"
# shorter shared texts are separators and prefixes, such as "|: |"
_MIN_SHARED_TEXT = 20


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


def unreferenced_private(tree):
    """Underscore names (not dunders) of the top-level functions, classes
    and assigned constants of `tree` that `tree` references nowhere
    outside their own definition."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            defined += [(name.id, node) for target in targets
                        for name in ast.walk(target)
                        if isinstance(name, ast.Name)]
    return [name for name, node in defined
            if name.startswith("_") and not name.endswith("__")
            and name not in _references(tree, node)]


def test_every_private_library_name_is_referenced():
    unused = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
              for name in unreferenced_private(_parse(path))]
    assert not unused, ("underscore names that their own module never "
                        f"references: {', '.join(unused)}")


def test_unreferenced_private_name_is_flagged():
    tree = ast.parse("_USED, _SPARE = 1, 2\n_ALONE: int = 3\n"
                     "def _helper():\n    return _USED + _helper()\n"
                     "class _Shape:\n    pass\n"
                     "def public():\n    return __name__\n")
    assert unreferenced_private(tree) == ["_SPARE", "_ALONE", "_helper",
                                          "_Shape"]


def _private_reads(trees):
    """"module.py:line: other.name" for each underscore name (not a
    dunder) that a module of `trees` reads from another, as an attribute
    of that module's name or by a relative import."""
    found = []
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in trees and node.value.id != mod):
                reads = [(node.value.id, node.attr)]
            elif isinstance(node, ast.ImportFrom) and node.level:
                reads = [(node.module or alias.name, alias.name)
                         for alias in node.names]
            else:
                continue
            found += [f"{mod}.py:{node.lineno}: {other}.{name}"
                      for other, name in reads
                      if name.startswith("_") and not name.endswith("__")]
    return found


def test_no_module_reads_another_private_name():
    trees = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    found = _private_reads(trees)
    assert not found, ("underscore names read across library modules: "
                       f"{', '.join(found)}")


def _defaulted(args, skip):
    """(parameter, position) of each parameter of `args` with a default;
    positions count past `skip` leading ones, None if keyword-only."""
    pos = args.posonlyargs + args.args
    first = len(pos) - len(args.defaults)
    return ([(a.arg, i - skip) for i, a in enumerate(pos) if i >= first]
            + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def _decorators(node):
    return {getattr(getattr(d, "func", d), "id", None)
            for d in node.decorator_list}


def _signatures(library):
    """{called name: [(owner, parameter, position)]} for every default in
    the `library` trees, a class's __init__ and dataclass fields under the
    class's name, and {class: base} for each class that inherits its
    constructor."""
    sigs, base = {}, {}
    for tree in library:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                sigs.setdefault(node.name, []).extend(
                    (node.name, *p) for p in _defaulted(node.args, 0))
            if not isinstance(node, ast.ClassDef):
                continue
            own = "dataclass" in _decorators(node)
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
            init = [(node.name, s.target.id, i) for i, s in enumerate(fields)
                    if own and s.value is not None]
            for meth in node.body:
                if not isinstance(meth, ast.FunctionDef):
                    continue
                skip = int("staticmethod" not in _decorators(meth))
                if meth.name == "__init__":
                    own = True
                    init += [(node.name, *p)
                             for p in _defaulted(meth.args, skip)]
                else:
                    sigs.setdefault(meth.name, []).extend(
                        (f"{node.name}.{meth.name}", *p)
                        for p in _defaulted(meth.args, skip))
            if own:
                sigs.setdefault(node.name, []).extend(init)
            elif node.bases and isinstance(node.bases[0], ast.Name):
                base[node.name] = node.bases[0].id
    return sigs, base


def unomitted_defaults(library, callers):
    """Defaults, as "owner.parameter", of the functions, methods and
    dataclass fields of the `library` trees that no call in `library` or
    `callers` leaves out.  A call matches by the name it calls: the
    function's or method's, or a class's for its constructor (a subclass
    that inherits the constructor counts as its base).  A call with *args
    or **kwargs may pass anything, so it leaves nothing out."""
    sigs, base = _signatures(library)
    omitted = set()
    for tree in library + callers:
        for call in ast.walk(tree):
            if (not isinstance(call, ast.Call)
                    or any(isinstance(a, ast.Starred) for a in call.args)
                    or any(k.arg is None for k in call.keywords)):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            while name in base and name not in sigs:
                name = base[name]
            passed = {k.arg for k in call.keywords}
            for owner, param, at in sigs.get(name, ()):
                if param not in passed and (at is None
                                            or at >= len(call.args)):
                    omitted.add((owner, param))
    return sorted(f"{owner}.{param}" for params in sigs.values()
                  for owner, param, _ in params
                  if (owner, param) not in omitted)


def test_every_default_is_left_out_by_some_call():
    trees = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    library = [tree for mod, tree in trees.items()
               if mod not in ("cli", "__init__")]
    unused = unomitted_defaults(library, [trees["cli"], _parse(ACCEPTANCE)])
    assert not unused, (
        "defaults that every call in cli.py, the library and the acceptance "
        f"suite overrides: {', '.join(unused)}")


# A library in which exactly the defaults of `passed` and `Field.y` are
# always passed; the other four are each left out by some call.
_MUTANT_LIBRARY = """
from dataclasses import dataclass

class Base(Exception):
    def __init__(self, message, value=None):
        super().__init__(message)

class Child(Base):
    pass

@dataclass(frozen=True)
class Field:
    x: float
    y: float = 1.0

def passed(a, b=2):
    return Field(a, b)

def left_out(a, b=2, *, c=3):
    return passed(a, *[b])
"""
_MUTANT_CALLS = """
passed(1, b=3)
left_out(1, c=0)
left_out(1, 5)
raise Child("inherits Base's value")
"""


def test_always_passed_default_is_flagged():
    unused = unomitted_defaults([ast.parse(_MUTANT_LIBRARY)],
                                [ast.parse(_MUTANT_CALLS)])
    assert unused == ["Field.y", "passed.b"]


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


def _message_text(node):
    """The constant text of a raise's message: a string literal, or an
    f-string's literal parts with "|" for each formatted value; None if
    the raise writes no message of its own."""
    exc = node.exc
    if not (isinstance(exc, ast.Call) and exc.args):
        return None
    msg = exc.args[0]
    if isinstance(msg, ast.Constant) and isinstance(msg.value, str):
        return msg.value
    if isinstance(msg, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "|"
                       for part in msg.values)
    return None


def shared_raise_texts(trees):
    """{text: ["module.py:line", ...]} for each constant message text, of
    at least _MIN_SHARED_TEXT characters, that two or more raise sites of
    the {module: tree} `trees` write."""
    sites = {}
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                text = _message_text(node)
                if text is not None and len(text) >= _MIN_SHARED_TEXT:
                    sites.setdefault(text, []).append(
                        f"{mod}.py:{node.lineno}")
    return {text: where for text, where in sites.items() if len(where) > 1}


def test_no_check_is_written_twice():
    trees = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    shared = shared_raise_texts(trees)
    assert not shared, "raise sites that share their message text: " + (
        "; ".join(f"{', '.join(where)}: {text!r}"
                  for text, where in shared.items()))


def test_shared_raise_text_is_flagged():
    # the two weight checks share their text, whatever they format; the
    # "|: |" separators and the bare re-raise are not flagged
    one = ast.parse("def f(l):\n"
                    "    if l < 2:\n"
                    "        raise ValueError(f'weight: l = {l} must be 2+')\n"
                    "    raise KeyError(f'{l}: {l}')\n")
    two = ast.parse("def g(l, exc):\n"
                    "    if l < 2:\n"
                    "        raise TypeError(f'weight: l = {l!r} must be 2+')"
                    "\n"
                    "    if l > 9:\n"
                    "        raise KeyError(f'{exc}: {l}')\n"
                    "    raise exc\n")
    assert shared_raise_texts({"one": one, "two": two}) == {
        "weight: l = | must be 2+": ["one.py:3", "two.py:3"]}
